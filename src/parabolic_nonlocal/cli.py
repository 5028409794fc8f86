"""Config-driven experiment runner.

One command per process, driven by a JSON config file; results land in an
output directory as ``report.json`` (plus ``trajectory.csv`` where a path is
produced).  Exit codes: 0 success/converged, 1 config error, 2 audit
failure, 3 solver non-convergence.  Identical config and seed give
bit-identical reports apart from the timestamp field.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .evolution import (
    TimeGrid,
    au_l2,
    build_propagator,
    projected_convergence_study,
    propagate,
    trajectory_to_csv,
    weighted_diagnostic,
)
from .galerkin import audit_dini, build_sine_space, default_audit_grid, estimate_bounds, project
from .models import (
    audit_coefficient_field,
    constant_coefficient,
    cosine_bump_kernel,
    divergence_form_assemble,
    preset_evi,
    preset_heat_timevarying,
    time_power_coefficient,
)
from .nonlinearity import (
    evi_residual,
    negated_identity,
    pseudo_huber_functional,
    quadratic_functional,
    saturating_drift,
    zero_nonlinearity,
)
from .nonlocal_solver import (
    NonlocalProblem,
    SolverConfig,
    annulus_energy_check,
    audit_problem,
    exp_shift,
    g_constant,
    g_mollified_integral,
    solve_nonlocal,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_AUDIT = 2
EXIT_NO_CONVERGENCE = 3


class ConfigError(Exception):
    pass


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):  # numpy bools too; a numpy inf then reads "inf"
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)  # "inf", "-inf" or "nan": strict JSON has no such number
    return obj


def _integer(key, value) -> int:
    """An integral JSON number: 2.0 counts; 2.5, "2" and true do not."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(key, value) -> float:
    """A finite JSON number that is not a boolean (``json`` parses NaN and Infinity)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return float(value)


def _list_of(kind):
    def read(key, value):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return [kind(f"{key}[{i}]", v) for i, v in enumerate(value)]
    return read


def _pick(what, name, table):
    if isinstance(name, str) and name in table:
        return table[name]
    raise ConfigError(f"unknown {what}: {name!r}")


class _Reader:
    """One JSON object of a config, read key by key.

    ``read`` checks a value with ``kind`` (``_integer``, ``_real``, ...; none
    for preset names) and records the value used in ``resolved``, nested
    objects under their key.  Null reads as the default; unknown keys are
    ignored.
    """

    def __init__(self, spec, name=""):
        if not isinstance(spec, dict):
            raise ConfigError(f"{name or 'top level'} must be a JSON object")
        self.spec, self.name, self.resolved = spec, name, {}

    def read(self, key, default, kind=None):
        value = self.spec.get(key)
        if value is not None and kind is not None:
            value = kind(f"{self.name}.{key}".lstrip("."), value)
        self.resolved[key] = default if value is None else value
        return self.resolved[key]

    def section(self, key) -> _Reader:
        """The nested object under ``key``; absent or null reads as empty."""
        spec = self.spec.get(key)
        child = _Reader({} if spec is None else spec, f"{self.name}.{key}".lstrip("."))
        self.resolved[key] = child.resolved
        return child

    def preset(self, key, default):
        """A preset name, or a reader of the object given instead."""
        if isinstance(self.spec.get(key), dict):
            return self.section(key)
        return self.read(key, default)


COEFFICIENTS = {
    "unit": lambda: constant_coefficient(1.0),
    "time_power_06": lambda: time_power_coefficient(1.0, 0.5, 0.6),
}
INITIAL_DATA = {
    "smooth": lambda n: np.exp(-np.arange(1, n + 1, dtype=float)),
    "first_mode": lambda n: np.eye(n)[0],
}
NONLINEARITIES = {  # factories of the trial space
    "zero": lambda space: zero_nonlinearity(),
    "negated_identity": lambda space: negated_identity(),
    "saturating_drift": saturating_drift,
}
FUNCTIONALS = {"quadratic": quadratic_functional, "pseudo_huber": pseudo_huber_functional}


def _coefficient_from_config(form):
    spec = form.preset("coefficient", "unit")
    if not isinstance(spec, _Reader):
        return _pick("coefficient preset", spec, COEFFICIENTS)()
    name = spec.read("name", None)
    if name == "constant":
        return constant_coefficient(spec.read("value", 1.0, _real))
    if name == "time_power":
        return time_power_coefficient(spec.read("base", 1.0, _real), spec.read("amp", 0.5, _real),
                                      spec.read("exponent", 0.6, _real))
    raise ConfigError(f"unknown coefficient preset: {form.spec['coefficient']!r}")


def _form_from_config(form):
    n_modes = form.read("n_modes", 4, _integer)
    length = form.read("length", math.pi, _real)
    horizon = form.read("horizon", 1.0, _real)
    if n_modes < 1 or length <= 0 or horizon <= 0:
        raise ConfigError("n_modes, length, horizon must be positive")
    space = build_sine_space(n_modes, length)
    field = _coefficient_from_config(form)
    quad_order = form.read("quad_order", 6, _integer)
    return space, field, divergence_form_assemble(field, space, quad_order, horizon)


def _initial_data(cfg, key, n_modes):
    spec = cfg.read(key, "smooth", lambda k, v: v if isinstance(v, str) else _list_of(_real)(k, v))
    if isinstance(spec, str):
        return _pick("initial data preset", spec, INITIAL_DATA)(n_modes)
    if len(spec) != n_modes:
        raise ConfigError(f"{key} must have {n_modes} entries")
    return np.array(spec)


def _reject_overflow(key, norms):
    """Finite data ``key`` whose path norms overflow (computed without warnings) is an error."""
    if not np.isfinite(norms).all():
        raise ConfigError(f"{key} is too large: the norms of its path overflow")


def _condition_from_config(problem, space):
    spec = problem.preset("g", "zero")
    if spec == "zero":
        return g_constant(np.zeros(space.n_modes))
    if isinstance(spec, _Reader):
        kind = spec.read("kind", None)
        if kind == "constant":
            return g_constant(_initial_data(spec, "x0", space.n_modes))
        if kind == "mollified_integral":
            kernel = cosine_bump_kernel(spec.read("width", 4.0, _real))
            intervals = spec.read("intervals", [[0.0, 0.5]], _list_of(_list_of(_real)))
            return g_mollified_integral(kernel, intervals, space)
    raise ConfigError(f"unknown nonlocal condition preset: {problem.spec['g']!r}")


def _problem_from_config(problem):
    preset = problem.read("preset", None)
    n_modes = problem.read("n_modes", 4, _integer)
    n_steps = problem.read("n_steps", 64, _integer)
    if preset == "heat_timevarying":
        return preset_heat_timevarying(n_modes, n_steps)
    if preset is not None:
        phi = _pick("problem preset", preset, {f"evi_{k}": f for k, f in FUNCTIONALS.items()})
        return preset_evi(n_modes, n_steps, phi(n_modes))

    space, _, form = _form_from_config(problem)
    prob = NonlocalProblem(
        form=form,
        proj=project(space, problem.read("m", n_modes, _integer)),
        f=_pick("nonlinearity preset", problem.read("nonlinearity", "zero"),
                NONLINEARITIES)(space),
        g=_condition_from_config(problem, space),
        grid=TimeGrid(form.horizon, n_steps),
        r0=problem.read("r0", 1.0, _real),
        R0=problem.read("R0", math.inf, lambda k, v: math.inf if v == "inf" else _real(k, v)),
    )
    mu = problem.read("shift_mu", 0.0, _real)
    if mu < 0.0:
        raise ConfigError(f"problem.shift_mu must be nonnegative, got {mu!r}")
    return exp_shift(prob, mu) if mu > 0.0 else prob


def _solver_from_config(solver, seed):
    """Every ``SolverConfig`` setting but the seed, typed by its default."""
    return SolverConfig(seed=seed, **{
        f.name: solver.read(f.name, f.default, _integer if type(f.default) is int else _real)
        for f in dataclasses.fields(SolverConfig) if f.name != "seed"})


def cmd_verify_form(config, seed, outdir):
    space, field, form = _form_from_config(config.section("form"))
    grid = default_audit_grid(form.horizon)
    m_hat, alpha_hat = estimate_bounds(form, grid)
    dini = audit_dini(form, np.geomspace(form.horizon * 1e-4, form.horizon * 1e-2, 9))
    coeff_audit = audit_coefficient_field(field, form.horizon, space.domain_length, seed=seed)
    bounds_ok = (
        m_hat <= form.bound_M * (1 + 1e-6) and alpha_hat >= form.coercivity_alpha * (1 - 1e-6)
    )
    passed = bool(
        bounds_ok and dini.dini_pass and coeff_audit["ellipticity_ok"] and coeff_audit["holder_ok"]
    )
    results = {
        "M_hat": m_hat,
        "alpha_hat": alpha_hat,
        "declared_M": form.bound_M,
        "declared_alpha": form.coercivity_alpha,
        "bounds_ok": bounds_ok,
        "dini_exponent": dini.dini_exponent,
        "dini_pass": dini.dini_pass,
        "coefficient_audit": coeff_audit,
        "passed": passed,
    }
    return (EXIT_OK if passed else EXIT_AUDIT), results, None


def cmd_propagate(config, seed, outdir):
    space, _, form = _form_from_config(config.section("form"))
    grid = TimeGrid(form.horizon, config.read("n_steps", 128, _integer))
    x = _initial_data(config, "x", space.n_modes)
    prop = build_propagator(form, None, grid, config.read("scheme", "cayley"))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected below
        traj = propagate(form, None, grid, x, propagator=prop)
        results = {
            "h_norm_initial": traj.h_norms[0],
            "h_norm_final": traj.h_norms[-1],
            "h_norms_nonincreasing": bool(np.all(np.diff(traj.h_norms) <= 1e-10)),
            "max_step_factor_h_norm": float(prop.step_norms_h().max()),
            "sobolev_h1": traj.sobolev_h1,
            "l2_v": traj.l2_v,
            "au_l2": au_l2(form, None, traj),
            "weighted_diagnostic": weighted_diagnostic(form, None, traj),
        }
    _reject_overflow("x", list(results.values()))
    return EXIT_OK, results, traj


def cmd_solve(config, seed, outdir):
    prob = _problem_from_config(config.section("problem"))
    cfg = _solver_from_config(config.section("solver"), seed)
    audits = audit_problem(prob, seed=seed)
    results = {
        "audits": {
            "transversality_ok": audits["transversality_ok"],
            "transversality_worst": audits["transversality"].worst_value,
            "transversality_violations": audits["transversality"].violations,
            "g_bound_ok": audits["g_bound_ok"],
            "g_bound_margins": audits["g_bound_margins"],
            "g_solver_ok": audits["g_solver_ok"],
            "passed": audits["passed"],
        }
    }
    if not audits["passed"]:
        return EXIT_AUDIT, results, None
    rep = solve_nonlocal(prob, cfg)
    results.update(
        {
            "status": rep.status,
            "converged": rep.converged,
            "fixed_point_residual": rep.fixed_point_residual,
            "lambda_path": [list(p) for p in rep.lambda_path],
            "apriori_lhs": rep.apriori_lhs,
            "apriori_rhs": rep.apriori_rhs,
            "g_star": rep.g_star,
            "mean_radius": rep.solution.mean_radius,
            "annulus_energy_ok": annulus_energy_check(rep.solution, prob.r0, prob.R0),
            "shift_mu": prob.shift_mu,
        }
    )
    code = EXIT_OK if rep.converged else EXIT_NO_CONVERGENCE
    return code, results, rep.solution


def cmd_converge(config, seed, outdir):
    space, _, form = _form_from_config(config.section("form"))
    grid = TimeGrid(form.horizon, config.read("n_steps", 64, _integer))
    x = _initial_data(config, "x", space.n_modes)
    m_list = config.read("m_list", [2, 4, 8], _list_of(_integer))
    m_ref = config.read("m_ref", space.n_modes, _integer)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected below
        study = projected_convergence_study(form, grid, x, m_list, m_ref)
    errs = [e for _, e in study]
    _reject_overflow("x", errs)
    results = {
        "m_ref": m_ref,
        "study": [[m, e] for m, e in study],
        "nonincreasing": bool(all(errs[i] >= errs[i + 1] - 1e-10 for i in range(len(errs) - 1))),
    }
    with open(Path(outdir) / "convergence.csv", "w") as fh:
        fh.write("m,sup_error\n" + "".join(f"{m},{e!r}\n" for m, e in study))
    return EXIT_OK, results, None


def cmd_evi(config, seed, outdir):
    n_modes = config.read("n_modes", 4, _integer)
    phi_name = config.read("phi", "quadratic")
    phi = _pick("functional preset", phi_name, FUNCTIONALS)(n_modes)
    prob = preset_evi(n_modes, config.read("n_steps", 256, _integer), phi)
    n_test = config.read("n_test", 50, _integer)
    rep = solve_nonlocal(prob, _solver_from_config(config.section("solver"), seed))
    residual = evi_residual(prob.form, phi, rep.solution, n_test, seed=seed)
    results = {
        "status": rep.status,
        "converged": rep.converged,
        "fixed_point_residual": rep.fixed_point_residual,
        "evi_residual": residual,
        "evi_tolerance": 10.0 * prob.grid.dt,
        "evi_ok": bool(residual >= -10.0 * prob.grid.dt),
    }
    if phi_name == "quadratic":
        exact = np.exp(-2.0 * rep.solution.grid.nodes)
        results["mode_one_error"] = float(np.abs(rep.solution.values[:, 0] - exact).max())
    code = EXIT_OK if rep.converged and results["evi_ok"] else EXIT_NO_CONVERGENCE
    return code, results, rep.solution


COMMANDS = {
    "verify-form": cmd_verify_form,
    "propagate": cmd_propagate,
    "solve": cmd_solve,
    "converge": cmd_converge,
    "evi": cmd_evi,
}


def write_report(outdir: Path, payload: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "report.json", "w") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def run(config_path: str, output: str | None, seed_override: int | None,
        quiet: bool) -> int:
    outdir = Path(output or "pn-report")
    try:
        with open(config_path) as fh:
            config = json.load(fh)
        reader = _Reader(config)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        write_report(outdir, {"error": f"cannot read config: {exc}", "exit_code": EXIT_CONFIG})
        if not quiet:
            print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if output is None and isinstance(config.get("output"), str):
        outdir = Path(config["output"])
    command = config.get("command")

    payload = {
        "tool": {"name": "parabolic-nonlocal", "version": __version__},
        "command": command,
        "config": config,
    }
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        seed = seed_override if seed_override is not None else reader.read("seed", 0, _integer)
        payload["seed"] = seed
        if command not in COMMANDS:
            raise ConfigError(f"unknown command: {command!r}")
        code, results, traj = COMMANDS[command](reader, seed, outdir)
        payload["results"] = {**results, "resolved": reader.resolved}
    except (ConfigError, ValueError, TypeError) as exc:
        payload["error"] = (str(exc) if isinstance(exc, ConfigError)
                            else f"invalid parameters: {exc}")
        code, traj = EXIT_CONFIG, None
    payload["exit_code"] = code

    payload["timestamp_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if traj is not None:
        trajectory_to_csv(traj, outdir / "trajectory.csv")
    write_report(outdir, payload)
    if not quiet:
        if "error" in payload:
            print(f"{command or 'run'}: error: {payload['error']}", file=sys.stderr)
        else:
            print(f"{command}: exit {code}; report at {outdir / 'report.json'}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="parabolic-nonlocal",
        description="Run form audits, propagations, nonlocal solves, and "
                    "reduction convergence studies from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--output", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    return run(args.config, args.output, args.seed, args.quiet)


if __name__ == "__main__":
    sys.exit(main())
