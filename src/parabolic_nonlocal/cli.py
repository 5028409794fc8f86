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
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"type": type(obj).__name__}
    return obj


def _seed(value) -> int:
    """The run seed: an integral JSON number (2.0 counts; 1.5, "7" and true do not)."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"seed must be an integer, got {value!r}")
    return int(value)


def _section(config, key):
    """A nested config object; absent or null reads as empty."""
    spec = config.get(key)
    if spec is None:
        return {}
    if not isinstance(spec, dict):
        raise ConfigError(f"{key!r} must be a JSON object")
    return spec


def _coefficient_from_config(spec):
    if spec in (None, "unit"):
        return constant_coefficient(1.0)
    if spec == "time_power_06":
        return time_power_coefficient(1.0, 0.5, 0.6)
    if isinstance(spec, dict):
        name = spec.get("name")
        if name == "constant":
            return constant_coefficient(float(spec.get("value", 1.0)))
        if name == "time_power":
            return time_power_coefficient(
                float(spec.get("base", 1.0)),
                float(spec.get("amp", 0.5)),
                float(spec.get("exponent", 0.6)),
            )
    raise ConfigError(f"unknown coefficient preset: {spec!r}")


def _form_from_config(cfg):
    n_modes = int(cfg.get("n_modes", 4))
    length = float(cfg.get("length", math.pi))
    horizon = float(cfg.get("horizon", 1.0))
    quad_order = int(cfg.get("quad_order", 6))
    if n_modes < 1 or length <= 0 or horizon <= 0:
        raise ConfigError("n_modes, length, horizon must be positive")
    space = build_sine_space(n_modes, length)
    field = _coefficient_from_config(cfg.get("coefficient"))
    form = divergence_form_assemble(field, space, quad_order, horizon)
    resolved = {
        "n_modes": n_modes,
        "length": length,
        "horizon": horizon,
        "quad_order": quad_order,
        "coefficient": cfg.get("coefficient", "unit"),
    }
    return space, field, form, resolved


def _initial_data(spec, n_modes):
    if spec in (None, "smooth"):
        return np.exp(-np.arange(1, n_modes + 1, dtype=float))
    if spec == "first_mode":
        x = np.zeros(n_modes)
        x[0] = 1.0
        return x
    if isinstance(spec, list):
        x = np.asarray(spec, dtype=float)
        if x.shape != (n_modes,):
            raise ConfigError(f"x must have {n_modes} entries")
        return x
    raise ConfigError(f"unknown initial data preset: {spec!r}")


def _nonlinearity_from_config(spec, n_modes):
    if spec in (None, "zero"):
        return zero_nonlinearity()
    if spec == "negated_identity":
        return negated_identity()
    if spec == "saturating_drift":
        return saturating_drift(n_modes)
    raise ConfigError(f"unknown nonlinearity preset: {spec!r}")


def _condition_from_config(spec, space):
    if spec in (None, "zero"):
        return g_constant(np.zeros(space.n_modes))
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "constant":
            return g_constant(_initial_data(spec.get("x0", "smooth"), space.n_modes))
        if kind == "mollified_integral":
            kernel = cosine_bump_kernel(float(spec.get("width", 4.0)))
            intervals = [tuple(p) for p in spec.get("intervals", [[0.0, 0.5]])]
            return g_mollified_integral(kernel, intervals, space)
    raise ConfigError(f"unknown nonlocal condition preset: {spec!r}")


def _problem_from_config(cfg):
    preset = cfg.get("preset")
    n_modes = int(cfg.get("n_modes", 4))
    n_steps = int(cfg.get("n_steps", 64))
    if preset == "heat_timevarying":
        return preset_heat_timevarying(n_modes, n_steps)
    if preset == "evi_quadratic":
        return preset_evi(n_modes, n_steps, quadratic_functional(n_modes))
    if preset == "evi_pseudo_huber":
        return preset_evi(n_modes, n_steps, pseudo_huber_functional(n_modes))
    if preset is not None:
        raise ConfigError(f"unknown problem preset: {preset!r}")

    space, _, form, _resolved = _form_from_config(cfg)
    r0 = float(cfg.get("r0", 1.0))
    r0_cap = cfg.get("R0", "inf")
    R0 = math.inf if r0_cap in ("inf", None) else float(r0_cap)
    prob = NonlocalProblem(
        form=form,
        proj=project(space, int(cfg.get("m", space.n_modes))),
        f=_nonlinearity_from_config(cfg.get("nonlinearity"), space.n_modes),
        g=_condition_from_config(cfg.get("g"), space),
        grid=TimeGrid(form.horizon, n_steps),
        r0=r0,
        R0=R0,
    )
    mu = float(cfg.get("shift_mu", 0.0))
    return exp_shift(prob, mu) if mu > 0.0 else prob


def _solver_from_config(cfg, seed):
    return SolverConfig(
        lambda_steps=int(cfg.get("lambda_steps", 10)),
        damping=float(cfg.get("damping", 0.5)),
        inner_tol=float(cfg.get("inner_tol", 1e-8)),
        max_inner=int(cfg.get("max_inner", 500)),
        secant_depth=int(cfg.get("secant_depth", 0)),
        fp_tol=float(cfg["fp_tol"]) if "fp_tol" in cfg else None,
        g_star_samples=int(cfg.get("g_star_samples", 200)),
        seed=seed,
    )


def cmd_verify_form(config, seed, outdir):
    space, field, form, resolved = _form_from_config(_section(config, "form"))
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
        "resolved": resolved,
    }
    return (EXIT_OK if passed else EXIT_AUDIT), results, None


def cmd_propagate(config, seed, outdir):
    space, _, form, resolved = _form_from_config(_section(config, "form"))
    n_steps = int(config.get("n_steps", 128))
    scheme = config.get("scheme", "cayley")
    grid = TimeGrid(form.horizon, n_steps)
    x = _initial_data(config.get("x"), space.n_modes)
    prop = build_propagator(form, None, grid, scheme)
    traj = propagate(form, None, grid, x, propagator=prop)
    results = {
        "h_norm_initial": traj.h_norms[0],
        "h_norm_final": traj.h_norms[-1],
        "h_norms_nonincreasing": bool(np.all(np.diff(traj.h_norms) <= 1e-10)),
        "max_step_factor_h_norm": float(prop.step_norms_h().max()),
        "sobolev_h1": traj.sobolev_h1,
        "l2_v": traj.l2_v,
        "au_l2": traj.au_l2,
        "weighted_diagnostic": weighted_diagnostic(form, None, grid, x),
        "resolved": {**resolved, "n_steps": n_steps, "scheme": scheme,
                     "x": config.get("x", "smooth")},
    }
    return EXIT_OK, results, traj


def cmd_solve(config, seed, outdir):
    prob = _problem_from_config(_section(config, "problem"))
    cfg = _solver_from_config(_section(config, "solver"), seed)
    audits = audit_problem(prob, seed=seed)
    results = {
        "audits": {
            "transversality_ok": audits["transversality_ok"],
            "transversality_worst": audits["transversality"].worst_value,
            "transversality_violations": audits["transversality"].violations,
            "g_bound_ok": audits["g_bound_ok"],
            "g_bound_margins": audits["g_bound_margins"],
            "passed": audits["passed"],
        }
    }
    if prob.g.bound_params.get("solver_ok") is False:
        # the kernel's derivative mass reaches 1: g is not admissible for solves
        results["audits"]["g_solver_ok"] = False
        results["audits"]["passed"] = False
    if not results["audits"]["passed"]:
        return EXIT_AUDIT, results, None
    results["resolved"] = {"solver": dataclasses.asdict(cfg),
                           "n_modes": prob.form.space.n_modes,
                           "n_steps": prob.grid.n_steps}
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
    space, _, form, resolved = _form_from_config(_section(config, "form"))
    n_steps = int(config.get("n_steps", 64))
    grid = TimeGrid(form.horizon, n_steps)
    x = _initial_data(config.get("x"), space.n_modes)
    m_list = [int(m) for m in config.get("m_list", [2, 4, 8])]
    m_ref = int(config.get("m_ref", space.n_modes))
    study = projected_convergence_study(form, grid, x, m_list, m_ref)
    errs = [e for _, e in study]
    results = {
        "m_ref": m_ref,
        "study": [[m, e] for m, e in study],
        "nonincreasing": bool(all(errs[i] >= errs[i + 1] - 1e-10 for i in range(len(errs) - 1))),
        "resolved": {**resolved, "n_steps": n_steps, "m_list": m_list,
                     "m_ref": m_ref},
    }
    csv_path = Path(outdir) / "convergence.csv"
    with open(csv_path, "w") as fh:
        fh.write("m,sup_error\n")
        for m, e in study:
            fh.write(f"{m},{e!r}\n")
    return EXIT_OK, results, None


def cmd_evi(config, seed, outdir):
    n_modes = int(config.get("n_modes", 4))
    n_steps = int(config.get("n_steps", 256))
    phi_name = config.get("phi", "quadratic")
    if phi_name == "quadratic":
        phi = quadratic_functional(n_modes)
    elif phi_name == "pseudo_huber":
        phi = pseudo_huber_functional(n_modes)
    else:
        raise ConfigError(f"unknown functional preset: {phi_name!r}")
    prob = preset_evi(n_modes, n_steps, phi)
    cfg = _solver_from_config(_section(config, "solver"), seed)
    rep = solve_nonlocal(prob, cfg)
    residual = evi_residual(prob.form, phi, rep.solution, int(config.get("n_test", 50)), seed=seed)
    results = {
        "resolved": {"n_modes": n_modes, "n_steps": n_steps, "phi": phi_name,
                     "solver": dataclasses.asdict(cfg)},
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
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


def run(config_path: str, output: str | None, seed_override: int | None,
        quiet: bool) -> int:
    outdir = Path(output or "pn-report")
    try:
        with open(config_path) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("top level must be a JSON object")
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
        seed = seed_override if seed_override is not None else _seed(config.get("seed", 0))
        payload["seed"] = seed
        if command not in COMMANDS:
            raise ConfigError(f"unknown command: {command!r}")
        code, results, traj = COMMANDS[command](config, seed, outdir)
        payload["results"] = results
        payload["exit_code"] = code
    except ConfigError as exc:
        payload["error"] = str(exc)
        payload["exit_code"] = EXIT_CONFIG
        code, traj = EXIT_CONFIG, None
    except (ValueError, TypeError) as exc:
        payload["error"] = f"invalid parameters: {exc}"
        payload["exit_code"] = EXIT_CONFIG
        code, traj = EXIT_CONFIG, None

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
