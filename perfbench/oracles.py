"""Correctness gates for the workloads' outputs, run outside the timed region.

Each gate reads the files a command wrote and returns a list of failure
messages (empty when the outputs are right).  The oracles are independent
of the solver loop they check:

* ``heat-mollified``: the problem is affine after the exponential shift, so
  its discrete fixed point solves ``(I - L) w = c`` with ``c = S(0)`` and
  ``L w = S(w) - c``.  GMRES on that system, with the stage map built from
  the public API, gives the path the continuation solver must reach.
* ``evi-huber`` and ``converge-reduction``: values recorded by
  ``record_reference.py`` at the commit that introduced the benchmark.
* ``converge-reduction`` also: the study's sup errors sit at t = 0, where
  they equal the discarded tail of the initial data, so they cannot see the
  time stepping.  The reference flow the command computes is therefore
  checked against the closed-form midpoint-Cayley products: kappa depends on
  t only, so the sine basis diagonalises the stiffness.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
PATH_TOL = 1e-6
CONVERGE_REL_TOL = 1e-6
CONVERGE_FINEST_MAX = 1e-6
FLOW_TOL = 1e-10


def read_path(outdir: Path, n_modes: int) -> np.ndarray:
    """Coordinates of ``trajectory.csv`` as an (n_steps + 1, n_modes) array."""
    table = np.loadtxt(outdir / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    return table[:, 1:1 + n_modes]


def _gmres_fixed_point(n_modes: int, n_steps: int) -> tuple[np.ndarray, int]:
    from scipy.sparse.linalg import LinearOperator, gmres

    import parabolic_nonlocal as pn

    prob = pn.preset_heat_timevarying(n_modes, n_steps)
    space, grid, proj = prob.form.space, prob.grid, prob.proj
    prop = pn.build_propagator(prob.form, proj, grid)
    shape = (grid.n_steps + 1, space.n_modes)
    p = proj.matrix

    def stage_map(flat: np.ndarray) -> np.ndarray:
        path = pn.make_trajectory(space, grid, flat.reshape(shape))
        x0 = p @ np.asarray(prob.g.eval(path), dtype=float)
        f_vals = np.array([prob.f.eval(float(t), path.values[j])
                           for j, t in enumerate(grid.nodes)])
        out = pn.duhamel_solve(prob.form, proj, grid, x0, f_vals @ p.T, propagator=prop)
        return out.values.ravel()

    size = shape[0] * shape[1]
    c = stage_map(np.zeros(size))
    op = LinearOperator((size, size), matvec=lambda v: v - (stage_map(v) - c), dtype=float)
    w, info = gmres(op, c, rtol=1e-13, atol=0.0, restart=60, maxiter=3)
    return w.reshape(shape), info


def _cayley_flow_gap(config: dict) -> float:
    """Largest gap between the command's reference flow, rebuilt with the public
    API, and the closed form of the scheme.  Mirrors the config resolution of
    ``converge`` for coefficient ``time_power_06`` (1 + t^0.6 / 2), domain
    length pi, horizon 1, quad order 6 and initial data ``smooth``."""
    import parabolic_nonlocal as pn

    n = config["form"]["n_modes"]
    space = pn.build_sine_space(n, math.pi)
    form = pn.divergence_form_assemble(pn.time_power_coefficient(1.0, 0.5, 0.6), space, 6, 1.0)
    grid = pn.TimeGrid(1.0, config["n_steps"])
    x = np.exp(-np.arange(1, n + 1, dtype=float))
    path = pn.propagate(form, None, grid, x).values
    t_mid = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    eig = (1.0 + 0.5 * t_mid**0.6)[:, None] * (np.arange(1, n + 1, dtype=float) ** 2)[None, :]
    factors = (1.0 - 0.5 * grid.dt * eig) / (1.0 + 0.5 * grid.dt * eig)
    exact = x * np.vstack([np.ones(n), np.cumprod(factors, axis=0)])
    return float(np.abs(path - exact).max())


def check_heat(outdir: Path, report: dict, workload: dict) -> list[str]:
    res = report.get("results", {})
    problem, solver = workload["config"]["problem"], workload["config"]["solver"]
    fails = []
    if not res.get("converged"):
        fails.append("solve did not converge")
    if not res.get("fixed_point_residual", math.inf) <= solver["inner_tol"]:
        fails.append(f"fixed_point_residual {res.get('fixed_point_residual')} > inner_tol")
    if not res.get("audits", {}).get("passed"):
        fails.append("hypothesis audits failed")
    if not res.get("annulus_energy_ok"):
        fails.append("annulus energy check failed")
    w, info = _gmres_fixed_point(problem["n_modes"], problem["n_steps"])
    if info != 0:
        fails.append(f"GMRES oracle did not converge (info={info})")
    gap = float(np.abs(read_path(outdir, problem["n_modes"]) - w).max())
    if not gap <= PATH_TOL:
        fails.append(f"path differs from the GMRES fixed point by {gap:.3e}")
    return fails


def check_evi(outdir: Path, report: dict, workload: dict) -> list[str]:
    res = report.get("results", {})
    fails = []
    if not res.get("converged"):
        fails.append("solve did not converge")
    if not res.get("evi_ok"):
        fails.append("variational-inequality residual out of tolerance")
    ref = np.load(REFERENCE_DIR / "evi_huber_path.npy")
    path = read_path(outdir, workload["config"]["n_modes"])
    if path.shape != ref.shape:
        fails.append(f"path shape {path.shape} != reference {ref.shape}")
    else:
        gap = float(np.abs(path - ref).max())
        if not gap <= PATH_TOL:
            fails.append(f"path differs from the reference by {gap:.3e}")
    return fails


def check_converge(outdir: Path, report: dict, workload: dict) -> list[str]:
    study = report.get("results", {}).get("study", [])
    ref = json.loads((REFERENCE_DIR / "converge_errors.json").read_text())
    fails = []
    if [m for m, _ in study] != workload["config"]["m_list"]:
        return [f"study covers m={[m for m, _ in study]}"]
    errs = [e for _, e in study]
    if any(a < b for a, b in zip(errs, errs[1:])):
        fails.append(f"errors increase with m: {errs}")
    if not errs[-1] < CONVERGE_FINEST_MAX:
        fails.append(f"m={study[-1][0]} error {errs[-1]:.3e} >= {CONVERGE_FINEST_MAX}")
    for (m, e), r in zip(study, ref["sup_errors"]):
        if not abs(e - r) <= CONVERGE_REL_TOL * abs(r):
            fails.append(f"m={m} error {e!r} differs from reference {r!r}")
    csv_rows = (outdir / "convergence.csv").read_text().split()[1:]
    if csv_rows != [f"{m},{e!r}" for m, e in study]:
        fails.append("convergence.csv does not match report.json")
    gap = _cayley_flow_gap(workload["config"])
    if not gap <= FLOW_TOL:
        fails.append(f"reference flow differs from the closed-form Cayley flow by {gap:.3e}")
    return fails
