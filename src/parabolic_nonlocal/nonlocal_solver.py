"""Nonlocal initial conditions and the shooting solver for u(0) = g(u).

The problem is reduced to the n unknowns of x = u(0): a forward march from x
solves every step's implicit trapezoid equation, and Newton on R^n drives
x - P g(U(x)) to zero, with the Leray-Schauder homotopy as the fallback.
Existence theory gives no algorithm, so non-convergence is a first-class
reported outcome, never an exception: reports carry a status and the
homotopy stages reached.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .evolution import (
    Propagator,
    TimeGrid,
    Trajectory,
    _l2,
    _march,
    build_propagator,
    make_trajectory,
    regularity_norm,
    zero_trajectory,
)
from .galerkin import GalerkinSpace, Matrix, Projection, TimeForm, Vector
from .nonlinearity import (ROW_CHUNK, Nonlinearity, _rng, apply_superposition,
                           check_row_contract, scan_transversality)


@dataclass(frozen=True)
class NonlocalCondition:
    """An initial condition depending on the whole path: u(0) = g(u).

    Block contract: ``eval`` maps a :class:`Trajectory` with ``(..., N+1, n)``
    values (one path per leading index; a single path has none) to
    ``(..., n)``, or to one ``(n,)`` row that broadcasts, as a state-free g
    may.  So g reads node j as ``values[..., j, :]`` and integrates in time
    along ``axis=-2``.
    """

    eval: Callable[[Trajectory], Vector]
    kind: str
    bound_params: dict


def g_constant(x0: Vector) -> NonlocalCondition:
    """Classical initial data as a degenerate path-dependent condition."""
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    return NonlocalCondition(eval=lambda traj: x0.copy(), kind="constant", bound_params={})


def _hat_weights(grid: TimeGrid, a: float, b: float) -> np.ndarray:
    """Exact integrals over [a, b] of the grid's hat functions, one per node.

    The hat at t_j has antiderivative ``dt * Phi((x - t_j) / dt)`` with
    Phi(s) = (1 + s)^2 / 2 on [-1, 0] and 1 - (1 - s)^2 / 2 on [0, 1], s clipped
    to [-1, 1]; the half hats at the end nodes come out exact too because the
    endpoints are clamped into [0, T].  The integral of the piecewise-linear
    path over [a, b] is then ``weights @ values``.
    """

    def antiderivative(x: float) -> np.ndarray:
        s = np.clip((min(max(x, 0.0), grid.horizon) - grid.nodes) / grid.dt, -1.0, 1.0)
        return np.where(s <= 0.0, 0.5 * (1.0 + s) ** 2, 1.0 - 0.5 * (1.0 - s) ** 2)

    return grid.dt * (antiderivative(b) - antiderivative(a))


def _kernel_cosine_coefficients(kernel, space: GalerkinSpace) -> np.ndarray:
    """Cosine transform of the kernel at the basis wavenumbers.

    Convolving a Dirichlet sine mode with an even kernel multiplies the mode
    by the kernel's cosine transform at the mode's wavenumber, so the
    convolution acts diagonally in sine coordinates.
    """
    a = kernel.support_radius
    length = space.domain_length
    # panels resolve the fastest oscillation over the support
    panels = max(16, int(math.ceil(8.0 * a * space.n_modes / length)))
    q_nodes, q_weights = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(-a, a, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    ys = (mid[:, None] + half[:, None] * q_nodes).ravel()
    ws = (half[:, None] * q_weights).ravel()
    profile = np.asarray(kernel.profile(ys), dtype=float)
    k = np.arange(1, space.n_modes + 1)
    return np.cos(np.outer(k, ys) * math.pi / length) @ (ws * profile)


def _check_span(span: tuple[float, float] | None, horizon: float) -> None:
    if span is not None and (span[0] < -1e-12 or span[1] > horizon * (1 + 1e-12)):
        raise ValueError("intervals must lie inside the trajectory horizon")


def g_mollified_integral(kernel, intervals, traj_space: GalerkinSpace) -> NonlocalCondition:
    """Smoothed time-integral condition: u(0) = sum_i int_{s_i}^{t_i} (kernel (*) u)(t) dt.

    The convolution is a matrix on basis coordinates; its squared pivot-to-energy
    operator norm ``theta`` is the audited smoothing bound, with
    ``|g(u)|_V^2 <= theta * int |u(t)|_H^2 dt`` for total interval length <= 1.
    Kernels whose derivative mass reaches 1 are flagged unusable for solves.
    """
    ivals = sorted((float(s), float(t)) for s, t in intervals)
    if any(t1 > s2 for (_, t1), (s2, _) in zip(ivals, ivals[1:])):
        raise ValueError("intervals must be disjoint")
    if any(t < s for s, t in ivals):
        raise ValueError("intervals must be ordered pairs (s, t) with s <= t")

    coeffs = _kernel_cosine_coefficients(kernel, traj_space)
    conv = np.diag(coeffs)
    w = traj_space.inv_sqrt_H @ conv.T @ traj_space.gram_V @ conv @ traj_space.inv_sqrt_H
    theta = float(np.linalg.eigvalsh(w).max())
    span = (ivals[0][0], ivals[-1][1]) if ivals else None

    def eval_g(traj: Trajectory) -> Vector:
        _check_span(span, traj.grid.horizon)
        w = sum((_hat_weights(traj.grid, s, t) for s, t in ivals), np.zeros(traj.grid.n_steps + 1))
        return (w @ traj.values) * coeffs  # conv is diagonal

    return NonlocalCondition(
        eval=eval_g,
        kind="mollified_integral",
        bound_params={
            "theta": theta,
            "derivative_mass": float(kernel.derivative_mass),
            "interval_length": float(sum(t - s for s, t in ivals)),
            "interval_span": span,
            "solver_ok": bool(kernel.derivative_mass < 1.0),
        },
    )


class GBoundAudit(NamedTuple):
    passed: bool
    margin: float


def _sampled_sup(g: NonlocalCondition, norm: Callable[[np.ndarray], np.ndarray], n_samples: int,
                 grid: TimeGrid, space: GalerkinSpace, seed,
                 targets: Callable[[np.random.Generator], np.ndarray]) -> np.ndarray:
    """Largest ``norm(g(u))`` over sampled paths u, per row of ``targets(rng)``; a
    non-finite norm counts as +inf, so a g that returns NaN fails every bound.

    The targets are drawn first, as ``(m, 1)`` or ``(m, n_samples)`` L2-in-time
    pivot norms: path i has standard normal coordinates scaled to norm
    ``targets[:, i]``.  Paths are drawn and passed to g in blocks of at most
    ``ROW_CHUNK`` nodes; the draws equal drawing one path at a time.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = _rng(seed)
    targets = targets(rng)
    targets = np.broadcast_to(targets, (len(targets), n_samples))
    per, worst = max(1, ROW_CHUNK // (grid.n_steps + 1)), np.zeros(len(targets))
    for start in range(0, n_samples, per):
        vals = rng.standard_normal((min(per, n_samples - start), grid.n_steps + 1, space.n_modes))
        l2_h = np.maximum(_l2(space.h_norm(vals)**2, grid.dt), 1e-300)
        for i, target in enumerate(targets[:, start:start + len(vals)]):
            # the last target scales the draw in place, so a block holds one fewer copy
            scaled = np.multiply(vals, (target / l2_h)[:, None, None],
                                 out=vals if i == len(targets) - 1 else None)
            g_u = g.eval(make_trajectory(space, grid, scaled))
            norms = norm(np.asarray(g_u, dtype=float))
            worst[i] = np.where(np.isnan(norms), math.inf, norms).max(initial=worst[i])
    return worst


def audit_g_bound(g: NonlocalCondition, r: float, n_samples: int, grid: TimeGrid,
                  space: GalerkinSpace, seed=0) -> GBoundAudit:
    """Sample paths of mean pivot radius r and check ``|g(u)|_H < r``."""
    margin = r - float(_sampled_sup(g, space.h_norm, n_samples, grid, space, seed,
                                    lambda rng: np.array([[r * math.sqrt(grid.horizon)]]))[0])
    return GBoundAudit(passed=bool(margin > 0.0), margin=margin)


def estimate_g_star(g: NonlocalCondition, radius_cap: float, n_samples: int,
                    grid: TimeGrid, space: GalerkinSpace, seed=0) -> float:
    """Sampled sup of ``|g(u)|_V`` over paths with L2-in-time pivot norm <= cap; the
    paths' norms are drawn uniformly from [0, cap], before the paths."""
    return float(_sampled_sup(g, space.v_norm, n_samples, grid, space, seed,
                              lambda rng: rng.uniform(0.0, radius_cap, (1, n_samples)))[0])


@dataclass(frozen=True)
class NonlocalProblem:
    """Bundle of form, nonlinearity, nonlocal condition, grid, and annulus radii.

    ``shift_mu`` records the exponential-substitution rate applied to reach
    this problem (0 when it is stated in the user's frame); trajectories are
    mapped back with :func:`unshift_trajectory`.  When the problem is built,
    before any march, g's recorded ``interval_span`` must lie in the grid's
    horizon, ``f`` must follow the row contract of :class:`Nonlinearity` (it
    is checked at t = 0) and g the block contract of :class:`NonlocalCondition`.
    """

    form: TimeForm
    proj: Projection
    f: Nonlinearity
    g: NonlocalCondition
    grid: TimeGrid
    r0: float
    R0: float
    shift_mu: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.r0 < self.R0:
            raise ValueError("need 0 < r0 < R0")
        space, grid, n = self.form.space, self.grid, self.form.space.n_modes
        if grid.horizon > self.form.horizon * (1.0 + 1e-12):
            raise ValueError("grid horizon exceeds the form's horizon")
        _check_span(self.g.bound_params.get("interval_span"), grid.horizon)
        # a state-free f or g may return one (n,) row, so each is compared broadcast
        check_row_contract(lambda x: np.broadcast_to(self.f.eval(0.0, x), np.shape(x)),
                           n, "(n)->(n)", "f.eval(t, .)")
        check_row_contract(lambda v: np.broadcast_to(self.g.eval(make_trajectory(space, grid, v)),
                                                     np.shape(v)[:-2] + (n,)),
                           (grid.n_steps + 1, n), "(m,n)->(n)", "g.eval")


def audit_problem(prob: NonlocalProblem, n_samples: int = 300, seed=0) -> dict:
    """Run the standing audits: inward-pointing scan, g-bound sampling and g's admissibility."""
    space = prob.form.space
    t_grid = np.linspace(0.0, prob.grid.horizon, 9)
    scan = scan_transversality(prob.f, prob.r0, prob.R0, max(100, n_samples), t_grid, space,
                               seed=seed)
    cap = prob.R0 if math.isfinite(prob.R0) else 10.0 * prob.r0
    radii, grid = np.geomspace(prob.r0 * 1.0001, cap * 0.9999, 4), prob.grid
    # the four radii share one draw of paths, scaled to each
    margins = radii - _sampled_sup(prob.g, space.h_norm, max(20, n_samples // 10), grid, space,
                                   seed, lambda rng: radii[:, None] * math.sqrt(grid.horizon))
    g_ok = bool((margins > 0.0).all())
    # a kernel whose derivative mass reaches 1 makes g inadmissible for solves
    solver_ok = prob.g.bound_params.get("solver_ok") is not False
    return {
        "transversality": scan,
        "transversality_ok": scan.passed,
        "g_bound_margins": margins.tolist(),
        "g_bound_ok": g_ok,
        "g_solver_ok": solver_ok,
        "passed": bool(scan.passed and g_ok and solver_ok),
    }


def homotopy_map(prob: NonlocalProblem, lam: float, w: Trajectory,
                 propagator: Propagator | None = None) -> Trajectory:
    """One application of the data-to-solution map at homotopy stage ``lam``.

    Solves the linear problem with initial value ``lam P g(w)`` and source
    ``lam P f(t, w(t))``; stage 0 returns the zero path.  Its fixed points are
    the paths :func:`solve_nonlocal` finds at that stage.
    """
    if w.grid.n_steps != prob.grid.n_steps or w.grid.horizon != prob.grid.horizon:
        raise ValueError("iterate lives on the wrong grid")
    prop = propagator if propagator is not None else build_propagator(prob.form, prob.proj,
                                                                      prob.grid)
    p = prob.proj.matrix
    vals = _march(prop, lam * (p @ np.asarray(prob.g.eval(w), dtype=float)),
                  lam * (apply_superposition(prob.f, w) @ p.T))
    return make_trajectory(prob.form.space, prob.grid, vals)


@dataclass(frozen=True)
class SolverConfig:
    """Shooting and continuation settings (see :func:`solve_nonlocal`).

    ``inner_tol`` bounds the pivot norm of the shooting residual and
    ``max_inner`` the forward marches per stage.
    """

    lambda_steps: int = 10
    inner_tol: float = 1e-8
    max_inner: int = 500
    fp_tol: float | None = None
    g_star_samples: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("lambda_steps", 1), ("max_inner", 1), ("g_star_samples", 1),
                          ("inner_tol", 0.0), ("fp_tol", 0.0)):
            value = getattr(self, name)
            if value is not None and not value >= low:  # NaN fails too
                raise ValueError(f"{name} must be at least {low}, got {value!r}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a nonlocal solve, converged or not."""

    solution: Trajectory
    fixed_point_residual: float
    lambda_path: tuple
    apriori_lhs: float
    apriori_rhs: float
    converged: bool
    status: str
    g_star: float


# forward-difference step bounds, relative to 1 + |x|_inf, and the shortest backtracked step
_FD_MIN, _FD_MAX, _MIN_STEP = 1.5e-8, 1e-2, 1e-3


def _light_s_apply(prob: NonlocalProblem, prop: Propagator, lam: float, x: Vector) -> np.ndarray:
    # one pass marching u(0) = x, or every row of a 2-D x (see _march); the tracer counts it by name
    lam_pt, f = lam * prob.proj.matrix.T, prob.f.eval
    return _march(prop, x, None, lambda t, u: np.asarray(f(t, u), dtype=float) @ lam_pt)


class _Halt(Exception):
    """The stage stops; ``args[0]`` is the status."""


def _solve_stage(prob: NonlocalProblem, prop: Propagator, lam: float, x: Vector,
                 path: Trajectory, cfg: SolverConfig) -> tuple:
    """Drive ``r(x) = x - lam P g(U(x))`` to zero from ``x``; ``U(x)`` marches from u(0) = x.

    Newton uses a forward-difference Jacobian, kept while steps halve the
    residual, and backtracks.  The Jacobian's n marches run as one block pass
    of ``[x + h e_1; ...; x + h e_n]``; a column whose row fails is marched
    again backwards, also as one block.  Every march, the start's too, is read
    as a block: a row fails ``non_finite`` when its march came back NaN (a step
    equation turned non-finite or stayed unsolved) or g fails on its path, and
    ``boundary_hit`` when its path reaches ``R0``.  At most ``max_inner`` paths
    are marched.  A failed march at a trial point has an infinite residual, so
    the step is halved; a failed march at the starting point ends the stage
    with its status.  Returns ``(status, x, path, marches, residual)`` of the
    last accepted iterate (``path`` and an infinite residual if none was).
    """
    p, space, marches = prob.proj.matrix, prob.form.space, 0

    def spend(k: int) -> None:  # k more marched paths, within max_inner
        nonlocal marches
        if marches + k > cfg.max_inner:
            raise _Halt("max_iterations")
        marches += k

    def checked(xs: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residual rows of a (k, n) block of starts marched into ``values``, and each
        row's status, '' if usable.  A NaN row (a flagged march) never reaches g, and
        a g that raises fails every row of its block."""
        r, radius = np.full(xs.shape, np.nan), np.full(len(xs), np.nan)
        marched = np.isfinite(values).all(axis=(1, 2))
        if marched.any():
            paths = make_trajectory(space, prob.grid, values if marched.all() else values[marched])
            radius[marched] = paths.mean_radius
            with suppress(ValueError, FloatingPointError):
                r[marched] = xs[marched] - lam * (np.asarray(prob.g.eval(paths), dtype=float) @ p.T)
        return r, np.where(~np.isfinite(r).all(axis=1), "non_finite",
                           np.where(radius >= prob.R0, "boundary_hit", ""))

    def shoot(x: Vector) -> tuple[str, Trajectory | None, Vector, float]:
        """Status ('' if usable), path, residual and residual norm of the march from
        ``x``; the norm is inf when the march failed."""
        spend(1)
        values = _light_s_apply(prob, prop, lam, x)
        r, status = checked(x[None], values[None])  # the k = 1 block
        if status[0]:
            return str(status[0]), None, r[0], math.inf
        return "", make_trajectory(space, prob.grid, values), r[0], float(space.h_norm(r[0]))

    def jacobian(x: Vector, r: Vector, h: float) -> Matrix:
        jac, cols = np.empty((x.size, x.size)), np.arange(x.size)
        for dx in (h, -h):  # columns whose forward row failed go again backwards
            spend(len(cols))
            xs = x + dx * np.eye(x.size)[cols]
            r_cols, status = checked(xs, _light_s_apply(prob, prop, lam, xs))
            done = status == ""
            jac[:, cols[done]] = ((r_cols[done] - r) / dx).T
            cols = cols[~done]
            if not cols.size:
                return jac
        raise _Halt("max_iterations")

    res, jac = math.inf, None
    try:
        status, start, r, res = shoot(x)
        if status:
            raise _Halt(status)
        path = start
        while res > cfg.inner_tol:
            fresh = jac is None
            if fresh:
                scale = 1.0 + float(np.abs(x).max())
                jac = jacobian(x, r, min(max(float(np.abs(r).max()), _FD_MIN * scale),
                                         _FD_MAX * scale))
            step, t = np.linalg.lstsq(jac, -r, rcond=None)[0], 1.0
            trial = shoot(x + step)
            while trial[3] > (1.0 - 1e-4 * t) * res and t > _MIN_STEP:
                t *= 0.5
                trial = shoot(x + t * step)
            if trial[3] > (1.0 - 1e-4 * t) * res:
                if fresh:
                    raise _Halt("max_iterations")
                jac = None
                continue
            jac = jac if trial[3] <= 0.5 * res else None
            x, (_, path, r, res) = x + t * step, trial
    except _Halt as halt:
        return halt.args[0], x, path, marches, res
    return "converged", x, path, marches, res


def solve_nonlocal(prob: NonlocalProblem, cfg: SolverConfig | None = None) -> SolveReport:
    """Solve u(0) = g(u) by shooting on u(0), with continuation as the fallback.

    The unknown is x = u(0) in R^n: the forward march ``U(x)`` solves every
    step's trapezoid equation, and Newton drives ``r(x) = x - P g(U(x))`` to
    zero from ``x0 = P g(0)``: a constant g takes one march, an affine problem
    three passes (the start, the Jacobian's n rows as one block, the step).
    Only if that fails do the Leray-Schauder stages ``lam = k / lambda_steps``
    run, each warm-started from the last (the first from zero if g fails on the
    zero path).  ``lambda_path`` holds ``(lam, marches, residual)`` per stage.
    Statuses: ``converged``, ``max_iterations`` (march budget spent or no
    descent), ``boundary_hit`` (an iterate's path reached the outer radius,
    contradicting the standing annulus bound), ``non_finite`` (a starting
    step equation turned non-finite or was not solved, a residual is not
    finite, or g fails on the zero path).  A condition that fails on the grid
    raises ValueError from the g* estimate; an error raised by f propagates.
    """
    cfg = cfg or SolverConfig()
    space, grid = prob.form.space, prob.grid
    prop = build_propagator(prob.form, prob.proj, grid)
    sqrt_t = math.sqrt(grid.horizon)

    zero = zero_trajectory(space, grid)
    status, solution, marches, res = "non_finite", zero, 0, math.inf
    try:
        x0 = prob.proj.matrix @ np.asarray(prob.g.eval(zero), dtype=float)
    except (ValueError, FloatingPointError):  # g fails on the zero path: no march at lam = 1
        x0 = np.zeros(space.n_modes)
    else:
        status, _, solution, marches, res = _solve_stage(prob, prop, 1.0, x0, zero, cfg)
    lambda_path = [(1.0, marches, res)]
    if status != "converged" and cfg.lambda_steps > 1:
        x, prev = x0, 1.0
        for k in range(1, cfg.lambda_steps + 1):
            lam = k / cfg.lambda_steps
            status, x, solution, marches, res = _solve_stage(prob, prop, lam, x * (lam / prev),
                                                             solution, cfg)
            lambda_path.append((lam, marches, res))
            if status != "converged":
                break
            prev = lam

    try:
        g_u = np.asarray(prob.g.eval(solution), dtype=float)
        fp_residual = space.h_norm(solution.values[0] - g_u)
    except (ValueError, FloatingPointError):
        fp_residual = math.inf

    g_star = estimate_g_star(prob.g, prob.r0 * sqrt_t, cfg.g_star_samples, grid,
                             space, seed=cfg.seed)
    b_vals = np.array([prob.f.growth_b(float(t)) for t in grid.nodes])
    b_l2 = _l2(b_vals**2, grid.dt)
    apriori_rhs = 2.0 * max(prob.f.growth_a * prob.r0 * sqrt_t, b_l2) + g_star
    apriori_lhs = regularity_norm(prob.form, prob.proj, solution)

    fp_tol = cfg.fp_tol if cfg.fp_tol is not None else cfg.inner_tol
    converged = bool(status == "converged" and fp_residual <= fp_tol
                     and solution.mean_radius < prob.R0)
    return SolveReport(solution=solution, fixed_point_residual=fp_residual,
                       lambda_path=tuple(lambda_path), apriori_lhs=apriori_lhs,
                       apriori_rhs=apriori_rhs, converged=converged, status=status, g_star=g_star)


def exp_shift(prob: NonlocalProblem, mu: float) -> NonlocalProblem:
    """Exponentially substituted problem: v(t) = exp(-mu t) u(t).

    The pivot shift declared on the form (its quasi-coercivity defect) is
    absorbed into the stiffness; the remainder ``eps = mu - delta`` is folded
    into the nonlinearity, which gains the inward-pointing term ``-eps x``.
    The condition g is composed with the inverse scaling so fixed points map
    one-to-one; ``mu = 0`` is the identity.
    """
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    if mu == 0.0:
        return replace(prob)
    form, space = prob.form, prob.form.space
    delta = min(form.shift_delta, mu)
    eps = mu - delta

    if delta > 0.0:
        shift = delta * space.gram_H
        new_form = replace(form, stiffness_at=lambda t: form.stiffness_at(t) + shift,
                           bound_M=form.bound_M + delta * space.embed_const**2,
                           shift_delta=form.shift_delta - delta)
    else:
        new_form = form

    f = prob.f

    def f_hat(t: float, x: Vector) -> Vector:
        scale = math.exp(-mu * t)
        return scale * np.asarray(f.eval(t, x / scale), dtype=float) - eps * x

    new_f = Nonlinearity(eval=f_hat, growth_a=f.growth_a + eps,
                         growth_b=lambda t: math.exp(-mu * t) * f.growth_b(t),
                         label=f.label + f"+shift({mu:g})")

    g = prob.g
    new_g = replace(g, eval=lambda traj: g.eval(unshift_trajectory(traj, mu)))
    return replace(prob, form=new_form, f=new_f, g=new_g, shift_mu=prob.shift_mu + mu)


def unshift_trajectory(traj: Trajectory, mu: float) -> Trajectory:
    """Map a substituted path back to the user frame: u(t) = exp(mu t) v(t)."""
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    scaled = traj.values * np.exp(mu * traj.grid.nodes)[:, None]
    return make_trajectory(traj.space, traj.grid, scaled)


def annulus_energy_check(traj: Trajectory, r0: float, R0: float,
                         tol_coeff: float = 10.0) -> bool:
    """No pivot-norm growth along any stretch of the path inside the annulus.

    The permitted slack is first order in the time step.  Paths that never
    enter the annulus pass vacuously.
    """
    tol, h = tol_coeff * traj.grid.dt, traj.h_norms
    # each inside stretch h[a:b] is compared with its own running minimum
    edges = np.flatnonzero(np.diff((h > r0) & (h < R0), prepend=False, append=False))
    return not any((h[a + 1:b] > np.minimum.accumulate(h[a:b - 1]) + tol).any()
                   for a, b in zip(edges[::2], edges[1::2]))
