"""Nonlocal initial conditions and the shooting solver for u(0) = g(u).

The problem is reduced to the n unknowns of x = u(0): a forward march from x
solves every step's implicit trapezoid equation (directly, with no iteration,
for an f that declares an affine rate), and Newton on R^n drives
x - P g(U(x)) to zero, with the Leray-Schauder homotopy as the fallback.
Existence theory gives no algorithm, so non-convergence is a first-class
reported outcome, never an exception: reports carry a status and the
homotopy stages reached.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field, replace
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
from .galerkin import GalerkinSpace, Matrix, Projection, TimeForm, Vector, stiffness_stack
from .nonlinearity import (ROW_CHUNK, Nonlinearity, _check_agree, _rng, _row_block,
                           apply_superposition, check_affine_rate, check_row_contract,
                           scan_transversality)


@dataclass(frozen=True, eq=False)
class PathLinear:
    """Data of a path-linear condition: ``g(u) = offset + matrix (w^T U)``.

    ``U`` holds the path's nodal values, so ``w^T U = sum_j w_j u(t_j)`` is a
    weighted time integral or a combination of point values of the path.
    ``weights(grid)`` gives the ``(N+1,)`` node weights w; :meth:`node_weights`
    computes them once per grid and keeps them.
    """

    offset: Vector
    matrix: Matrix
    weights: Callable[[TimeGrid], np.ndarray]
    _by_grid: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        offset = np.asarray(self.offset, dtype=float)
        matrix = np.asarray(self.matrix, dtype=float)
        if offset.ndim != 1 or matrix.shape != (offset.size, offset.size):
            raise ValueError("a path-linear condition needs an (n,) offset and an (n, n) matrix")
        if not (np.isfinite(offset).all() and np.isfinite(matrix).all()):
            raise ValueError("offset and matrix must be finite")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "matrix", matrix)

    def node_weights(self, grid: TimeGrid) -> np.ndarray:
        key = (grid.horizon, grid.n_steps)
        if key not in self._by_grid:
            w = np.asarray(self.weights(grid), dtype=float)
            if w.shape != (grid.n_steps + 1,) or not np.isfinite(w).all():
                raise ValueError("weights(grid) must be n_steps + 1 finite node weights")
            self._by_grid[key] = w
        return self._by_grid[key]

    def eval(self, traj: Trajectory) -> Vector:
        return self.offset + (self.node_weights(traj.grid) @ traj.values) @ self.matrix.T

    def shifted(self, mu: float) -> PathLinear:
        """The data of ``v -> g(e^{mu t} v)``: node weights ``w_j e^{mu t_j}``."""
        return PathLinear(self.offset, self.matrix,
                          lambda grid: self.node_weights(grid) * np.exp(mu * grid.nodes))


@dataclass(frozen=True)
class NonlocalCondition:
    """An initial condition depending on the whole path: u(0) = g(u).

    Block contract: ``eval`` maps a :class:`Trajectory` with ``(..., N+1, n)``
    values (one path per leading index; a single path has none) to
    ``(..., n)``, or to one ``(n,)`` row that broadcasts, as a state-free g
    may.  So g reads node j as ``values[..., j, :]`` and integrates in time
    along ``axis=-2``.

    ``path_linear``, when given, declares g path-linear, and ``eval`` must then
    equal its :meth:`PathLinear.eval` (build such a g with :func:`g_path_linear`);
    :class:`NonlocalProblem` enforces this.  The g* estimate and the g-bound
    audits read their closed forms from it instead of sampling paths.

    ``solver_ok`` False marks g unusable for solves: :func:`audit_problem` then
    fails.
    """

    eval: Callable[[Trajectory], Vector]
    path_linear: PathLinear | None = None
    solver_ok: bool = True


def g_path_linear(offset: Vector, matrix: Matrix,
                  weights: Callable[[TimeGrid], np.ndarray]) -> NonlocalCondition:
    """The condition ``g(u) = offset + matrix (w^T U)``, w = ``weights(grid)`` (see
    :class:`PathLinear`), with ``eval`` derived from these data."""
    data = PathLinear(offset, matrix, weights)
    return NonlocalCondition(data.eval, data)


def g_constant(x0: Vector) -> NonlocalCondition:
    """Classical initial data as a degenerate path-dependent condition: w = 0."""
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    return g_path_linear(x0, np.zeros((x0.size, x0.size)),
                         lambda grid: np.zeros(grid.n_steps + 1))


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


def g_mollified_integral(kernel, intervals, traj_space: GalerkinSpace) -> NonlocalCondition:
    """Smoothed time-integral condition: u(0) = sum_i int_{s_i}^{t_i} (kernel (*) u)(t) dt.

    The convolution is a diagonal matrix on basis coordinates, so g is path-linear
    with offset 0.  The intervals must lie in the horizon of every grid g is
    evaluated on.  A kernel whose derivative mass reaches 1 makes g unusable
    for solves (``solver_ok`` False).
    """
    ivals = sorted((float(s), float(t)) for s, t in intervals)
    if any(t1 > s2 for (_, t1), (s2, _) in zip(ivals, ivals[1:])):
        raise ValueError("intervals must be disjoint")
    if any(t < s for s, t in ivals):
        raise ValueError("intervals must be ordered pairs (s, t) with s <= t")

    conv = np.diag(_kernel_cosine_coefficients(kernel, traj_space))

    def weights(grid: TimeGrid) -> np.ndarray:
        if ivals and (ivals[0][0] < -1e-12 or ivals[-1][1] > grid.horizon * (1 + 1e-12)):
            raise ValueError("intervals must lie inside the trajectory horizon")
        return sum((_hat_weights(grid, s, t) for s, t in ivals), np.zeros(grid.n_steps + 1))

    data = PathLinear(np.zeros(traj_space.n_modes), conv, weights)
    return NonlocalCondition(data.eval, data, bool(kernel.derivative_mass < 1.0))


def _gain_sq(space: GalerkinSpace, matrix: Matrix, gram: Matrix) -> float:
    """Squared operator norm of ``matrix`` from the pivot norm to the norm of ``gram``."""
    w = space.inv_sqrt_H @ matrix.T @ gram @ matrix @ space.inv_sqrt_H
    return float(np.linalg.eigvalsh(w).max())


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


def _closed_form_sup(data: PathLinear, norm: Callable[[np.ndarray], np.ndarray], gram: Matrix,
                     radii: np.ndarray, grid: TimeGrid, space: GalerkinSpace) -> np.ndarray:
    """``|offset| + radius ||matrix|| s`` per radius, in the norm ``norm`` of Gram ``gram``,
    with ``s = (sum_j w_j^2 / m_j)^(1/2)`` over the trapezoid masses m.

    By Cauchy-Schwarz, ``|w^T U|_H <= s`` times the paths' trapezoid L2 pivot norm,
    so this bounds ``norm(g(u))`` over paths of that norm at most the radius.  The
    bound is attained when the offset or w is 0, by ``u_j = radius (w_j / m_j) / s v``
    with v the matrix's top pivot-to-``gram`` singular direction.
    """
    w = data.node_weights(grid)
    masses = np.full(w.size, grid.dt)
    masses[[0, -1]] *= 0.5
    gain = math.sqrt(max(_gain_sq(space, data.matrix, gram), 0.0) * np.sum(w**2 / masses))
    sup = norm(data.offset) + radii * gain
    return np.where(np.isnan(sup), math.inf, sup)


def _g_sup(g: NonlocalCondition, energy: bool, radii: np.ndarray, n_samples: int,
           grid: TimeGrid, space: GalerkinSpace, seed, ball: bool = False) -> np.ndarray:
    """Sup of ``|g(u)|`` (energy norm if ``energy``, else pivot norm) over paths of
    L2-in-time pivot norm ``radii[i]`` (at most ``radii[0]`` if ``ball``), per radius.

    A path-linear g gets :func:`_closed_form_sup`; any other g the sampled sup
    of :func:`_sampled_sup` over ``n_samples`` paths, whose norms are the radii
    or, for the ball, drawn uniformly from ``[0, radii[0]]`` before the paths.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    norm, gram = (space.v_norm, space.gram_V) if energy else (space.h_norm, space.gram_H)
    if g.path_linear is not None:
        return _closed_form_sup(g.path_linear, norm, gram, radii, grid, space)
    targets = ((lambda rng: rng.uniform(0.0, radii[0], (1, n_samples))) if ball
               else (lambda rng: radii[:, None]))
    return _sampled_sup(g, norm, n_samples, grid, space, seed, targets)


def _sup_method(g: NonlocalCondition) -> str:
    """How g* and the g-bound margins of ``g`` are obtained: ``closed_form`` for a
    path-linear g, else ``sampled``."""
    return "sampled" if g.path_linear is None else "closed_form"


def audit_g_bound(g: NonlocalCondition, r: float, n_samples: int, grid: TimeGrid,
                  space: GalerkinSpace, seed=0) -> GBoundAudit:
    """Check ``|g(u)|_H < r`` over paths of mean pivot radius r (see :func:`_g_sup`)."""
    margin = r - float(_g_sup(g, False, np.array([r * math.sqrt(grid.horizon)]), n_samples,
                              grid, space, seed)[0])
    return GBoundAudit(passed=bool(margin > 0.0), margin=margin)


def estimate_g_star(g: NonlocalCondition, radius_cap: float, n_samples: int,
                    grid: TimeGrid, space: GalerkinSpace, seed=0) -> float:
    """Sup of ``|g(u)|_V`` over paths with L2-in-time pivot norm <= cap: exact or an upper
    bound for a path-linear g, else sampled (see :func:`_g_sup`)."""
    return float(_g_sup(g, True, np.array([radius_cap]), n_samples, grid, space, seed,
                        ball=True)[0])


@dataclass(frozen=True)
class NonlocalProblem:
    """Bundle of form, nonlinearity, nonlocal condition, grid, and annulus radii.

    ``shift_mu`` records the exponential-substitution rate applied to reach
    this problem (0 when it is stated in the user's frame); trajectories are
    mapped back with :func:`unshift_trajectory`.  When the problem is built,
    before any march, ``f`` must follow the row contract of :class:`Nonlinearity`
    (it is checked at t = 0), a declared ``f.affine_rate`` must hold
    (:func:`check_affine_rate`), g must follow the block contract of
    :class:`NonlocalCondition` on the grid (a g that cannot be evaluated on it,
    say with intervals past its horizon, raises there), and declared
    ``g.path_linear`` data must agree with ``g.eval`` to 1e-12 relative on the
    same probe block of paths.
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
        # a state-free f or g may return one (n,) row, so each is compared broadcast
        check_row_contract(lambda x: np.broadcast_to(self.f.eval(0.0, x), np.shape(x)),
                           n, "(n)->(n)", "f.eval(t, .)")
        if self.f.affine_rate is not None:
            check_affine_rate(self.f, n, grid.horizon)
        core = (grid.n_steps + 1, n)
        check_row_contract(lambda v: np.broadcast_to(self.g.eval(make_trajectory(space, grid, v)),
                                                     np.shape(v)[:-2] + (n,)),
                           core, "(m,n)->(n)", "g.eval")
        if self.g.path_linear is not None:
            paths = make_trajectory(space, grid, _row_block(core))
            _check_agree(np.asarray(self.g.eval(paths), dtype=float),
                         self.g.path_linear.eval(paths),
                         "g.path_linear disagrees with g.eval: on a block of paths")


def audit_problem(prob: NonlocalProblem, n_samples: int = 300, seed=0) -> dict:
    """Run the standing audits: inward-pointing scan, g bound (see :func:`_g_sup`) and g's
    admissibility; ``g_star_method`` says how the g-bound margins were obtained."""
    space = prob.form.space
    t_grid = np.linspace(0.0, prob.grid.horizon, 9)
    scan = scan_transversality(prob.f, prob.r0, prob.R0, max(100, n_samples), t_grid, space,
                               seed=seed)
    cap = prob.R0 if math.isfinite(prob.R0) else 10.0 * prob.r0
    radii, grid = np.geomspace(prob.r0 * 1.0001, cap * 0.9999, 4), prob.grid
    # a sampled g scales one draw of paths to the four radii
    margins = radii - _g_sup(prob.g, False, radii * math.sqrt(grid.horizon),
                             max(20, n_samples // 10), grid, space, seed)
    g_ok = bool((margins > 0.0).all())
    return {
        "transversality": scan,
        "transversality_ok": scan.passed,
        "g_bound_margins": margins.tolist(),
        "g_bound_ok": g_ok,
        "g_star_method": _sup_method(prob.g),
        "g_solver_ok": prob.g.solver_ok,
        "passed": bool(scan.passed and g_ok and prob.g.solver_ok),
    }


@dataclass(frozen=True)
class SolverConfig:
    """Shooting and continuation settings (see :func:`solve_nonlocal`).

    ``inner_tol`` bounds the pivot norm of the shooting residual and
    ``max_inner`` the forward marches per stage.  ``g_star_samples`` paths are
    drawn for g* only when g declares no path-linear data.
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
    """Outcome of a nonlocal solve, converged or not.  ``g_star_method`` is
    ``closed_form`` or ``sampled`` (see :func:`estimate_g_star`)."""

    solution: Trajectory
    fixed_point_residual: float
    lambda_path: tuple
    apriori_lhs: float
    apriori_rhs: float
    converged: bool
    status: str
    g_star: float
    g_star_method: str


# forward-difference step bounds, relative to 1 + |x|_inf, and the shortest backtracked step
_FD_MIN, _FD_MAX, _MIN_STEP = 1.5e-8, 1e-2, 1e-3


class _StageMarch(NamedTuple):
    """What every pass of one homotopy stage marches with: the propagator and, for an
    f that declares an affine rate, the stage's nodal source (None for any other f)."""

    prop: Propagator
    f_values: np.ndarray | None


def _stage_march(prob: NonlocalProblem, lam: float, rest: np.ndarray | None) -> _StageMarch:
    """The march of stage ``lam``; ``rest`` is ``f(t_j, 0) P^T`` at every node when f
    declares an affine rate, else None.

    For ``f(t, x) = f(t, 0) - c x``, the trapezoid rule on ``-lam c P x`` is the
    Cayley step of the stiffness plus ``lam c G_H``: added before projection, the
    reduced form gains ``lam c G_H P``, and the source left is ``lam rest``.
    """
    if rest is None:
        return _StageMarch(build_propagator(prob.form, prob.proj, prob.grid), None)
    stack = stiffness_stack(prob.form, None, prob.grid.midpoints)
    stack += (lam * prob.f.affine_rate) * prob.form.space.gram_H
    return _StageMarch(build_propagator(prob.form, prob.proj, prob.grid, stack=stack),
                       lam * rest)


def _light_s_apply(prob: NonlocalProblem, march: _StageMarch, lam: float,
                   x: Vector) -> np.ndarray:
    # one pass marching u(0) = x, or every row of a 2-D x (see _march); the tracer counts it by name
    if march.f_values is not None:  # f's linear part is in the step factors
        return _march(march.prop, x, march.f_values)
    lam_pt, f = lam * prob.proj.matrix.T, prob.f.eval
    return _march(march.prop, x, None, lambda t, u: np.asarray(f(t, u), dtype=float) @ lam_pt)


class _Halt(Exception):
    """The stage stops; ``args[0]`` is the status."""


def _solve_stage(prob: NonlocalProblem, march: _StageMarch, lam: float, x: Vector,
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
        values = _light_s_apply(prob, march, lam, x)
        r, status = checked(x[None], values[None])  # the k = 1 block
        if status[0]:
            return str(status[0]), None, r[0], math.inf
        return "", make_trajectory(space, prob.grid, values), r[0], float(space.h_norm(r[0]))

    def jacobian(x: Vector, r: Vector, h: float) -> Matrix:
        jac, cols = np.empty((x.size, x.size)), np.arange(x.size)
        for dx in (h, -h):  # columns whose forward row failed go again backwards
            spend(len(cols))
            xs = x + dx * np.eye(x.size)[cols]
            r_cols, status = checked(xs, _light_s_apply(prob, march, lam, xs))
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

    An f that declares ``affine_rate`` c is evaluated only at the state 0, once
    per node and solve (:func:`apply_superposition` on the zero path): each stage
    folds ``lam c`` into its own propagator (see :func:`_stage_march`), and its
    marches take no per-step iteration.  If such an f is not finite at some
    node, that raises ValueError naming the node's t, before any march.
    """
    cfg = cfg or SolverConfig()
    space, grid = prob.form.space, prob.grid
    zero = zero_trajectory(space, grid)
    rest = (None if prob.f.affine_rate is None
            else apply_superposition(prob.f, zero) @ prob.proj.matrix.T)
    march = _stage_march(prob, 1.0, rest)
    sqrt_t = math.sqrt(grid.horizon)

    status, solution, marches, res = "non_finite", zero, 0, math.inf
    try:
        x0 = prob.proj.matrix @ np.asarray(prob.g.eval(zero), dtype=float)
    except (ValueError, FloatingPointError):  # g fails on the zero path: no march at lam = 1
        x0 = np.zeros(space.n_modes)
    else:
        status, _, solution, marches, res = _solve_stage(prob, march, 1.0, x0, zero, cfg)
    lambda_path = [(1.0, marches, res)]
    if status != "converged" and cfg.lambda_steps > 1:
        x, prev = x0, 1.0
        for k in range(1, cfg.lambda_steps + 1):
            lam = k / cfg.lambda_steps
            if rest is not None:  # the folded rate lam c changes with the stage
                march = _stage_march(prob, lam, rest)
            status, x, solution, marches, res = _solve_stage(prob, march, lam, x * (lam / prev),
                                                             solution, cfg)
            lambda_path.append((lam, marches, res))
            if status != "converged":
                break
            prev = lam
    del march, rest  # the step factors and nodal source are not held through the g* sampler

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
                       apriori_rhs=apriori_rhs, converged=converged, status=status, g_star=g_star,
                       g_star_method=_sup_method(prob.g))


def exp_shift(prob: NonlocalProblem, mu: float) -> NonlocalProblem:
    """Exponentially substituted problem: v(t) = exp(-mu t) u(t).

    The pivot shift declared on the form (its quasi-coercivity defect) is
    absorbed into the stiffness; the remainder ``eps = mu - delta`` is folded
    into the nonlinearity, which gains the inward-pointing term ``-eps x`` (a
    declared affine rate c becomes ``c + eps``).
    The condition g is composed with the inverse scaling so fixed points map
    one-to-one (a path-linear g's node weights gain the factors ``e^{mu t_j}``);
    ``mu = 0`` is the identity.
    """
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    if mu == 0.0:
        return replace(prob)
    return replace(prob, **_exp_shift_fields(prob.form, prob.f, prob.g, mu),
                   shift_mu=prob.shift_mu + mu)


def _exp_shift_fields(form: TimeForm, f: Nonlinearity, g: NonlocalCondition, mu: float) -> dict:
    """The ``form``, ``f`` and ``g`` of :func:`exp_shift` for ``mu > 0``, so a problem
    stated in the user's frame can be built shifted, and validated once."""
    space = form.space
    delta = min(form.shift_delta, mu)
    eps = mu - delta

    if delta > 0.0:
        shift = delta * space.gram_H
        new_form = replace(form, stiffness_at=lambda t: form.stiffness_at(t) + shift,
                           bound_M=form.bound_M + delta * space.embed_const**2,
                           shift_delta=form.shift_delta - delta)
    else:
        new_form = form

    def f_hat(t: float, x: Vector) -> Vector:
        scale = math.exp(-mu * t)
        return scale * np.asarray(f.eval(t, x / scale), dtype=float) - eps * x

    new_f = Nonlinearity(eval=f_hat, growth_a=f.growth_a + eps,
                         growth_b=lambda t: math.exp(-mu * t) * f.growth_b(t),
                         affine_rate=None if f.affine_rate is None else f.affine_rate + eps)

    if g.path_linear is not None:  # the weights absorb the scaling
        data = g.path_linear.shifted(mu)
        new_g = replace(g, eval=data.eval, path_linear=data)
    else:
        new_g = replace(g, eval=lambda traj: g.eval(unshift_trajectory(traj, mu)))
    return {"form": new_form, "f": new_f, "g": new_g}


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
