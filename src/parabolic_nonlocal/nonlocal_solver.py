"""Nonlocal initial conditions and the shooting solver for u(0) = g(u).

The problem is reduced to the n unknowns of x = u(0): a forward march from x
solves every step's implicit trapezoid equation (directly, with no iteration,
for an f that declares affine data), and Newton on R^n drives
x - P g(U(x)) to zero, with the Leray-Schauder homotopy as the fallback.
When f declares affine data and g path-linear data, that map is affine in x,
and Newton's first step is exact: one block pass of n + 1 rows gives the
Jacobian, one n x n solve the root, and the solution path is a combination
of the marched rows.
The bound g* of the a priori estimate is a closed form of g's path-linear data,
and inf for a g that declares none.
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
from .galerkin import (GalerkinSpace, Matrix, Projection, TimeForm, Vector, _gauss_panels,
                       stiffness_stack)
from .nonlinearity import Nonlinearity, check_row_contract, f_affine, scan_transversality

MAX_KERNEL_NODES = 100_000  # quadrature nodes of one kernel cosine transform

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

    ``path_linear``, when given, declares g path-linear, and the data then define
    g: ``eval`` must be ``path_linear.eval``, as :func:`g_path_linear` builds it,
    or construction raises ValueError.  The g* estimate and the g-bound audits
    read their closed forms from the data; a g without them has g* = inf and
    fails the g-bound audit, as nothing bounds it.

    ``solver_ok`` False marks g unusable for solves: :func:`audit_problem` then
    fails.
    """

    eval: Callable[[Trajectory], Vector]
    path_linear: PathLinear | None = None
    solver_ok: bool = True

    def __post_init__(self) -> None:
        if self.path_linear is not None and self.eval != self.path_linear.eval:
            raise ValueError("declared path_linear data define g: eval must be path_linear.eval; "
                             "build a g with path-linear data with g_path_linear(offset, matrix, "
                             "weights)")


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
    convolution acts diagonally in sine coordinates.  It takes 10 Gauss nodes on each
    of ``max(16, ceil(8 a n / L))`` panels, and more than ``MAX_KERNEL_NODES`` raise a
    ValueError naming the width before anything is allocated.  The ``(modes, nodes)``
    cosine table is built and contracted in blocks of a multiple of 8 modes, at most
    2^20 entries each (8 modes at least), so its memory stays bounded at the node cap.
    """
    a = kernel.support_radius
    length = space.domain_length
    # panels resolve the fastest oscillation over the support
    panels = 8.0 * a * space.n_modes / length
    if not panels <= MAX_KERNEL_NODES // 10:  # an overflowed inf fails too
        raise ValueError(f"width {a!r} is too large: the cosine transform at {space.n_modes} "
                         f"modes on length {length!r} needs over {MAX_KERNEL_NODES} nodes")
    ys, ws = _gauss_panels(-a, a, max(16, math.ceil(panels)), 10)
    weighted = ws * np.asarray(kernel.profile(ys), dtype=float)
    k = np.arange(1, space.n_modes + 1)
    block = max(8, (2**20 // ys.size) // 8 * 8)
    return np.concatenate([np.cos(np.outer(k[i:i + block], ys) * math.pi / length) @ weighted
                           for i in range(0, k.size, block)])


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


class GBoundAudit(NamedTuple):
    passed: bool
    margin: float


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
    # squared operator norm of the matrix from the pivot norm to the norm of gram
    gain_sq = np.linalg.eigvalsh(
        space.inv_sqrt_H @ data.matrix.T @ gram @ data.matrix @ space.inv_sqrt_H).max()
    gain = math.sqrt(max(float(gain_sq), 0.0) * np.sum(w**2 / masses))
    sup = norm(data.offset) + radii * gain
    return np.where(np.isnan(sup), math.inf, sup)


def _g_sup(g: NonlocalCondition, energy: bool, radii: np.ndarray, grid: TimeGrid,
           space: GalerkinSpace) -> np.ndarray:
    """Sup of ``|g(u)|`` (energy norm if ``energy``, else pivot norm) over paths of
    L2-in-time pivot norm at most ``radii[i]``, per radius: :func:`_closed_form_sup`
    for a path-linear g, and +inf for any other g, which is not called, since
    nothing bounds it."""
    if g.path_linear is None:
        return np.full(len(radii), math.inf)
    norm, gram = (space.v_norm, space.gram_V) if energy else (space.h_norm, space.gram_H)
    return _closed_form_sup(g.path_linear, norm, gram, radii, grid, space)


def audit_g_bound(g: NonlocalCondition, r: float, grid: TimeGrid,
                  space: GalerkinSpace) -> GBoundAudit:
    """Check ``|g(u)|_H < r`` over paths of mean pivot radius r (see :func:`_g_sup`)."""
    margin = r - float(_g_sup(g, False, np.array([r * math.sqrt(grid.horizon)]), grid, space)[0])
    return GBoundAudit(passed=bool(margin > 0.0), margin=margin)


def estimate_g_star(g: NonlocalCondition, radius_cap: float, grid: TimeGrid,
                    space: GalerkinSpace) -> float:
    """Sup of ``|g(u)|_V`` over paths with L2-in-time pivot norm <= cap: exact or an upper
    bound for a path-linear g, +inf for any other g (see :func:`_g_sup`)."""
    return float(_g_sup(g, True, np.array([radius_cap]), grid, space)[0])


@dataclass(frozen=True)
class NonlocalProblem:
    """Bundle of form, nonlinearity, nonlocal condition, grid, and annulus radii.

    ``shift_mu`` records the exponential-substitution rate applied to reach
    this problem (0 when it is stated in the user's frame); trajectories are
    mapped back with :func:`unshift_trajectory`.  When the problem is built,
    before any march, ``f`` must follow the row contract of :class:`Nonlinearity`
    (it is checked at t = 0), and g the block contract of
    :class:`NonlocalCondition` on the grid (a g that cannot be evaluated on it,
    say with intervals past its horizon, raises there).
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
        check_row_contract(lambda v: np.broadcast_to(self.g.eval(make_trajectory(space, grid, v)),
                                                     np.shape(v)[:-2] + (n,)),
                           (grid.n_steps + 1, n), "(m,n)->(n)", "g.eval")


def audit_problem(prob: NonlocalProblem, seed=0) -> dict:
    """Run the standing audits: inward-pointing scan (300 points, drawn from ``seed``), g
    bound at four radii (see :func:`_g_sup`: a g without path-linear data fails it) and
    g's admissibility."""
    space = prob.form.space
    t_grid = np.linspace(0.0, prob.grid.horizon, 9)
    scan = scan_transversality(prob.f, prob.r0, prob.R0, 300, t_grid, space, seed=seed)
    cap = prob.R0 if math.isfinite(prob.R0) else 10.0 * prob.r0
    radii, grid = np.geomspace(prob.r0 * 1.0001, cap * 0.9999, 4), prob.grid
    margins = radii - _g_sup(prob.g, False, radii * math.sqrt(grid.horizon), grid, space)
    g_ok = bool((margins > 0.0).all())
    return {
        "transversality": scan,
        "transversality_ok": scan.passed,
        "g_bound_margins": margins.tolist(),
        "g_bound_ok": g_ok,
        "g_solver_ok": prob.g.solver_ok,
        "passed": bool(scan.passed and g_ok and prob.g.solver_ok),
    }


@dataclass(frozen=True)
class SolverConfig:
    """Shooting and continuation settings (see :func:`solve_nonlocal`).

    ``inner_tol`` bounds the pivot norm of the shooting residual, and of the
    fixed-point residual of a converged solve, and ``max_inner`` the forward
    marches per stage.
    """

    lambda_steps: int = 10
    inner_tol: float = 1e-8
    max_inner: int = 500

    def __post_init__(self) -> None:
        for name, low in (("lambda_steps", 1), ("max_inner", 1), ("inner_tol", 0.0)):
            value = getattr(self, name)
            if not value >= low:  # NaN fails too
                raise ValueError(f"{name} must be at least {low}, got {value!r}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a nonlocal solve, converged or not.  ``status`` is one of
    ``converged``, ``max_iterations``, ``boundary_hit``, ``non_finite`` and
    ``singular`` (see :func:`solve_nonlocal`).  ``g_star`` and ``apriori_rhs`` are
    inf for a g without path-linear data (see :func:`estimate_g_star`)."""

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
# an exact Jacobian J with a smaller reciprocal condition number s_min / max(s_max, 1) is
# singular; J = I - lam P dg/dx holds the identity, so a J of rounding size is singular too
_RCOND_MIN = 1e-12


class _StageMarch(NamedTuple):
    """What every pass of one homotopy stage marches with: the propagator and, for an
    f that declares affine data, the stage's nodal source (None for any other f)."""

    prop: Propagator
    f_values: np.ndarray | None


def _stage_march(prob: NonlocalProblem, lam: float, rest: np.ndarray | None) -> _StageMarch:
    """The march of stage ``lam``; ``rest`` is ``rest(t_j) P^T`` at every node when f
    declares affine data, else None.

    For ``f(t, x) = rest(t) - c x``, the trapezoid rule on ``-lam c P x`` is the
    Cayley step of the stiffness plus ``lam c G_H``: added before projection, the
    reduced form gains ``lam c G_H P``, and the source left is ``lam rest``.
    """
    if rest is None:
        return _StageMarch(build_propagator(prob.form, prob.proj, prob.grid), None)
    stack = stiffness_stack(prob.form, None, prob.grid.midpoints)
    stack += (lam * prob.f.affine.rate) * prob.form.space.gram_H
    return _StageMarch(build_propagator(prob.form, prob.proj, prob.grid, stack=stack),
                       lam * rest)


def _light_s_apply(prob: NonlocalProblem, march: _StageMarch, lam: float,
                   x: Vector) -> np.ndarray:
    # one pass marching u(0) = x, or every row of a 2-D x (see _march); the tracer counts it by name
    if march.f_values is not None:  # f's linear part is in the step factors
        return _march(march.prop, x, march.f_values)
    lam_pt, f = lam * prob.proj.matrix.T, prob.f.eval
    return _march(march.prop, x, lambda t, u: np.asarray(f(t, u), dtype=float) @ lam_pt)


class _Halt(Exception):
    """The stage stops; ``args[0]`` is the status."""


def _is_affine(prob: NonlocalProblem) -> bool:
    """Whether ``r(x) = x - lam P g(U(x))`` is affine in x and reads the path: f declares
    affine data, and g path-linear data with a nonzero matrix and nonzero node weights."""
    data = prob.g.path_linear
    return bool(prob.f.affine is not None and data is not None and data.matrix.any()
                and data.node_weights(prob.grid).any())


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

    An affine problem (:func:`_is_affine`) takes Newton's step once, exactly.
    One block pass marches ``[x; x + h e_1; ...; x + h e_n]`` with
    ``h = 1 + |x|_inf``.  Row 0 is the start, a fixed point if its residual is
    within ``inner_tol``.  U is affine in x, so ``(r(x + h e_i) - r(x)) / h``
    is the Jacobian for any h (the scale keeps the differences' cancellation
    relative), and the path from the root x + dx is
    ``U(x) + sum_i (dx_i / h) (U(x + h e_i) - U(x))``, with no further march;
    g checks it once.  A probe row that is not finite ends the stage
    ``non_finite``; its ``R0`` is not checked, as it is no iterate.  A Jacobian
    whose reciprocal condition number ``s_min / max(s_max, 1)`` is below 1e-12
    ends it ``singular``, and a root whose path fails ends it with the root's
    status.  A root whose residual is still above ``inner_tol`` (a tolerance
    at rounding level) goes on as Newton, from the exact Jacobian.
    """
    p, space, marches = prob.proj.matrix, prob.form.space, 0

    def spend(k: int) -> None:  # k more marched paths, within max_inner
        nonlocal marches
        if marches + k > cfg.max_inner:
            raise _Halt("max_iterations")
        marches += k

    def checked(xs: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residual rows of a (k, n) block of starts marched into ``values``, and whether
        each is finite.  A NaN row (a flagged march) never reaches g, and a g that raises
        fails every row of its block."""
        r = np.full(xs.shape, np.nan)
        marched = np.isfinite(values).all(axis=(1, 2))
        if marched.any():
            paths = make_trajectory(space, prob.grid, values if marched.all() else values[marched])
            with suppress(ValueError, FloatingPointError):
                r[marched] = xs[marched] - lam * (np.asarray(prob.g.eval(paths), dtype=float) @ p.T)
        return r, np.isfinite(r).all(axis=1)

    def outcome(r: Vector, finite: bool, values: np.ndarray) -> tuple:
        """Status ('' if usable), path, residual and residual norm of one checked row: it
        fails ``non_finite`` unless ``finite``, and ``boundary_hit`` when its path reaches
        R0.  The norm is inf when the row failed."""
        if not finite:
            return "non_finite", None, r, math.inf
        path = make_trajectory(space, prob.grid, values)
        if path.mean_radius >= prob.R0:
            return "boundary_hit", None, r, math.inf
        return "", path, r, float(space.h_norm(r))

    def shoot(x: Vector, values: np.ndarray | None = None) -> tuple:
        """:func:`outcome` of the path ``values`` from ``x``, marched when not given."""
        if values is None:
            spend(1)
            values = _light_s_apply(prob, march, lam, x)
        r, finite = checked(x[None], values[None])  # the k = 1 block
        return outcome(r[0], finite[0], values)

    def jacobian(x: Vector, r: Vector, h: float) -> Matrix:
        jac, cols = np.empty((x.size, x.size)), np.arange(x.size)
        for dx in (h, -h):  # columns whose forward row failed go again backwards
            spend(len(cols))
            xs = x + dx * np.eye(x.size)[cols]
            block = _light_s_apply(prob, march, lam, xs)
            r_cols, finite = checked(xs, block)
            done = finite & ~(make_trajectory(space, prob.grid, block).mean_radius >= prob.R0)
            jac[:, cols[done]] = ((r_cols[done] - r) / dx).T
            cols = cols[~done]
            if not cols.size:
                return jac
        raise _Halt("max_iterations")

    def exact_step(x: Vector, r: Vector, h: float, rows: np.ndarray,
                   r_rows: np.ndarray) -> tuple:
        """The affine case's root from the block ``rows`` of x and x + h e_i, with its
        residual rows ``r_rows``: the root, its :func:`outcome` and the Jacobian."""
        jac = ((r_rows[1:] - r) / h).T
        if not np.isfinite(jac).all():  # a probe row failed
            raise _Halt("non_finite")
        sv = np.linalg.svd(jac, compute_uv=False)
        if not sv[-1] >= _RCOND_MIN * max(sv[0], 1.0):
            raise _Halt("singular")
        dx = np.linalg.solve(jac, -r)
        diffs = rows[1:]
        diffs -= rows[0]
        root = shoot(x + dx, rows[0] + np.tensordot(dx / h, diffs, axes=1))
        if root[0]:
            raise _Halt(root[0])
        return x + dx, root, jac

    res, jac, affine = math.inf, None, _is_affine(prob)
    try:
        if affine:
            h = 1.0 + float(np.abs(x).max())
            xs = x + np.vstack([np.zeros(x.size), h * np.eye(x.size)])
            spend(len(xs))
            rows = _light_s_apply(prob, march, lam, xs)
            r_rows, finite = checked(xs, rows)  # the probe rows are no iterates: no R0
            status, start, r, res = outcome(r_rows[0], finite[0], rows[0])
        else:
            status, start, r, res = shoot(x)
        if status:
            raise _Halt(status)
        path = start
        if affine and res > cfg.inner_tol:
            x, (_, path, r, res), jac = exact_step(x, r, h, rows, r_rows)
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
    zero from ``x0 = P g(0)``: a constant g takes one march, and an affine f with
    a path-linear g one block pass of n + 1 rows and one n x n solve (see
    :func:`_solve_stage`).  Only if that fails do the Leray-Schauder stages
    ``lam = k / lambda_steps`` run, each warm-started from the last (the first
    from zero if g fails on the zero path).  ``lambda_path`` holds
    ``(lam, marches, residual)`` per stage.  Statuses: ``converged``,
    ``max_iterations`` (march budget spent or no descent), ``boundary_hit`` (an
    iterate's path reached the outer radius, contradicting the standing annulus
    bound), ``non_finite`` (a starting step equation turned non-finite or was
    not solved, a residual is not finite, or g fails on the zero path),
    ``singular`` (an affine problem's Jacobian has a reciprocal condition number
    below 1e-12; it is the same matrix from any start, so no continuation stage
    runs).  The report is ``converged`` when the status is, the fixed-point residual
    is within ``inner_tol`` and the path inside ``R0``.  g* is inf for a g without
    path-linear data, which is solved all the same; a condition that fails on the
    grid raises ValueError there.  An error raised by f propagates.

    An f that declares ``affine`` data is not evaluated by the solve: its nodal
    source is ``rest(t_j)``, one call on the grid's nodes, and each stage folds
    ``lam`` times its rate into its own propagator (see :func:`_stage_march`),
    so its marches take no per-step iteration.  A nodal source that is not
    finite raises ValueError naming the first such node's t, before any march.
    """
    cfg = cfg or SolverConfig()
    space, grid = prob.form.space, prob.grid
    zero = zero_trajectory(space, grid)
    rest = (None if prob.f.affine is None
            else prob.f.affine.rest_at(grid.nodes, space.n_modes) @ prob.proj.matrix.T)
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
    if status not in ("converged", "singular") and cfg.lambda_steps > 1:
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
    del march, rest  # the step factors and nodal source are not held through the norms below

    try:
        g_u = np.asarray(prob.g.eval(solution), dtype=float)
        fp_residual = space.h_norm(solution.values[0] - g_u)
    except (ValueError, FloatingPointError):
        fp_residual = math.inf

    g_star = estimate_g_star(prob.g, prob.r0 * sqrt_t, grid, space)
    b_l2 = _l2(np.broadcast_to(prob.f.growth_b(grid.nodes), grid.nodes.shape)**2, grid.dt)
    apriori_rhs = 2.0 * max(prob.f.growth_a * prob.r0 * sqrt_t, b_l2) + g_star
    apriori_lhs = regularity_norm(prob.form, prob.proj, solution)

    converged = bool(status == "converged" and fp_residual <= cfg.inner_tol
                     and solution.mean_radius < prob.R0)
    return SolveReport(solution=solution, fixed_point_residual=fp_residual,
                       lambda_path=tuple(lambda_path), apriori_lhs=apriori_lhs,
                       apriori_rhs=apriori_rhs, converged=converged, status=status, g_star=g_star)


def exp_shift(prob: NonlocalProblem, mu: float) -> NonlocalProblem:
    """Exponentially substituted problem: v(t) = exp(-mu t) u(t).

    The pivot shift declared on the form (its quasi-coercivity defect) is
    absorbed into the stiffness; the remainder ``eps = mu - delta`` is folded
    into the nonlinearity, which gains the inward-pointing term ``-eps x`` (declared
    affine data ``(c, rest)`` become ``(c + eps, e^{-mu t} rest)``, with f derived
    from them).
    The condition g is composed with the inverse scaling so fixed points map
    one-to-one (a path-linear g's node weights gain the factors ``e^{mu t_j}``);
    ``mu = 0`` is the identity; a total ``shift_mu`` whose e^(shift_mu T) overflows raises.
    """
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    if (prob.shift_mu + mu) * prob.grid.horizon > math.log(np.finfo(float).max):
        raise ValueError(f"shift_mu {prob.shift_mu + mu!r} is too large: e^(shift_mu t) overflows")
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

    def b_hat(ts: np.ndarray) -> np.ndarray:
        return np.exp(-mu * ts) * f.growth_b(ts)

    if f.affine is not None:
        rest = f.affine.rest
        new_f = f_affine(f.affine.rate + eps, lambda ts: np.exp(-mu * ts)[:, None] * rest(ts),
                         f.growth_a + eps, b_hat)
    else:
        new_f = Nonlinearity(eval=f_hat, growth_a=f.growth_a + eps, growth_b=b_hat)

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


def annulus_energy_check(traj: Trajectory, r0: float, R0: float) -> bool:
    """No pivot-norm growth along any stretch of the path inside the annulus.

    The permitted slack is ``10 dt``, first order in the time step.  Paths that
    never enter the annulus pass vacuously.
    """
    tol, h = 10.0 * traj.grid.dt, traj.h_norms
    # each inside stretch h[a:b] is compared with its own running minimum
    edges = np.flatnonzero(np.diff((h > r0) & (h < R0), prepend=False, append=False))
    return not any((h[a + 1:b] > np.minimum.accumulate(h[a:b - 1]) + tol).any()
                   for a, b in zip(edges[::2], edges[1::2]))
