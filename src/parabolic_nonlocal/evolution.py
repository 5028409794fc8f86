"""Time stepping: contractive propagators, source solves, and path norms.

The one-step factor is the midpoint Cayley transform
``(G_H + dt/2 S)^(-1) (G_H - dt/2 S)``, which is second order and nonexpansive
in the pivot norm whenever the form is accretive, so norm decay of homogeneous
solutions is an exact discrete invariant rather than an asymptotic one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .galerkin import (
    GalerkinSpace,
    Matrix,
    Projection,
    TimeForm,
    Vector,
    project,
    project_stack,
    stiffness_stack,
)

@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with n_steps intervals."""

    horizon: float
    n_steps: int
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):  # NaN fails too
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        if not self.n_steps >= 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps!r}")
        object.__setattr__(self, "nodes", np.linspace(0.0, self.horizon, self.n_steps + 1))

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])


@dataclass(frozen=True)
class Propagator:
    """One-step factors of the discrete evolution family on a grid.

    ``step_factors`` and ``source_factors`` are C-contiguous ``(n_steps, n, n)``
    stacks.
    ``step_factors[j]`` maps data at node j to node j+1; two-parameter
    actions are composed products, so the evolution-family law holds exactly
    at grid nodes.  ``source_factors[j]`` applies the step's source weight
    ``dt * (G_H + dt/2 S)^(-1) G_H``.
    """

    space: GalerkinSpace
    grid: TimeGrid
    step_factors: np.ndarray
    source_factors: np.ndarray

    def compose(self, i_from: int, i_to: int) -> Matrix:
        """Matrix of the propagator from node i_from to node i_to >= i_from."""
        return self.apply(np.eye(self.space.n_modes), i_from, i_to)

    def apply(self, x: Vector, i_from: int, i_to: int) -> Vector:
        if not 0 <= i_from <= i_to <= self.grid.n_steps:
            raise ValueError("node indices out of range")
        v = np.asarray(x, dtype=float)
        for j in range(i_from, i_to):
            v = self.step_factors[j] @ v
        return v

    def step_norms_h(self) -> np.ndarray:
        """Pivot-weighted operator norm of every one-step factor."""
        weighted = self.space.sqrt_H @ self.step_factors @ self.space.inv_sqrt_H
        return np.linalg.norm(weighted, 2, axis=(1, 2))


def build_propagator(form: TimeForm, proj: Projection | None, grid: TimeGrid, *,
                     stack: np.ndarray | None = None) -> Propagator:
    """Materialize the Cayley one-step factors for the (optionally reduced) form.

    One batched solve gives ``X_j = (G_H + dt/2 S(t_{j+1/2}))^(-1) G_H`` for
    every step; the step factor is ``2 X - I``, the source factor ``dt X``.  The
    midpoint stiffnesses come as one :func:`stiffness_stack`, unless ``stack``
    already holds the form's stiffness at ``grid.midpoints`` (unprojected,
    C-contiguous like every :func:`stiffness_stack`); it is then projected
    and overwritten in place.  The solved system's buffer takes one factor
    stack, so a build holds at most two stacks, and both factor stacks are
    C-contiguous.
    """
    if grid.horizon > form.horizon * (1.0 + 1e-12):
        raise ValueError("grid horizon exceeds the form's horizon")
    gh = form.space.gram_H
    dt = grid.dt
    if stack is None:
        lhs = stiffness_stack(form, proj, grid.midpoints)
    elif stack.shape != (grid.n_steps, *gh.shape):
        raise ValueError("stack must have shape (n_steps, n_modes, n_modes)")
    elif not stack.flags.c_contiguous:
        raise ValueError("stack must be C-contiguous, as stiffness_stack returns it")
    else:
        lhs = stack if proj is None else project_stack(form, proj, stack)
    lhs *= 0.5 * dt
    lhs += gh
    sources = np.linalg.solve(lhs, np.broadcast_to(gh, lhs.shape))
    steps = np.multiply(sources, 2.0, out=lhs)
    steps -= np.eye(gh.shape[0])
    sources *= dt
    return Propagator(space=form.space, grid=grid, step_factors=steps, source_factors=sources)


@dataclass(frozen=True)
class Trajectory:
    """A discrete path in the trial space: nodal values on a grid.  Its norms are
    computed on first read, node norms by the space's :meth:`~GalerkinSpace.h_norm`
    and ``v_norm``.

    ``values`` are ``(..., N+1, n)``: one path, or a block of paths along the
    leading axes, whose norms then carry those axes.  ``sobolev_h1`` combines
    the trapezoid pivot-norm quadrature with the forward-difference derivative
    quadrature; ``l2_v`` is the trapezoid energy-norm quadrature.  The
    operator-image norm needs the form, so it is :func:`au_l2`.
    """

    space: GalerkinSpace
    grid: TimeGrid
    values: np.ndarray

    @cached_property
    def h_norms(self) -> np.ndarray:
        return self.space.h_norm(self.values)

    @cached_property
    def v_norms(self) -> np.ndarray:
        return self.space.v_norm(self.values)

    @cached_property
    def l2_h(self) -> float | np.ndarray:
        return _l2(self.h_norms**2, self.grid.dt)

    @property
    def sobolev_h1(self) -> float | np.ndarray:
        dt = self.grid.dt
        diffs = np.diff(self.values, axis=-2) / dt
        return np.sqrt(self.l2_h**2 + (self.space.h_norm(diffs)**2).sum(-1) * dt)

    @property
    def l2_v(self) -> float | np.ndarray:
        return _l2(self.v_norms**2, self.grid.dt)

    @property
    def mean_radius(self) -> float | np.ndarray:
        """L2-in-time pivot norm divided by sqrt(horizon)."""
        return self.l2_h / math.sqrt(self.grid.horizon)


def _l2(sq_norms: np.ndarray, dt: float) -> float | np.ndarray:
    """Trapezoid L2-in-time norm of paths from their squared node norms (last axis)."""
    return np.sqrt(np.maximum(np.trapezoid(sq_norms, dx=dt, axis=-1), 0.0))


def make_trajectory(space: GalerkinSpace, grid: TimeGrid, values: np.ndarray) -> Trajectory:
    """Wrap nodal values, one path or a block of them, as a Trajectory after checking
    their shape."""
    vals = np.asarray(values, dtype=float)
    if vals.shape[-2:] != (grid.n_steps + 1, space.n_modes):
        raise ValueError("values must have shape (..., n_steps+1, n_modes)")
    return Trajectory(space=space, grid=grid, values=vals)


def au_l2(form: TimeForm, proj: Projection | None, traj: Trajectory) -> float | np.ndarray:
    """Trapezoid L2-in-time pivot norm of the operator image ``A u`` of a path, or of
    each path of a block: the (optionally reduced) stiffness at the grid's nodes,
    one :func:`stiffness_stack`, applied to the values and mapped by ``G_H^(-1/2)``."""
    sv = stiffness_stack(form, proj, traj.grid.nodes) @ traj.values[..., None]
    w = (traj.space.inv_sqrt_H @ sv)[..., 0]
    return _l2(np.vecdot(w, w), traj.grid.dt)


def regularity_norm(form: TimeForm, proj: Projection | None,
                    traj: Trajectory) -> float | np.ndarray:
    """The paper's regularity norm ``|u|_{H^1(H)} + |u|_{L^2(V)} + |Au|_{L^2(H)}``."""
    return traj.sobolev_h1 + traj.l2_v + au_l2(form, proj, traj)


def zero_trajectory(space: GalerkinSpace, grid: TimeGrid) -> Trajectory:
    return make_trajectory(space, grid, np.zeros((grid.n_steps + 1, space.n_modes)))


def l2h_distance(a: Trajectory, b: Trajectory) -> float:
    """L2-in-time pivot-norm distance between two paths on the same grid."""
    if a.grid.n_steps != b.grid.n_steps or a.grid.horizon != b.grid.horizon:
        raise ValueError("trajectories live on different grids")
    return _l2(a.space.h_norm(a.values - b.values)**2, a.grid.dt)


STEP_TOL = 1e-14
STEP_ITERATIONS = 100


def _solve_step(source: Callable[[float, np.ndarray], np.ndarray], t: float, u: np.ndarray,
                s_prev: np.ndarray, s_old: np.ndarray,
                half_bt: Matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Fixed-point iteration for ``U = u + (s_prev + s(t, U)) half_bt`` on a ``(k, n)`` block.

    ``half_bt`` is ``B^T / 2``; ``s_prev`` and ``s_old`` are the source at the
    last two nodes, and the iteration starts from their linear extrapolation
    ``2 s_prev - s_old``.  The whole block iterates until every row's
    update is at most ``STEP_TOL * sqrt(1 + |u|^2)`` (Euclidean).  A row whose
    iterate turns non-finite leaves the block at once, so the source never
    sees it again; a row still unsolved after ``STEP_ITERATIONS`` leaves it at
    the end.  Returns the solved rows, the source values they were computed
    from, and the indices of the input rows they are, None when every row
    was solved.
    """
    tol_sq, kept = STEP_TOL**2, None
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows leave below
        known = u + s_prev @ half_bt
        v = known + (2.0 * s_prev - s_old) @ half_bt
        for _ in range(STEP_ITERATIONS):
            s = np.asarray(source(t, v), dtype=float)
            new = known + s @ half_bt
            d = new - v
            if np.vdot(d, d) <= tol_sq:  # implies every row's test below
                return new, s, kept
            excess = np.vecdot(d, d) - tol_sq * np.vecdot(new, new)
            worst = excess.max()
            if not math.isfinite(worst):
                ok = np.isfinite(excess)
                kept = np.flatnonzero(ok) if kept is None else kept[ok]
                new, known, excess = new[ok], known[ok], excess[ok]
                s = np.broadcast_to(s, d.shape)[ok]
                worst = excess.max(initial=-math.inf)
            if worst <= tol_sq:
                return new, s, kept
            v = new
    ok = excess <= tol_sq
    kept = np.flatnonzero(ok) if kept is None else kept[ok]
    return new[ok], np.broadcast_to(s, new.shape)[ok], kept


def _march(prop: Propagator, x: np.ndarray,
           source: np.ndarray | Callable | None = None) -> np.ndarray:
    """Roll the one-step scheme ``u_{j+1} = F_j u_j + B_j (s_j + s_{j+1}) / 2``.

    One loop body marches a ``(k, n)`` block of initial values into a
    ``(k, N+1, n)`` array, one path per row, for every kind of source: none,
    an ``(N+1, n)`` array of nodal values, or a state-dependent callable
    ``source(t, U)``.  Only a callable source iterates: it is called on the
    block of live rows (its value may broadcast, e.g. as an ``(n,)`` row), and
    :func:`_solve_step` solves every row's implicit step at once from the
    source extrapolated linearly from the last two nodes.  A row whose source
    at t = 0 is not finite, or whose step turns non-finite or stays unsolved,
    leaves the block, so the source never sees it again, and the march stops
    when no row is left.  Every row that failed or ends non-finite is NaN
    along its whole path.  A 1-D ``x`` is the k = 1 block and gives its
    ``(N+1, n)`` path; a march never raises for a failed step.
    """
    x = np.asarray(x, dtype=float)
    u = np.atleast_2d(x)
    out = np.full((len(u), prop.grid.n_steps + 1, prop.space.n_modes), np.nan)
    out[:, 0] = u
    live = slice(None)  # the rows still marching
    if callable(source):
        s_prev = s_old = np.asarray(source(0.0, u), dtype=float)
        if not np.isfinite(s_prev).all():  # a row whose source is not finite takes no step
            s_prev = np.broadcast_to(s_prev, u.shape)
            live = np.flatnonzero(np.isfinite(s_prev).all(-1))
            u, s_prev = u[live], s_prev[live]
            s_old = s_prev
    elif source is not None:  # every step's increment B_j (s_j + s_{j+1}) / 2 at once
        s_mid = 0.5 * (source[:-1] + source[1:])
        inc = np.matmul(prop.source_factors, s_mid[..., None])[..., 0]
    for j in range(prop.grid.n_steps):
        if not len(u):
            break
        u = u @ prop.step_factors[j].T
        if callable(source):
            v, s_next, kept = _solve_step(source, float(prop.grid.nodes[j + 1]), u, s_prev,
                                          s_old, 0.5 * prop.source_factors[j].T)
            if kept is not None:  # rows left the block: their sources leave too
                live = np.arange(len(out))[live][kept]
                s_prev = np.broadcast_to(s_prev, u.shape)[kept]
            u, s_old, s_prev = v, s_prev, s_next
        elif source is not None:
            u += inc[j]  # u is the fresh product above, never the caller's x
        out[live, j + 1] = u
    out[~np.isfinite(out[:, -1]).all(-1)] = np.nan  # a row that left has no end value
    return out[0] if x.ndim == 1 else out


def propagate(form: TimeForm, proj: Projection | None, grid: TimeGrid, x: Vector,
              propagator: Propagator | None = None) -> Trajectory:
    """Solve the homogeneous problem u' + A u = 0, u(0) = x, on the grid."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial vector must be finite")
    prop = propagator if propagator is not None else build_propagator(form, proj, grid)
    return make_trajectory(form.space, grid, _march(prop, x))


def duhamel_solve(form: TimeForm, proj: Projection | None, grid: TimeGrid, x: Vector,
                  f_values: np.ndarray, propagator: Propagator | None = None) -> Trajectory:
    """Solve u' + A u = f with nodal source values, trapezoidal in the source."""
    f_values = np.asarray(f_values, dtype=float)
    if f_values.shape != (grid.n_steps + 1, form.space.n_modes):
        raise ValueError("f_values must be given at every grid node")
    prop = propagator if propagator is not None else build_propagator(form, proj, grid)
    return make_trajectory(form.space, grid, _march(prop, np.asarray(x, dtype=float), f_values))


def duhamel_direct_sum(form: TimeForm, proj: Projection | None, grid: TimeGrid, x: Vector,
                       f_values: np.ndarray) -> np.ndarray:
    """Cross-check path: propagated data plus the rectangle-rule source sum.

    Computes ``E(t_k,0) x + sum_{j<k} E(t_k,t_j) f(t_j) dt`` by the recursion
    ``y_{k+1} = F_k (y_k + dt f_k)`` with Cayley factors.  First-order in dt;
    used to validate the one-step solve, never to replace it.
    """
    f_values = np.asarray(f_values, dtype=float)
    prop = build_propagator(form, proj, grid)
    dt = grid.dt
    out = np.empty((grid.n_steps + 1, form.space.n_modes))
    out[0] = np.asarray(x, dtype=float)
    for j in range(grid.n_steps):
        out[j + 1] = prop.step_factors[j] @ (out[j] + dt * f_values[j])
    return out


def reversed_form(form: TimeForm) -> TimeForm:
    """Time-reversed transposed form: stiffness ``S(horizon - t)^T``."""
    horizon = form.horizon
    return replace(form, stiffness_at=lambda t: form.stiffness_at(horizon - t).transpose(0, 2, 1))


def adjoint_propagate(form: TimeForm, proj: Projection | None, grid: TimeGrid, x: Vector,
                      i_t: int, i_s: int) -> Vector:
    """Action of the pivot-adjoint propagator E(t,s)* on x, for grid nodes s < t.

    Realized by propagating the time-reversed transposed form from node
    ``n_steps - i_t`` to ``n_steps - i_s``; with midpoint sampling this equals
    the transpose-conjugate of the composed forward factors exactly.
    """
    if not 0 <= i_s < i_t <= grid.n_steps:
        raise ValueError("need grid node indices with s < t")
    rform = reversed_form(form)
    rprop = build_propagator(rform, proj, grid)
    return rprop.apply(np.asarray(x, dtype=float), grid.n_steps - i_t, grid.n_steps - i_s)


def subspace_invariance_residual(form: TimeForm, proj: Projection, grid: TimeGrid,
                                 x: Vector) -> float:
    """Worst leakage out of the reduced subspace along the reduced flow.

    The reduced stiffness is block-decoupled across the projection splitting,
    so data starting in the range of P stays there; the returned residual is
    solver roundoff only.
    """
    leak = form.space.h_norm(propagate(form, proj, grid, x).values @ proj.complement().T)
    if leak[0] > 1e-12:
        raise ValueError("initial vector is not in the range of the projection")
    return float(leak.max())


def projected_convergence_study(form: TimeForm, grid: TimeGrid, x: Vector,
                                m_list: Sequence[int], m_ref: int) -> list[tuple[int, float]]:
    """Sup-in-time pivot error of reduced flows against a reference reduction.

    The stiffness is evaluated once, at the grid's midpoints, and every
    propagator of the study is built from that stack.  The reduced flow onto
    the leading m modes, started from ``P x``, stays in their span, where it
    is the Galerkin flow of the leading blocks ``G_H[:m, :m]`` and
    ``S[:, :m, :m]`` (the complement penalty never acts on it), so each
    reduction is marched in m dimensions.  The reductions are marched first,
    and the reference build then consumes the shared stack in place.
    """
    space = form.space
    x = np.asarray(x, dtype=float)
    if x.shape != (space.n_modes,) or not np.all(np.isfinite(x)):
        raise ValueError("initial vector must be finite, with one coordinate per mode")
    if not len(m_list) or max(m_list) >= m_ref:
        raise ValueError("m_list must be nonempty and m_ref must exceed each of its entries")
    if m_ref > space.n_modes:
        raise ValueError("m_ref exceeds the space dimension")
    stack = stiffness_stack(form, None, grid.midpoints)
    reduced = [_reduced_path(form, m, grid, stack, x) for m in m_list]
    ref_proj = None if m_ref == space.n_modes else project(space, m_ref)
    ref = _march(build_propagator(form, ref_proj, grid, stack=stack), x)
    del stack  # now the reference's step factors; freed before the error paths
    out = []
    for m, vals in zip(m_list, reduced):
        diff = -ref  # a block path's absent coordinates are zero
        diff[:, :vals.shape[1]] += vals
        out.append((int(m), float(space.h_norm(diff).max())))
    return out


def _reduced_path(form: TimeForm, m: int, grid: TimeGrid, stack: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """Leading m coordinates of the reduced flow onto the first m modes from
    ``P x``, marched from a copy of the leading block of the form's midpoint
    stack ``stack``; its coordinates past m are zero."""
    x0 = project(form.space, m).matrix[:m] @ x
    prop = build_propagator(_leading_mode_form(form, m), None, grid,
                            stack=stack[:, :m, :m].copy())
    return _march(prop, x0)


def _leading_mode_form(form: TimeForm, m: int) -> TimeForm:
    """The form restricted to the span of the first m basis modes."""
    sp = form.space
    sub = GalerkinSpace(m, sp.domain_length, sp.gram_H[:m, :m], sp.gram_V[:m, :m],
                        sp.embed_const)
    return replace(form, space=sub, stiffness_at=lambda t: form.stiffness_at(t)[:, :m, :m])


def regularity_ratio(form: TimeForm, proj: Projection | None, traj: Trajectory,
                     f_l2: float, x_vnorm: float) -> float:
    """Ratio of the path's :func:`regularity_norm` to the data norms."""
    denom = f_l2 + x_vnorm
    if denom <= 0.0:
        raise ValueError("data norms must not both vanish")
    return regularity_norm(form, proj, traj) / denom


def weighted_diagnostic(form: TimeForm, proj: Projection | None, traj: Trajectory) -> float:
    """Regularity of the time-weighted path v(t) = t u(t) of a homogeneous path u of
    the (optionally reduced) form, relative to ``sqrt(horizon) |u(0)|_H``.

    At finite dimension every datum has a finite energy norm, so the ratio
    cannot exhibit the rough-data moderation it tracks in the continuum; it
    is reported as a diagnostic only and asserted nowhere.
    """
    grid = traj.grid
    h_norm = traj.space.h_norm(traj.values[0])
    if not h_norm > 0.0:
        raise ValueError("data must be nonzero")
    weighted = make_trajectory(traj.space, grid, traj.values * grid.nodes[:, None])
    return regularity_ratio(form, proj, weighted, 0.0, math.sqrt(grid.horizon) * h_norm)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write one row per node: time, coordinates, pivot and energy norms."""
    n = traj.space.n_modes
    table = np.column_stack((traj.grid.nodes, traj.values, traj.h_norms, traj.v_norms))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"c{i}" for i in range(n)] + ["h_norm", "v_norm"])
        end = writer.dialect.lineterminator  # no float repr needs quoting
        # one row of Python floats at a time: the whole table as floats raised peak RSS
        fh.writelines(",".join(map(repr, row.tolist())) + end for row in table)
