"""Time stepping: contractive propagators, source solves, and path norms.

The default one-step factor is the midpoint Cayley transform
``(G_H + dt/2 S)^(-1) (G_H - dt/2 S)``, which is nonexpansive in the pivot
norm whenever the form is accretive, so norm decay of homogeneous solutions
is an exact discrete invariant rather than an asymptotic one.  Implicit
Euler is kept for stiff-robustness comparisons.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .galerkin import (
    GalerkinSpace,
    Matrix,
    Projection,
    TimeForm,
    Vector,
    project,
    stiffness_stack,
)

SCHEMES = ("cayley", "implicit_euler")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with n_steps intervals."""

    horizon: float
    n_steps: int
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        object.__setattr__(self, "nodes", np.linspace(0.0, self.horizon, self.n_steps + 1))

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


@dataclass(frozen=True)
class Propagator:
    """One-step factors of the discrete evolution family on a grid.

    ``step_factors`` and ``source_factors`` are ``(n_steps, n, n)`` stacks.
    ``step_factors[j]`` maps data at node j to node j+1; two-parameter
    actions are composed products, so the evolution-family law holds exactly
    at grid nodes.  ``source_factors[j]`` applies the step's source weight
    ``dt * (G_H + c S)^(-1) G_H``.
    """

    space: GalerkinSpace
    grid: TimeGrid
    step_factors: np.ndarray
    source_factors: np.ndarray
    scheme: str

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


def build_propagator(form: TimeForm, proj: Projection | None, grid: TimeGrid,
                     scheme: str = "cayley") -> Propagator:
    """Materialize the one-step factors for the (optionally reduced) form.

    With ``c = dt/2`` (Cayley) or ``dt`` (implicit Euler), one batched solve
    gives ``X_j = (G_H + c S(t_{j+1/2}))^(-1) G_H`` for every step; the step
    factor is ``2 X - I`` (Cayley) or ``X``, the source factor ``dt X``.  The
    midpoint stiffnesses come as one :func:`stiffness_stack`.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if grid.horizon > form.horizon * (1.0 + 1e-12):
        raise ValueError("grid horizon exceeds the form's horizon")
    gh = form.space.gram_H
    dt = grid.dt
    lhs = stiffness_stack(form, proj, 0.5 * (grid.nodes[:-1] + grid.nodes[1:]))
    lhs *= 0.5 * dt if scheme == "cayley" else dt
    lhs += gh
    x = np.linalg.solve(lhs, np.broadcast_to(gh, lhs.shape))
    del lhs  # keep the peak at two stacks
    if scheme == "cayley":
        steps = np.multiply(x, 2.0)
        steps -= np.eye(gh.shape[0])
    else:
        steps = x.copy()
    x *= dt
    return Propagator(space=form.space, grid=grid, step_factors=steps,
                      source_factors=x, scheme=scheme)


@dataclass(frozen=True)
class Trajectory:
    """A discrete path in the trial space; its norms are computed on first read.

    ``sobolev_h1`` combines the trapezoid pivot-norm quadrature with the
    forward-difference derivative quadrature; ``l2_v`` and ``au_l2`` are the
    trapezoid energy-norm and operator-image quadratures.  ``stiffness_fn``
    maps an array of times to the ``(k, n, n)`` stiffness stack there, e.g.
    ``partial(stiffness_stack, form, proj)``; ``au_l2`` is zero when the path
    has none.
    """

    space: GalerkinSpace
    grid: TimeGrid
    values: np.ndarray
    stiffness_fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False,
                                                                    compare=False)

    @cached_property
    def h_norms(self) -> np.ndarray:
        return _node_norms(self.values, self.space.gram_H)

    @cached_property
    def v_norms(self) -> np.ndarray:
        return _node_norms(self.values, self.space.gram_V)

    @cached_property
    def l2_h(self) -> float:
        return _l2(self.h_norms**2, self.grid.dt)

    @property
    def sobolev_h1(self) -> float:
        dt = self.grid.dt
        diffs = np.diff(self.values, axis=0) / dt
        return math.sqrt(self.l2_h**2 + float(_node_sq_norms(diffs, self.space.gram_H).sum() * dt))

    @property
    def l2_v(self) -> float:
        return _l2(self.v_norms**2, self.grid.dt)

    @cached_property
    def au_l2(self) -> float:
        if self.stiffness_fn is None:
            return 0.0
        sv = self.stiffness_fn(self.grid.nodes) @ self.values[:, :, None]
        w = (self.space.inv_sqrt_H @ sv)[:, :, 0]
        return _l2(np.vecdot(w, w), self.grid.dt)

    @property
    def mean_radius(self) -> float:
        """L2-in-time pivot norm divided by sqrt(horizon)."""
        return self.l2_h / math.sqrt(self.grid.horizon)


def _l2(sq_norms: np.ndarray, dt: float) -> float:
    """Trapezoid L2-in-time norm of a path from its squared node norms."""
    return math.sqrt(max(float(np.trapezoid(sq_norms, dx=dt)), 0.0))


def _node_sq_norms(vals: np.ndarray, gram: Matrix) -> np.ndarray:
    """Squared Gram norm of every row of ``vals``, for any leading shape."""
    return ((vals @ gram) * vals).sum(-1)


def _node_norms(vals: np.ndarray, gram: Matrix) -> np.ndarray:
    return np.sqrt(np.maximum(_node_sq_norms(vals, gram), 0.0))


def make_trajectory(space: GalerkinSpace, grid: TimeGrid, values: np.ndarray,
                    stiffness_fn: Callable[[np.ndarray], np.ndarray] | None = None) -> Trajectory:
    """Wrap nodal values as a Trajectory after checking their shape; ``stiffness_fn``
    maps times to a stiffness stack (see :class:`Trajectory`)."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (grid.n_steps + 1, space.n_modes):
        raise ValueError("values must have shape (n_steps+1, n_modes)")
    return Trajectory(space=space, grid=grid, values=vals, stiffness_fn=stiffness_fn)


def zero_trajectory(space: GalerkinSpace, grid: TimeGrid) -> Trajectory:
    return make_trajectory(space, grid, np.zeros((grid.n_steps + 1, space.n_modes)))


def l2h_distance(a: Trajectory, b: Trajectory) -> float:
    """L2-in-time pivot-norm distance between two paths on the same grid."""
    if a.grid.n_steps != b.grid.n_steps or a.grid.horizon != b.grid.horizon:
        raise ValueError("trajectories live on different grids")
    return _l2(_node_sq_norms(a.values - b.values, a.space.gram_H), a.grid.dt)


STEP_TOL = 1e-14
STEP_ITERATIONS = 100


class StepNotConverged(RuntimeError):
    """A step's implicit source equation was not solved by fixed-point iteration."""


def _solve_step(source: Callable[[float, np.ndarray], np.ndarray], t: float, known: np.ndarray,
                half_bt: Matrix, v: np.ndarray, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-point iteration for ``U = known + s(t, U) half_bt`` on a ``(k, n)`` block from v.

    ``half_bt`` is ``B^T / 2``.  The whole block iterates until every row's
    update is at most ``STEP_TOL * sqrt(1 + |u|^2)`` (Euclidean); a NaN row
    counts as done.  A row whose iterate turns non-finite, or that is still
    unsolved after ``STEP_ITERATIONS``, is set to NaN in place, together with
    its known part and its source row, so it stays NaN; with ``strict`` it
    raises ``FloatingPointError`` or :class:`StepNotConverged` instead.
    Returns the solved block and the source values it was computed from.
    """
    tol_sq = STEP_TOL**2
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are flagged below
        for _ in range(STEP_ITERATIONS):
            s = np.asarray(source(t, v), dtype=float)
            new = known + s @ half_bt
            d = new - v
            if np.vdot(d, d) <= tol_sq:  # implies every row's test below
                return new, s
            excess = np.vecdot(d, d) - tol_sq * np.vecdot(new, new)
            worst = excess.max()
            if not math.isfinite(worst):
                if strict:
                    raise FloatingPointError(f"step equation diverged at t={t:g}")
                bad = ~np.isfinite(excess)
                new[bad] = known[bad] = np.nan
                s = np.where(bad[:, None], np.nan, s)
                worst = excess.max(where=~bad, initial=-math.inf)
            if worst <= tol_sq:
                return new, s
            v = new
    if strict:
        raise StepNotConverged(f"step equation not solved at t={t:g}")
    bad = ~(excess <= tol_sq)
    new[bad] = np.nan
    return new, np.where(bad[:, None], np.nan, s)


def _march(prop: Propagator, x: np.ndarray, f_values: np.ndarray | None,
           source: Callable[[float, np.ndarray], np.ndarray] | None = None) -> np.ndarray:
    """Roll the one-step scheme ``u_{j+1} = F_j u_j + B_j (s_j + s_{j+1}) / 2``.

    One loop body marches a ``(k, n)`` block of initial values into a
    ``(k, N+1, n)`` array, one path per row, for every kind of source: none,
    nodal values ``f_values``, or a state-dependent ``source(t, U)`` (which
    takes precedence).  Only a callable source iterates: it is called on the
    whole block (its value may broadcast, e.g. as an ``(n,)`` row), and
    :func:`_solve_step` solves every row's implicit step at once from the
    source extrapolated linearly from the last two nodes.  A row whose step
    turns non-finite or stays unsolved is flagged NaN in place and marches on
    as NaN; every row that ends non-finite is NaN along its whole path.  A
    1-D ``x`` gives its ``(N+1, n)`` path and raises instead:
    ``StepNotConverged`` for an unsolved step, ``FloatingPointError`` for a
    non-finite iterate.
    """
    x = np.asarray(x, dtype=float)
    u = np.atleast_2d(x)
    out = np.empty((len(u), prop.grid.n_steps + 1, prop.space.n_modes))
    out[:, 0] = u
    if source is not None:
        s_prev = s_old = np.asarray(source(0.0, u), dtype=float)
    elif f_values is not None:
        f_mid = 0.5 * (f_values[:-1] + f_values[1:])
    for j in range(prop.grid.n_steps):
        u = u @ prop.step_factors[j].T
        if source is not None:
            half_bt = 0.5 * prop.source_factors[j].T
            known = u + s_prev @ half_bt
            guess = known + (2.0 * s_prev - s_old) @ half_bt
            u, s_next = _solve_step(source, float(prop.grid.nodes[j + 1]), known, half_bt, guess,
                                    strict=x.ndim == 1)
            s_old, s_prev = s_prev, s_next
        elif f_values is not None:
            u = u + f_mid[j] @ prop.source_factors[j].T
        out[:, j + 1] = u
    out[~np.isfinite(out[:, -1]).all(-1)] = np.nan
    return out[0] if x.ndim == 1 else out


def propagate(form: TimeForm, proj: Projection | None, grid: TimeGrid, x: Vector,
              scheme: str = "cayley", propagator: Propagator | None = None) -> Trajectory:
    """Solve the homogeneous problem u' + A u = 0, u(0) = x, on the grid."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial vector must be finite")
    prop = propagator if propagator is not None else build_propagator(form, proj, grid, scheme)
    values = _march(prop, x, None)
    return make_trajectory(form.space, grid, values, partial(stiffness_stack, form, proj))


def duhamel_solve(form: TimeForm, proj: Projection | None, grid: TimeGrid, x: Vector,
                  f_values: np.ndarray, scheme: str = "cayley",
                  propagator: Propagator | None = None) -> Trajectory:
    """Solve u' + A u = f with nodal source values, trapezoidal in the source."""
    f_values = np.asarray(f_values, dtype=float)
    if f_values.shape != (grid.n_steps + 1, form.space.n_modes):
        raise ValueError("f_values must be given at every grid node")
    prop = propagator if propagator is not None else build_propagator(form, proj, grid, scheme)
    values = _march(prop, np.asarray(x, dtype=float), f_values)
    return make_trajectory(form.space, grid, values, partial(stiffness_stack, form, proj))


def duhamel_direct_sum(form: TimeForm, proj: Projection | None, grid: TimeGrid, x: Vector,
                       f_values: np.ndarray, scheme: str = "cayley",
                       propagator: Propagator | None = None) -> np.ndarray:
    """Cross-check path: propagated data plus the rectangle-rule source sum.

    Computes ``E(t_k,0) x + sum_{j<k} E(t_k,t_j) f(t_j) dt`` by the recursion
    ``y_{k+1} = F_k (y_k + dt f_k)``.  First-order in dt; used to validate
    the one-step solve, never to replace it.
    """
    f_values = np.asarray(f_values, dtype=float)
    prop = propagator if propagator is not None else build_propagator(form, proj, grid, scheme)
    dt = grid.dt
    out = np.empty((grid.n_steps + 1, form.space.n_modes))
    out[0] = np.asarray(x, dtype=float)
    for j in range(grid.n_steps):
        out[j + 1] = prop.step_factors[j] @ (out[j] + dt * f_values[j])
    return out


def reversed_form(form: TimeForm) -> TimeForm:
    """Time-reversed transposed form: stiffness ``S(horizon - t)^T``."""
    horizon = form.horizon
    return replace(
        form, stiffness_at=lambda t: np.asarray(form.stiffness_at(horizon - t), dtype=float).T)


def adjoint_propagate(form: TimeForm, proj: Projection | None, grid: TimeGrid, x: Vector,
                      i_t: int, i_s: int, scheme: str = "cayley") -> Vector:
    """Action of the pivot-adjoint propagator E(t,s)* on x, for grid nodes s < t.

    Realized by propagating the time-reversed transposed form from node
    ``n_steps - i_t`` to ``n_steps - i_s``; with midpoint sampling this equals
    the transpose-conjugate of the composed forward factors exactly.
    """
    if not 0 <= i_s < i_t <= grid.n_steps:
        raise ValueError("need grid node indices with s < t")
    rform = reversed_form(form)
    rprop = build_propagator(rform, proj, grid, scheme)
    return rprop.apply(np.asarray(x, dtype=float), grid.n_steps - i_t, grid.n_steps - i_s)


def subspace_invariance_residual(form: TimeForm, proj: Projection, grid: TimeGrid,
                                 x: Vector) -> float:
    """Worst leakage out of the reduced subspace along the reduced flow.

    The reduced stiffness is block-decoupled across the projection splitting,
    so data starting in the range of P stays there; the returned residual is
    solver roundoff only.
    """
    leak = _node_norms(propagate(form, proj, grid, x).values @ proj.complement().T,
                       form.space.gram_H)
    if leak[0] > 1e-12:
        raise ValueError("initial vector is not in the range of the projection")
    return float(leak.max())


def projected_convergence_study(form: TimeForm, grid: TimeGrid, x: Vector,
                                m_list: Sequence[int], m_ref: int) -> list[tuple[int, float]]:
    """Sup-in-time pivot error of reduced flows against a reference reduction."""
    if not len(m_list) or max(m_list) >= m_ref:
        raise ValueError("m_list must be nonempty and m_ref must exceed each of its entries")
    if m_ref > form.space.n_modes:
        raise ValueError("m_ref exceeds the space dimension")
    ref_proj = None if m_ref == form.space.n_modes else project(form.space, m_ref)
    ref = propagate(form, ref_proj, grid, x)
    out = []
    for m in m_list:
        pm = project(form.space, m)
        err = _node_norms(propagate(form, pm, grid, pm.matrix @ x).values - ref.values,
                          form.space.gram_H).max()
        out.append((int(m), float(err)))
    return out


def regularity_ratio(traj: Trajectory, f_l2: float, x_vnorm: float) -> float:
    """Ratio of the path's combined regularity norms to the data norms."""
    denom = f_l2 + x_vnorm
    if denom <= 0.0:
        raise ValueError("data norms must not both vanish")
    return (traj.sobolev_h1 + traj.l2_v + traj.au_l2) / denom


def weighted_diagnostic(form: TimeForm, proj: Projection | None, grid: TimeGrid,
                        x: Vector) -> float:
    """Regularity of the time-weighted homogeneous path v(t) = t u(t),
    relative to ``sqrt(horizon) |x|_H``.

    At finite dimension every datum has a finite energy norm, so the ratio
    cannot exhibit the rough-data moderation it tracks in the continuum; it
    is reported as a diagnostic only and asserted nowhere.
    """
    x = np.asarray(x, dtype=float)
    h_norm = form.space.h_norm(x)
    if h_norm <= 0.0:
        raise ValueError("data must be nonzero")
    traj = propagate(form, proj, grid, x)
    weighted = make_trajectory(form.space, grid, traj.values * grid.nodes[:, None],
                               partial(stiffness_stack, form, proj))
    return regularity_ratio(weighted, 0.0, math.sqrt(grid.horizon) * h_norm)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write one row per node: time, coordinates, pivot and energy norms."""
    n = traj.space.n_modes
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"c{i}" for i in range(n)] + ["h_norm", "v_norm"])
        for j, t in enumerate(traj.grid.nodes):
            writer.writerow(
                [repr(float(t))]
                + [repr(float(v)) for v in traj.values[j]]
                + [repr(float(traj.h_norms[j])), repr(float(traj.v_norms[j]))]
            )
