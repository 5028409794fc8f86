"""Pointwise-in-time nonlinear terms: growth audits, inward-pointing scans,
and convex gradient-flow functionals.

All sampling here is a falsifier, not a verifier: a passing scan means no
violation was found at the drawn samples, and every scan takes a seeded
generator so reports are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .evolution import Trajectory
from .galerkin import GalerkinSpace, TimeForm, Vector, stiffness_stack


ROW_CHUNK = 4096  # rows per block of the sampled audits: memory stays fixed for any sample count
GROWTH_TIMES = 16  # times drawn by growth_audit; f is called once per time, on all the points


@dataclass(frozen=True)
class AffineSource:
    """Data of an affine f: ``f(t, x) = rest(t) - rate x``.

    ``rest`` maps a ``(k,)`` array of times to a ``(k, n)`` array, or to one that
    broadcasts to it (a zero rest may be ``(k, 1)``): the stack contract of
    ``TimeForm.stiffness_at``, for the source.  ``rate`` is finite and at least 0,
    so the form with the rate folded in stays accretive.
    """

    rate: float
    rest: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate >= 0.0):
            raise ValueError(f"the affine rate must be finite and at least 0, got {self.rate!r}")

    def rest_at(self, times: np.ndarray, n: int) -> np.ndarray:
        """``rest(times)`` as a ``(k, n)`` array; a non-finite row raises ValueError
        naming its time (see :func:`_finite_at`)."""
        times = np.asarray(times, dtype=float)
        return _finite_at(np.broadcast_to(np.asarray(self.rest(times), dtype=float),
                                          (times.size, n)), times)

    def eval(self, t: float, x: Vector) -> Vector:
        return np.asarray(self.rest(np.array([t], dtype=float)), dtype=float)[0] - self.rate * x


@dataclass(frozen=True)
class Nonlinearity:
    """A source term f(t, x) with declared sublinear growth.

    ``eval(t, x)`` takes a vector x of shape ``(n,)`` or a block of row
    vectors of shape ``(k, n)``, and returns the same shape, or a shape that
    broadcasts to it (a state-independent f may return one ``(n,)`` row).
    Rows are independent: the shooting solver marches its Jacobian columns
    as one block.  Wrap an f written for single rows with
    ``np.vectorize(f, excluded={0}, signature="(n)->(n)")``.

    The declared constants promise ``|f(t,x)|_H <= growth_a |x|_H + growth_b(t)``;
    :func:`growth_audit` spot-checks the promise.  ``growth_b`` maps a ``(k,)`` array
    of times to ``(k,)`` values, or to a scalar that broadcasts.

    ``affine``, when given, declares f affine: ``f(t, x) = rest(t) - rate x``
    (see :class:`AffineSource`).  The data then define f: ``eval`` must be
    ``affine.eval``, as :func:`f_affine` builds it, or construction raises
    ValueError.  The solver folds the rate into the step factors and marches
    the nodal values ``rest(t_j)``, read in one call, with no per-step
    iteration; every audit reads ``eval``.
    """

    eval: Callable[[float, Vector], Vector]
    growth_a: float
    growth_b: Callable[[np.ndarray], np.ndarray | float]
    affine: AffineSource | None = None

    def __post_init__(self) -> None:
        if self.affine is not None and self.eval != self.affine.eval:
            raise ValueError("declared affine data define f: eval must be affine.eval; build an "
                             "f with affine data with f_affine(rate, rest, growth_a, growth_b)")


def f_affine(rate: float, rest: Callable[[np.ndarray], np.ndarray], growth_a: float,
             growth_b: Callable[[np.ndarray], np.ndarray | float]) -> Nonlinearity:
    """The f ``f(t, x) = rest(t) - rate x`` (see :class:`AffineSource`) with the declared
    growth constants, and ``eval`` derived from the data."""
    data = AffineSource(rate, rest)
    return Nonlinearity(data.eval, growth_a, growth_b, data)


def _no_rest(times: np.ndarray) -> np.ndarray:
    return np.zeros((np.size(times), 1))


def zero_nonlinearity() -> Nonlinearity:
    return f_affine(0.0, _no_rest, 0.0, lambda t: 0.0)


def negated_identity() -> Nonlinearity:
    return f_affine(1.0, _no_rest, 1.0, lambda t: 0.0)


def saturating_drift(space: GalerkinSpace) -> Nonlinearity:
    """Saturating restoring force plus a bounded oscillation along the first mode,
    ``f(t, x) = -x / (1 + |x|_H) + sin(t) e_1 / |e_1|_H`` in the pivot norm of
    ``space``, so ``|f(t, x)|_H <= |x|_H + 1`` holds there."""
    e_1 = np.eye(space.n_modes)[0]
    e_1 /= space.h_norm(e_1)

    def f(t: float, x: Vector) -> Vector:
        return -x / (1.0 + space.h_norm(x)[..., None]) + math.sin(t) * e_1

    return Nonlinearity(f, 1.0, lambda t: 1.0)


def bounded_source(rest: Callable[[np.ndarray], np.ndarray], sup_norm: float) -> Nonlinearity:
    """State-independent source f(t, x) = rest(t) with |rest(t)|_H <= sup_norm; ``rest``
    maps a ``(k,)`` array of times to ``(k, n)`` (see :class:`AffineSource`)."""
    return f_affine(0.0, rest, 0.0, lambda t: sup_norm)


def _finite_at(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``values``, one row per time, unless a row is not finite: then ValueError naming
    the first such row's t."""
    finite = np.isfinite(values).all(-1)
    if not finite.all():
        t = float(times[finite.argmin()])
        raise ValueError(f"nonlinearity returned non-finite values at t={t}")
    return values


def apply_superposition(f: Nonlinearity, traj: Trajectory) -> np.ndarray:
    """Apply f node-by-node along a trajectory; a non-finite value raises ValueError
    naming the first such node's t, after f has been called at every node."""
    out = np.empty_like(traj.values)
    for j, t in enumerate(traj.grid.nodes.tolist()):
        out[j] = f.eval(t, traj.values[j])
    return _finite_at(out, traj.grid.nodes)


def _points_of_radii(space: GalerkinSpace, radii: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """One point per entry of ``radii``, of that pivot norm, in a standard normal direction."""
    directions = rng.standard_normal((len(radii), space.n_modes))
    directions /= space.h_norm(directions)[:, None]
    return radii[:, None] * directions


def growth_audit(f: Nonlinearity, space: GalerkinSpace, horizon: float, n_samples: int = 1000,
                 seed=0) -> tuple[bool, float]:
    """Spot-check the declared growth bound in the pivot norm of ``space``.

    Draws ``GROWTH_TIMES`` times in [0, horizon], then ``ceil(n_samples / GROWTH_TIMES)``
    points with pivot norms log-spread over [1e-2, 1e3], and calls f once per time on the
    whole block of points and ``growth_b`` once on all the times.  Returns (passed,
    worst_excess) where the excess is ``|f(t,x)| - a |x| - b(t)``; pass means excess
    <= 1e-10 everywhere sampled, and a non-finite f value fails.
    """
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, horizon, GROWTH_TIMES)
    radii = 10.0 ** rng.uniform(-2.0, 3.0, math.ceil(n_samples / GROWTH_TIMES))
    x = _points_of_radii(space, radii, rng)
    b = np.broadcast_to(f.growth_b(times), times.shape)
    excess = [np.max(space.h_norm(np.asarray(f.eval(t, x), dtype=float)) - f.growth_a * radii)
              - b_t for t, b_t in zip(times.tolist(), b.tolist())]
    worst = float(np.max(excess))
    return worst <= 1e-10, worst


@dataclass(frozen=True)
class TransversalityReport:
    """Result of the inward-pointing scan on an annulus of pivot radii."""

    r0: float
    R0: float
    violations: int
    worst_value: float
    samples: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def scan_transversality(f: Nonlinearity, r0: float, R0: float, n_samples: int,
                        t_grid: np.ndarray, space: GalerkinSpace, seed=0) -> TransversalityReport:
    """Scan ``<f(t,x), x>_H`` over pivot spheres of ``space`` with radii log-spaced
    in [r0, R0], calling f once per time of ``t_grid`` on all the points.

    An unbounded outer radius is capped at ``10 r0``.  A failing report is a
    valid outcome; the scan can only falsify the inward-pointing condition.
    """
    if not 0.0 < r0 < R0:
        raise ValueError("need 0 < r0 < R0")
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    radii = np.geomspace(r0, min(R0, 10.0 * r0), 16)
    n_dirs = max(1, math.ceil(n_samples / (len(radii) * len(t_grid))))
    x = _points_of_radii(space, np.repeat(radii, n_dirs), np.random.default_rng(seed))
    vals = np.array([np.vecdot(np.asarray(f.eval(float(t), x)) @ space.gram_H, x)
                     for t in t_grid])
    return TransversalityReport(r0=r0, R0=R0, violations=int((vals > 0.0).sum()),
                                worst_value=float(vals.max()), samples=vals.size)


@dataclass(frozen=True)
class ConvexFunctional:
    """A convex, differentiable functional with a user-supplied gradient.

    Row contract: ``value`` maps ``(..., n)`` rows to ``(...)``, ``gradient``
    maps them to ``(..., n)``.  Wrap a one-row function in ``np.vectorize``
    with signature ``"(n)->()"`` or ``"(n)->(n)"``.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    dim: int
    lipschitz_grad: float | None = None


def quadratic_functional(dim: int) -> ConvexFunctional:
    """phi(x) = |x|^2 / 2; gradient is the identity."""
    return ConvexFunctional(
        value=lambda x: 0.5 * np.vecdot(x, x),
        gradient=lambda x: np.asarray(x, dtype=float),
        dim=dim,
        lipschitz_grad=1.0,
    )


def pseudo_huber_functional(dim: int) -> ConvexFunctional:
    """phi(x) = sum sqrt(1 + x_k^2); smooth, gradient bounded by 1 per component."""
    return ConvexFunctional(
        value=lambda x: np.sum(np.sqrt(1.0 + np.asarray(x) ** 2), axis=-1),
        gradient=lambda x: np.asarray(x) / np.sqrt(1.0 + np.asarray(x) ** 2),
        dim=dim,
        lipschitz_grad=1.0,
    )


def check_row_contract(fn: Callable[[np.ndarray], np.ndarray], core: int | tuple[int, ...],
                       signature: str, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``fn`` on a block of rows of shape
    ``core`` (an int n means ``(n,)``) equals ``np.vectorize(fn, signature=signature)``,
    i.e. fn row by row.  The rows lie along two leading axes unequal to each other and
    to every core axis, so an fn that indexes ``x[k]`` fails."""
    core = (core,) if np.isscalar(core) else tuple(core)
    lead = [k for k in range(2, 6) if k not in core][:2]
    block = np.linspace(-2.0, 2.0, math.prod(lead + list(core))).reshape(*lead, *core)
    rows = np.vectorize(fn, signature=signature)(block)
    try:
        out = np.asarray(fn(block), dtype=float)
    except (IndexError, TypeError, ValueError):
        out = None
    if out is None or out.shape != rows.shape or not np.allclose(out, rows, 1e-12, 1e-12,
                                                                 equal_nan=True):
        raise ValueError(f"{name} breaks the row contract: on a block of rows of shape {core} "
                         f"it must equal np.vectorize({name}, signature='{signature}')")


def check_monotone(phi: ConvexFunctional, n_pairs: int, seed=0) -> float:
    """Smallest <grad(x) - grad(y), x - y> over pairs drawn in [-10, 10]^dim; >= 0 if monotone."""
    if n_pairs < 100:
        raise ValueError("n_pairs must be at least 100")
    xy = np.random.default_rng(seed).uniform(-10.0, 10.0, (n_pairs, 2, phi.dim))
    grad = phi.gradient(xy)
    return float(np.vecdot(grad[:, 0] - grad[:, 1], xy[:, 0] - xy[:, 1]).min())


def gradient_consistency(phi: ConvexFunctional, n_points: int, h: float, seed=0) -> float:
    """Worst relative gap between the gradient and central differences of phi on [-2, 2]^dim."""
    if not 1e-7 <= h <= 1e-3:
        raise ValueError("h must lie in [1e-7, 1e-3]")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, (n_points, phi.dim))
    d = rng.standard_normal((n_points, phi.dim))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    fd = (phi.value(x + h * d) - phi.value(x - h * d)) / (2.0 * h)
    gd = np.vecdot(phi.gradient(x), d)
    return float((np.abs(fd - gd) / (1.0 + np.abs(gd))).max())


def evi_residual(form: TimeForm, phi: ConvexFunctional, traj: Trajectory,
                 n_test: int, seed=0) -> float:
    """Variational-inequality residual of a gradient-flow trajectory.

    For interior nodes (derivative by central differences) and random test
    points v, evaluates ``<u' + A u, v - u>_H - phi(u) + phi(v)``; on an exact
    gradient-flow solution this is nonnegative by convexity, and the discrete
    defect is first order in the step size.  Test points in ``[-r, r]^dim``, r = max |u|_H + 1,
    are drawn node by node as one generator stream, in chunks of ``ROW_CHUNK`` points.
    """
    if n_test < 1:
        raise ValueError("n_test must be at least 1")
    if traj.grid.n_steps < 2:
        raise ValueError("the grid has no interior node to test")
    rng = np.random.default_rng(seed)
    gh = traj.space.gram_H
    dt = traj.grid.dt
    test_radius = float(traj.h_norms.max()) + 1.0
    # <u' + A u, w>_H = (G_H u')^T w + (S u)^T w in coordinates, at every interior node
    vals = traj.values[:, :, None]
    du = (vals[2:] - vals[:-2]) / (2.0 * dt)
    lin = (gh @ du + stiffness_stack(form, None, traj.grid.nodes[1:-1]) @ vals[1:-1])[:, :, 0]
    u = traj.values[1:-1]
    phi_u = phi.value(u)
    n_points = len(u) * n_test
    worst = 0.0  # v = u contributes exactly zero
    for start in range(0, n_points, ROW_CHUNK):
        node = np.arange(start, min(start + ROW_CHUNK, n_points)) // n_test
        v = rng.uniform(-test_radius, test_radius, (len(node), phi.dim))
        res = np.vecdot(lin[node], v - u[node]) - phi_u[node] + phi.value(v)
        worst = min(worst, float(res.min()))
    return worst
