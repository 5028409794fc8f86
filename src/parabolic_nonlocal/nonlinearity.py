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
from .galerkin import Matrix, TimeForm, Vector, stiffness_stack


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


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
    :func:`growth_audit` spot-checks the promise.
    """

    eval: Callable[[float, Vector], Vector]
    growth_a: float
    growth_b: Callable[[float], float]
    label: str = ""


def zero_nonlinearity() -> Nonlinearity:
    return Nonlinearity(lambda t, x: np.zeros_like(x), 0.0, lambda t: 0.0, "zero")


def negated_identity() -> Nonlinearity:
    return Nonlinearity(lambda t, x: -x, 1.0, lambda t: 0.0, "negated_identity")


def saturating_drift(dim: int) -> Nonlinearity:
    """Saturating restoring force plus a bounded oscillation on the first mode."""

    def f(t: float, x: Vector) -> Vector:
        out = -x / (1.0 + np.linalg.norm(x, axis=-1, keepdims=True))
        out[..., 0] += math.sin(t)
        return out

    return Nonlinearity(f, 1.0, lambda t: 1.0, "saturating_drift")


def bounded_source(values_at: Callable[[float], Vector], sup_norm: float,
                   label: str = "bounded_source") -> Nonlinearity:
    """State-independent source f(t, x) = h(t) with |h(t)|_H <= sup_norm."""
    return Nonlinearity(lambda t, x: np.asarray(values_at(t), dtype=float),
                        0.0, lambda t: sup_norm, label)


def apply_superposition(f: Nonlinearity, traj: Trajectory) -> np.ndarray:
    """Apply f node-by-node along a trajectory."""
    out = np.empty_like(traj.values)
    for j, t in enumerate(traj.grid.nodes):
        out[j] = f.eval(float(t), traj.values[j])
        if not np.all(np.isfinite(out[j])):
            raise ValueError(f"nonlinearity returned non-finite values at t={t}")
    return out


def growth_audit(f: Nonlinearity, dim: int, horizon: float, n_samples: int = 1000,
                 max_radius: float = 1e3, seed=0,
                 gram_H: Matrix | None = None) -> tuple[bool, float]:
    """Spot-check the declared growth bound.

    Draws times in [0, horizon] and points with pivot norms log-spread up to
    ``max_radius``.  Returns (passed, worst_excess) where the excess is
    ``|f(t,x)| - a |x| - b(t)``; pass means excess <= 1e-10 everywhere sampled.
    """
    rng = _rng(seed)
    gh = np.eye(dim) if gram_H is None else gram_H
    worst = -math.inf
    for _ in range(n_samples):
        t = float(rng.uniform(0.0, horizon))
        direction = rng.standard_normal(dim)
        direction /= math.sqrt(direction @ gh @ direction)
        radius = 10.0 ** rng.uniform(-2.0, math.log10(max_radius))
        x = radius * direction
        fx = np.asarray(f.eval(t, x), dtype=float)
        lhs = math.sqrt(max(fx @ gh @ fx, 0.0))
        excess = lhs - f.growth_a * radius - f.growth_b(t)
        worst = max(worst, excess)
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
                        t_grid: np.ndarray, dim: int, seed=0,
                        gram_H: Matrix | None = None) -> TransversalityReport:
    """Scan ``<f(t,x), x>_H`` over spheres with radii log-spaced in [r0, R0].

    An unbounded outer radius is capped at ``10 r0``.  A failing report is a
    valid outcome; the scan can only falsify the inward-pointing condition.
    """
    if not 0.0 < r0 < R0:
        raise ValueError("need 0 < r0 < R0")
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    rng = _rng(seed)
    gh = np.eye(dim) if gram_H is None else gram_H
    cap = min(R0, 10.0 * r0)
    n_radii = 16
    radii = np.geomspace(r0, cap, n_radii)
    n_dirs = max(1, math.ceil(n_samples / (n_radii * len(t_grid))))
    worst = -math.inf
    violations = 0
    total = 0
    for radius in radii:
        for _ in range(n_dirs):
            direction = rng.standard_normal(dim)
            direction /= math.sqrt(direction @ gh @ direction)
            x = radius * direction
            for t in t_grid:
                val = float(np.asarray(f.eval(float(t), x)) @ gh @ x)
                worst = max(worst, val)
                if val > 0.0:
                    violations += 1
                total += 1
    return TransversalityReport(r0=r0, R0=R0, violations=violations,
                                worst_value=worst, samples=total)


@dataclass(frozen=True)
class ConvexFunctional:
    """A convex, differentiable functional with a user-supplied gradient."""

    value: Callable[[Vector], float]
    gradient: Callable[[Vector], Vector]
    dim: int
    lipschitz_grad: float | None = None


def quadratic_functional(dim: int) -> ConvexFunctional:
    """phi(x) = |x|^2 / 2; gradient is the identity."""
    return ConvexFunctional(
        value=lambda x: 0.5 * float(x @ x),
        gradient=lambda x: np.asarray(x, dtype=float),
        dim=dim,
        lipschitz_grad=1.0,
    )


def pseudo_huber_functional(dim: int) -> ConvexFunctional:
    """phi(x) = sum sqrt(1 + x_k^2); smooth, gradient bounded by 1 per component."""
    return ConvexFunctional(
        value=lambda x: float(np.sum(np.sqrt(1.0 + np.asarray(x) ** 2))),
        gradient=lambda x: np.asarray(x) / np.sqrt(1.0 + np.asarray(x) ** 2),
        dim=dim,
        lipschitz_grad=1.0,
    )


def check_monotone(phi: ConvexFunctional, n_pairs: int, seed=0,
                   radius: float = 10.0) -> float:
    """Smallest sampled value of <grad(x) - grad(y), x - y>; monotone means >= 0."""
    if n_pairs < 100:
        raise ValueError("n_pairs must be at least 100")
    rng = _rng(seed)
    worst = math.inf
    for _ in range(n_pairs):
        x = rng.uniform(-radius, radius, phi.dim)
        y = rng.uniform(-radius, radius, phi.dim)
        gap = float((phi.gradient(x) - phi.gradient(y)) @ (x - y))
        worst = min(worst, gap)
    return worst


def gradient_consistency(phi: ConvexFunctional, n_points: int, h: float,
                         seed=0, radius: float = 2.0) -> float:
    """Worst relative gap between the gradient and central differences of phi."""
    if not 1e-7 <= h <= 1e-3:
        raise ValueError("h must lie in [1e-7, 1e-3]")
    rng = _rng(seed)
    worst = 0.0
    for _ in range(n_points):
        x = rng.uniform(-radius, radius, phi.dim)
        d = rng.standard_normal(phi.dim)
        d /= np.linalg.norm(d)
        fd = (phi.value(x + h * d) - phi.value(x - h * d)) / (2.0 * h)
        gd = float(phi.gradient(x) @ d)
        worst = max(worst, abs(fd - gd) / (1.0 + abs(gd)))
    return worst


def convexity_probe(phi: ConvexFunctional, n_segments: int = 200, seed=0,
                    radius: float = 5.0) -> float:
    """Worst midpoint-convexity defect over sampled segments (<= 0 for convex phi)."""
    rng = _rng(seed)
    worst = -math.inf
    for _ in range(n_segments):
        x = rng.uniform(-radius, radius, phi.dim)
        y = rng.uniform(-radius, radius, phi.dim)
        defect = phi.value(0.5 * (x + y)) - 0.5 * (phi.value(x) + phi.value(y))
        worst = max(worst, defect)
    return worst


def evi_residual(form: TimeForm, phi: ConvexFunctional, traj: Trajectory,
                 n_test: int, seed=0, test_radius: float | None = None) -> float:
    """Variational-inequality residual of a gradient-flow trajectory.

    For interior nodes (derivative by central differences) and random test
    points v, evaluates ``<u' + A u, v - u>_H - phi(u) + phi(v)``; on an exact
    gradient-flow solution this is nonnegative by convexity, and the discrete
    defect is first order in the step size.
    """
    if n_test < 1:
        raise ValueError("n_test must be at least 1")
    rng = _rng(seed)
    gh = traj.space.gram_H
    dt = traj.grid.dt
    if test_radius is None:
        test_radius = float(traj.h_norms.max()) + 1.0
    # <u' + A u, w>_H = (G_H u')^T w + (S u)^T w in coordinates, at every interior node
    vals = traj.values[:, :, None]
    du = (vals[2:] - vals[:-2]) / (2.0 * dt)
    lin = (gh @ du + stiffness_stack(form, None, traj.grid.nodes[1:-1]) @ vals[1:-1])[:, :, 0]
    worst = math.inf
    for u, lin_j in zip(traj.values[1:-1], lin):
        phi_u = phi.value(u)
        for _ in range(n_test):
            v = rng.uniform(-test_radius, test_radius, phi.dim)
            res = float(lin_j @ (v - u)) - phi_u + phi.value(v)
            worst = min(worst, res)
        # v = u contributes exactly zero; keep it in the scan
        worst = min(worst, 0.0)
    return worst
