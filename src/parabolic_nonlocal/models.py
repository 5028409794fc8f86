"""Concrete problem instances: divergence-form coefficients on an interval,
mollifier kernels, and ready-to-solve presets.

Presets are one-dimensional on purpose: every bundled instance has a
closed-form or independently computable oracle at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .evolution import TimeGrid
from .galerkin import GalerkinSpace, TimeForm, _gauss_panels, build_sine_space, project
from .nonlinearity import (ConvexFunctional, Nonlinearity, bounded_source, check_monotone,
                           check_row_contract, gradient_consistency)
from .nonlocal_solver import (
    NonlocalProblem,
    _exp_shift_fields,
    g_constant,
    g_mollified_integral,
)


class QuadratureNotConverged(ValueError):
    """The stiffness quadrature does not resolve the coefficient field."""


@dataclass(frozen=True)
class CoefficientField:
    """Scalar diffusion coefficient kappa(t, x) with declared floors.

    ``eval`` takes numpy arrays of times and points and returns kappa on
    their broadcast shape (a scalar is broadcast too); wrap a function that
    only takes scalars in ``np.vectorize``.  ``nu`` is the ellipticity
    floor, ``holder_K``/``holder_exponent`` bound the time increments; the
    exponent must exceed 1/2 for the form's time-regularity audit to pass.
    """

    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    nu: float
    holder_K: float
    holder_exponent: float

    def __post_init__(self) -> None:
        if not (self.nu > 0.0 and math.isfinite(self.nu)):  # NaN fails too
            raise ValueError(f"ellipticity floor nu must be positive and finite, got {self.nu!r}")
        if not (self.holder_K >= 0.0 and math.isfinite(self.holder_K)):
            raise ValueError(f"holder_K must be nonnegative and finite, got {self.holder_K!r}")
        if not 0.0 < self.holder_exponent <= 1.0:
            raise ValueError("holder_exponent must lie in (0, 1]")


def constant_coefficient(value: float) -> CoefficientField:
    return CoefficientField(lambda t, x: value, nu=value, holder_K=1e-12, holder_exponent=1.0)


def time_power_coefficient(base: float = 1.0, amp: float = 0.5,
                           exponent: float = 0.6) -> CoefficientField:
    """kappa(t, x) = base + amp * t^exponent; exponent in (0,1] gives the
    matching time-increment bound with constant amp."""
    return CoefficientField(
        eval=lambda t, x: base + amp * t**exponent,
        nu=base,
        holder_K=amp,
        holder_exponent=exponent,
    )


def _kappa(field: CoefficientField, t, x) -> np.ndarray:
    """kappa on the broadcast shape of ``t`` and ``x``, checked finite."""
    shape = np.broadcast_shapes(np.shape(t), np.shape(x))
    values = np.asarray(field.eval(t, x), dtype=float)
    try:
        values = np.broadcast_to(values, shape)
    except ValueError:
        raise ValueError(f"coefficient returned shape {values.shape}, expected {shape}") from None
    if not np.all(np.isfinite(values)):
        raise ValueError("coefficient field is not finite")
    return values


def audit_coefficient_field(field: CoefficientField, horizon: float, domain_length: float,
                            seed=0) -> dict:
    """Spot-check the declared ellipticity and time-increment bounds at 400 random points."""
    rng = np.random.default_rng(seed)
    x, t1, t2 = rng.uniform(0.0, [domain_length, horizon, horizon], (400, 3)).T
    k1 = _kappa(field, t1, x)
    ell_worst = float(k1.min())
    bound = field.holder_K * np.abs(t1 - t2) ** field.holder_exponent
    holder_worst = float((np.abs(k1 - _kappa(field, t2, x)) - bound).max())
    return {
        "ellipticity_ok": bool(ell_worst >= field.nu - 1e-12),
        "ellipticity_min": ell_worst,
        "holder_ok": bool(holder_worst <= 1e-10),
        "holder_excess": holder_worst,
    }


@dataclass(frozen=True)
class MollifierKernel:
    """A nonnegative, compactly supported, unit-mass smoothing profile.

    ``profile`` takes a numpy array of points and returns an array of the
    same shape; wrap a function that only takes scalars in ``np.vectorize``.
    ``derivative_mass`` is the L1 mass of the profile's derivative; it must
    stay below 1 for the kernel to be usable in nonlocal solves.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    derivative_mass: float
    mass: float

    def __post_init__(self) -> None:
        radius, deriv = self.support_radius, self.derivative_mass
        if not (radius > 0.0 and math.isfinite(radius)):  # NaN fails too
            raise ValueError(f"support_radius must be positive and finite, got {radius!r}")
        if not (deriv >= 0.0 and math.isfinite(deriv)):
            raise ValueError(f"derivative_mass must be nonnegative and finite, got {deriv!r}")
        if not 1.0 - 1e-6 <= self.mass <= 1.0 + 1e-6:
            raise ValueError(f"kernel mass {self.mass} is not 1 within 1e-6")


def cosine_bump_kernel(width: float) -> MollifierKernel:
    """Raised-cosine bump of the given half-width, which must lie in [1e-150, 1e150].

    Its mass is 1 and its derivative mass 2/width, both in closed form, so widths
    above 2 are usable for solves.
    """
    if not 1e-150 <= width <= 1e150:  # NaN fails too
        raise ValueError(f"width must lie in [1e-150, 1e150], got {width!r}")

    def profile(x: np.ndarray) -> np.ndarray:
        return np.where(np.abs(x) >= width, 0.0,
                        (1.0 + np.cos(math.pi * x / width)) / (2.0 * width))

    return MollifierKernel(profile=profile, support_radius=width, derivative_mass=2.0 / width,
                           mass=1.0)


def divergence_form_assemble(field: CoefficientField, space: GalerkinSpace,
                             quad_order: int, horizon: float = 1.0) -> TimeForm:
    """Stiffness of the 1-D divergence form: entries of kappa against mode
    derivatives by composite Gauss-Legendre quadrature.

    The sine modes' derivatives ``D_k = sqrt(2/L) a_k cos(k theta)``, with
    ``a_k = k pi / L`` and ``theta = pi x / L``, multiply by the product-to-sum
    identity ``D_i D_j = (a_i a_j / L) (cos((i-j) theta) + cos((i+j) theta))``.
    So a stack on k times is kappa, evaluated once on ``(times, points)``,
    times the weights, contracted with the 2n + 1 cosines ``cos(m theta)``
    and gathered at ``|i - j|`` and ``i + j`` by a C-order gather.

    The assembly is verified by comparing against doubled quadrature order at
    three sampled times; an entry drift above ``1e-8 max(1, largest |entry|)`` at a
    time raises :class:`QuadratureNotConverged`.
    """
    if quad_order < 4:
        raise ValueError("quad_order must be at least 4")

    length = space.domain_length
    n = space.n_modes
    k = np.arange(1, n + 1)
    with np.errstate(over="ignore"):  # overflow is rejected below
        scale = np.outer(k, k) * np.square(math.pi / length) / length
    if not np.isfinite(scale).all():
        raise ValueError(f"length {length!r} is too small: the stiffness overflows at {n} modes")
    diff, total = np.abs(k[:, None] - k), k[:, None] + k

    def quad_rule(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        xs, ws = _gauss_panels(0.0, length, max(16, 2 * n), order)
        return xs, ws, np.cos(np.outer(xs, np.arange(2 * n + 1) * (math.pi / length)))

    def assemble(times: np.ndarray, xs, ws, cosines) -> np.ndarray:
        c = (_kappa(field, times[:, None], xs) * ws) @ cosines
        stack = np.take(c, diff, axis=1)  # C order; c[:, diff] would put time innermost
        stack += np.take(c, total, axis=1)
        stack *= scale
        return stack

    rule = quad_rule(quad_order)
    checks = np.array([0.0, 0.5 * horizon, horizon])
    low = assemble(checks, *rule)
    gaps = np.abs(low - assemble(checks, *quad_rule(2 * quad_order))).max(axis=(1, 2))
    tols = 1e-8 * np.maximum(1.0, np.abs(low).max(axis=(1, 2)))
    if (gaps > tols).any():
        worst = int((gaps / tols).argmax())
        raise QuadratureNotConverged(
            f"quadrature not converged at t={checks[worst]}: entry drift {gaps[worst]:.2e}")

    t_samples = np.linspace(0.0, horizon, 33)
    x_samples = np.linspace(0.0, length, 65)
    sup_kappa = float(_kappa(field, t_samples[:, None], x_samples[None, :]).max())

    return TimeForm(
        space=space,
        stiffness_at=lambda times: assemble(times, *rule),
        bound_M=sup_kappa,
        coercivity_alpha=field.nu,
        horizon=horizon,
        shift_delta=0.0,
    )


def heat_source_pattern(space: GalerkinSpace) -> np.ndarray:
    """Smooth unit-pivot-norm source direction with exponentially decaying modes."""
    raw = np.exp(-np.arange(1, space.n_modes + 1, dtype=float))
    return raw / space.h_norm(raw)


def preset_heat_timevarying(n_modes: int, n_steps: int) -> NonlocalProblem:
    """Linear heat flow with a rough-in-time coefficient and a smoothed
    integral initial condition, pre-shifted so the standing audits pass.  It is
    built shifted: the problem in the user's frame is never built or validated.

    The returned problem carries ``shift_mu``; map solutions back with
    :func:`parabolic_nonlocal.nonlocal_solver.unshift_trajectory`.
    """
    if n_modes < 4:
        raise ValueError("n_modes must be at least 4")
    if n_steps < 64:
        raise ValueError("n_steps must be at least 64")
    space = build_sine_space(n_modes, math.pi)
    horizon = 1.0
    field = time_power_coefficient(1.0, 0.5, 0.6)
    form = divergence_form_assemble(field, space, quad_order=6, horizon=horizon)

    sup_source = 0.1
    pattern = sup_source * heat_source_pattern(space)
    f = bounded_source(lambda ts: np.sin(np.pi * ts)[:, None] * pattern, sup_source)

    kernel = cosine_bump_kernel(4.0)
    g = g_mollified_integral(kernel, [(0.0, 0.5)], space)

    eps = 0.4
    return NonlocalProblem(
        proj=project(space, n_modes),
        grid=TimeGrid(horizon, n_steps),
        r0=0.5,
        R0=math.inf,
        shift_mu=eps,
        **_exp_shift_fields(form, f, g, eps),
    )


def preset_evi(n_modes: int, n_steps: int, phi: ConvexFunctional) -> NonlocalProblem:
    """Gradient-flow problem u' + A u = -grad phi(u) with classical data.

    The functional must follow the row contract of :class:`ConvexFunctional`
    and pass the monotonicity and gradient-consistency audits; its gradient
    growth comes from the declared Lipschitz constant.
    """
    if n_modes < 1 or n_steps < 8:
        raise ValueError("need n_modes >= 1 and n_steps >= 8")
    if phi.lipschitz_grad is None:
        raise ValueError("phi must declare a gradient Lipschitz constant")
    for name, signature in (("value", "(n)->()"), ("gradient", "(n)->(n)")):
        check_row_contract(getattr(phi, name), phi.dim, signature, f"phi.{name}")
    if check_monotone(phi, 200) < -1e-10:
        raise ValueError("phi failed the monotonicity audit")
    if gradient_consistency(phi, 100, 1e-5) > 1e-5:
        raise ValueError("phi failed the gradient-consistency audit")

    space = build_sine_space(n_modes, math.pi)
    horizon = 1.0
    form = divergence_form_assemble(constant_coefficient(1.0), space,
                                    quad_order=6, horizon=horizon)
    u0 = np.zeros(n_modes)
    u0[0] = 1.0
    grad0 = np.linalg.norm(np.asarray(phi.gradient(np.zeros(n_modes)), dtype=float))
    f = Nonlinearity(
        eval=lambda t, x: -np.asarray(phi.gradient(x), dtype=float),
        growth_a=float(phi.lipschitz_grad),
        growth_b=lambda t: grad0,
    )
    return NonlocalProblem(
        form=form,
        proj=project(space, n_modes),
        f=f,
        g=g_constant(u0),
        grid=TimeGrid(horizon, n_steps),
        r0=space.h_norm(u0) + 1.0,
        R0=math.inf,
    )
