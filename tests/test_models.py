import math

import numpy as np
import pytest

from parabolic_nonlocal.evolution import l2h_distance, propagate
from parabolic_nonlocal.galerkin import (
    audit_dini,
    build_sine_space,
    default_audit_grid,
    estimate_bounds,
    stiffness_stack,
)
from parabolic_nonlocal.models import (
    CoefficientField,
    audit_coefficient_field,
    constant_coefficient,
    cosine_bump_kernel,
    divergence_form_assemble,
    heat_source_pattern,
    preset_evi,
    preset_heat_timevarying,
    time_power_coefficient,
)
from parabolic_nonlocal.nonlinearity import (
    ConvexFunctional,
    evi_residual,
    quadratic_functional,
)
from parabolic_nonlocal.nonlocal_solver import (
    SolverConfig,
    audit_problem,
    g_constant,
    solve_nonlocal,
    unshift_trajectory,
)


def at(form, t):
    return stiffness_stack(form, None, [t])[0]


def heat_closed_form(n_modes, nodes, panels=512, q=10):
    """The heat preset's exact path at ``nodes`` (multiples of 1 / panels), in the user frame.

    kappa = 1 + t^0.6 / 2 and the sine basis make mode k the scalar problem
    ``u' = -k^2 kappa(t) u + sin(pi t) p_k`` with ``u(0) = c_k int_0^1/2 u``.  With
    ``K(t) = k^2 (t + t^1.6 / 3.2)`` and ``F(t) = int_0^t e^K(s) sin(pi s) ds``,
    ``u(t) = e^-K(t) (u(0) + p_k F(t))`` and ``u(0) = c_k p_k W / (1 - c_k E)``, where
    ``E`` and ``W`` are the integrals over [0, 1/2] of ``e^-K`` and ``e^-K F``.  The
    integrals are q-point Gauss-Legendre panels; c_k is the raised cosine's transform.
    """
    k2 = np.arange(1, n_modes + 1, dtype=float) ** 2
    big_k = lambda t: (t + 0.5 * t**1.6 / 1.6)[..., None] * k2  # modes last
    integrand = lambda s: np.exp(big_k(s)) * np.sin(math.pi * s)[..., None]
    x, w = np.polynomial.legendre.leggauss(q)
    a, h = np.linspace(0.0, 1.0, panels + 1)[:-1, None], 0.5 / panels
    pts = a + h * (1.0 + x)  # (panels, q)
    f_edges = np.concatenate([np.zeros((1, n_modes)),
                              np.cumsum(h * np.einsum("pqn,q->pn", integrand(pts), w), axis=0)])
    # F at the Gauss points of [0, 1/2]: its panel's start plus a nested rule on [a, tau]
    tau, a0 = pts[:panels // 2], a[:panels // 2]
    hs = 0.5 * (tau - a0)
    sub = a0[..., None] + hs[..., None] * (1.0 + x)  # (panels / 2, q, q)
    f_tau = f_edges[:panels // 2, None] + hs[..., None] * np.einsum("pqrn,r->pqn",
                                                                    integrand(sub), w)
    decay = np.exp(-big_k(tau))
    e_half = h * np.einsum("pqn,q->n", decay, w)
    w_half = h * np.einsum("pqn,q->n", decay * f_tau, w)
    omega, width, b = np.sqrt(k2), 4.0, math.pi / 4.0
    c = (np.sin(omega * width) / (omega * width)
         - np.sin(omega * width) / (2.0 * width) * (1.0 / (omega + b) + 1.0 / (omega - b)))
    p = 0.1 * heat_source_pattern(build_sine_space(n_modes, math.pi))
    u0 = c * p * w_half / (1.0 - c * e_half)
    return np.exp(-big_k(nodes)) * (u0 + p * f_edges[np.rint(nodes * panels).astype(int)])


class TestCoefficientFields:
    def test_constant_field_audits_clean(self):
        field = constant_coefficient(2.0)
        audit = audit_coefficient_field(field, 1.0, math.pi)
        assert audit["ellipticity_ok"] and audit["holder_ok"]

    def test_time_power_field_audits_clean(self):
        field = time_power_coefficient(1.0, 0.5, 0.6)
        audit = audit_coefficient_field(field, 1.0, math.pi)
        assert audit["ellipticity_ok"] and audit["holder_ok"]

    def test_understated_increment_bound_caught(self):
        # rougher-in-time than declared: increments of t^0.4 exceed K t^0.6
        lying = CoefficientField(lambda t, x: 1.0 + 0.5 * t**0.4, nu=1.0,
                                 holder_K=0.5, holder_exponent=0.6)
        audit = audit_coefficient_field(lying, 1.0, math.pi)
        assert not audit["holder_ok"]

    def test_audit_samples_match_scalar_draws(self):
        # one (n, 3) uniform draw is the per-sample (x, t1, t2) stream
        field = CoefficientField(lambda t, x: 1.0 + 0.5 * t**0.4 + 0.1 * np.sin(x), nu=0.9,
                                 holder_K=0.5, holder_exponent=0.6)
        rng = np.random.default_rng(3)
        ell, excess = math.inf, -math.inf
        for _ in range(400):
            x = float(rng.uniform(0.0, math.pi))
            t1, t2 = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))
            k1, k2 = field.eval(t1, x), field.eval(t2, x)
            ell = min(ell, k1)
            excess = max(excess, abs(k1 - k2) - 0.5 * abs(t1 - t2) ** 0.6)
        audit = audit_coefficient_field(field, 1.0, math.pi, seed=3)
        assert audit["ellipticity_min"] == pytest.approx(ell, abs=1e-15)
        assert audit["holder_excess"] == pytest.approx(excess, abs=1e-15)

    def test_floors_validated(self):
        with pytest.raises(ValueError):
            CoefficientField(lambda t, x: 1.0, nu=0.0, holder_K=1.0, holder_exponent=0.6)
        with pytest.raises(ValueError):
            CoefficientField(lambda t, x: 1.0, nu=1.0, holder_K=1.0, holder_exponent=1.5)


class TestDivergenceFormAssembly:
    def test_unit_coefficient_recovers_energy_gram(self):
        sp = build_sine_space(3, math.pi)
        form = divergence_form_assemble(constant_coefficient(1.0), sp, quad_order=6)
        s = at(form, 0.0)
        assert np.allclose(s, np.diag([1.0, 4.0, 9.0]), atol=1e-9)

    def test_linearity_in_coefficient(self):
        sp = build_sine_space(4, math.pi)
        one = divergence_form_assemble(constant_coefficient(1.0), sp, quad_order=6)
        two = divergence_form_assemble(constant_coefficient(2.0), sp, quad_order=6)
        assert np.allclose(at(two, 0.3),
                           2.0 * at(one, 0.3), atol=1e-13)

    def test_separable_coefficient_scales_and_audits(self):
        sp = build_sine_space(4, math.pi)
        field = time_power_coefficient(1.0, 0.5, 0.6)
        form = divergence_form_assemble(field, sp, quad_order=6)
        t = 1.0
        assert np.allclose(at(form, t),
                           1.5 * np.diag([1.0, 4.0, 9.0, 16.0]), atol=1e-8)
        m_hat, a_hat = estimate_bounds(form, default_audit_grid(1.0))
        assert m_hat == pytest.approx(1.5, abs=1e-6)
        assert a_hat == pytest.approx(1.0, abs=1e-6)
        rep = audit_dini(form, np.geomspace(1e-4, 1e-2, 9))
        assert rep.dini_pass
        assert rep.dini_exponent == pytest.approx(0.6, abs=0.05)

    def test_declared_constants_hold(self):
        sp = build_sine_space(4, math.pi)
        form = divergence_form_assemble(time_power_coefficient(1.0, 0.5, 0.6), sp, 6)
        m, a = estimate_bounds(form, default_audit_grid(form.horizon))
        assert m <= form.bound_M * (1 + 1e-6)
        assert a >= form.coercivity_alpha * (1 - 1e-6)

    def test_quadrature_refinement_stable(self):
        sp = build_sine_space(3, math.pi)
        field = time_power_coefficient(1.0, 0.5, 0.6)
        low = divergence_form_assemble(field, sp, quad_order=6)
        high = divergence_form_assemble(field, sp, quad_order=12)
        gap = np.abs(at(low, 0.7) - at(high, 0.7)).max()
        assert gap <= 1e-8

    def test_non_finite_coefficient_rejected(self):
        sp = build_sine_space(3, math.pi)
        holey = CoefficientField(lambda t, x: np.where(x < 1.0, 1.0, np.nan), nu=1.0,
                                 holder_K=1e-12, holder_exponent=1.0)
        with pytest.raises(ValueError, match="not finite"):
            divergence_form_assemble(holey, sp, quad_order=6)
        with pytest.raises(ValueError, match="not finite"):
            audit_coefficient_field(holey, 1.0, math.pi)

    def test_wrongly_shaped_coefficient_rejected(self):
        sp = build_sine_space(3, math.pi)
        field = CoefficientField(lambda t, x: np.ones(7), nu=1.0,
                                 holder_K=1e-12, holder_exponent=1.0)
        with pytest.raises(ValueError, match="shape"):
            divergence_form_assemble(field, sp, quad_order=6)

    def test_vectorized_scalar_coefficient_matches_array_form(self):
        sp = build_sine_space(4, math.pi)
        array_field = time_power_coefficient(1.0, 0.5, 0.6)
        scalar_field = CoefficientField(np.vectorize(lambda t, x: 1.0 + 0.5 * t**0.6),
                                        nu=1.0, holder_K=0.5, holder_exponent=0.6)
        a = divergence_form_assemble(array_field, sp, quad_order=6)
        b = divergence_form_assemble(scalar_field, sp, quad_order=6)
        assert a.bound_M == b.bound_M
        assert np.abs(at(a, 0.37) - at(b, 0.37)).max() <= 1e-15

    @pytest.mark.parametrize("n", [4, 8, 32])
    def test_stack_equals_per_time_quadrature(self, n):
        # the written-out rule: entries (D * (w kappa(t))) @ D.T over the same points
        length = 2.0
        sp = build_sine_space(n, length)
        field = CoefficientField(lambda t, x: 1.0 + 0.5 * t**0.6 + 0.3 * np.sin(x) ** 2,
                                 nu=1.0, holder_K=0.5, holder_exponent=0.6)
        form = divergence_form_assemble(field, sp, quad_order=6)
        qn, qw = np.polynomial.legendre.leggauss(6)
        edges = np.linspace(0.0, length, max(16, 2 * n) + 1)
        half = 0.5 * np.diff(edges)
        xs = (0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * qn).ravel()
        ws = (half[:, None] * qw).ravel()
        k = np.arange(1, n + 1)[:, None]
        d = math.sqrt(2.0 / length) * (k * math.pi / length) * np.cos(k * math.pi * xs / length)
        times = np.linspace(0.0, 1.0, 7)
        ref = np.array([(d * (ws * field.eval(t, xs))) @ d.T for t in times])
        stack = stiffness_stack(form, None, times)
        assert np.abs(stack - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_order_floor(self):
        sp = build_sine_space(2, math.pi)
        with pytest.raises(ValueError):
            divergence_form_assemble(constant_coefficient(1.0), sp, quad_order=2)


class TestMollifierKernels:
    def test_unit_mass(self):
        k = cosine_bump_kernel(3.0)
        assert k.mass == pytest.approx(1.0, abs=1e-6)

    def test_derivative_mass_scales_inversely_with_width(self):
        for width in (2.5, 4.0, 8.0):
            k = cosine_bump_kernel(width)
            assert k.derivative_mass == pytest.approx(2.0 / width, rel=1e-3)

    def test_profile_takes_arrays(self):
        k = cosine_bump_kernel(2.0)
        xs = np.array([-3.0, -2.0, -1.0, 0.0, 0.5, 2.0])
        expected = [0.0 if abs(x) >= 2.0 else (1.0 + math.cos(math.pi * x / 2.0)) / 4.0
                    for x in xs]
        assert np.abs(k.profile(xs) - expected).max() <= 1e-16

    def test_bad_support_rejected(self):
        from parabolic_nonlocal.models import MollifierKernel

        with pytest.raises(ValueError):
            MollifierKernel(lambda x: 1.0, support_radius=-1.0, derivative_mass=0.5, mass=1.0)
        with pytest.raises(ValueError):
            MollifierKernel(lambda x: 1.0, support_radius=1.0, derivative_mass=0.5, mass=0.9)


class TestHeatPreset:
    def test_floors(self):
        with pytest.raises(ValueError):
            preset_heat_timevarying(3, 64)
        with pytest.raises(ValueError):
            preset_heat_timevarying(4, 32)

    def test_audits_pass_before_solve(self):
        prob = preset_heat_timevarying(4, 64)
        assert prob.g.bound_params["solver_ok"]
        audit = audit_problem(prob, seed=1)
        assert audit["passed"]

    def test_solve_converges(self):
        prob = preset_heat_timevarying(4, 64)
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-10))
        assert rep.converged
        assert rep.fixed_point_residual <= 1e-8

    def test_zero_data_variant_is_zero(self):
        from dataclasses import replace

        from parabolic_nonlocal.nonlinearity import zero_nonlinearity

        prob = preset_heat_timevarying(4, 64)
        trivial = replace(prob, f=zero_nonlinearity(), g=g_constant(np.zeros(4)))
        rep = solve_nonlocal(trivial)
        assert rep.converged
        assert not rep.solution.values.any()

    def test_refinement_changes_endpoint_at_scheme_order(self):
        cfg = SolverConfig(inner_tol=1e-11)
        coarse = solve_nonlocal(preset_heat_timevarying(4, 64), cfg)
        fine = solve_nonlocal(preset_heat_timevarying(4, 128), cfg)
        finest = solve_nonlocal(preset_heat_timevarying(4, 256), cfg)
        sp = coarse.solution.space
        d1 = sp.h_norm(coarse.solution.values[-1] - fine.solution.values[-1])
        d2 = sp.h_norm(fine.solution.values[-1] - finest.solution.values[-1])
        assert d2 < d1
        # drift at the endpoint shrinks roughly like dt^2
        assert d1 / d2 == pytest.approx(4.0, rel=0.5)

    def test_unshifted_path_matches_closed_form_at_second_order(self):
        # sup-in-time pivot error of the solve mapped back to the user frame, against
        # the per-mode closed form; the bounds are twice the errors measured when added
        measured = {64: 6.65e-6, 128: 1.67e-6, 256: 4.17e-7, 512: 1.05e-7}
        errors = []
        for n_steps, bound in measured.items():
            prob = preset_heat_timevarying(8, n_steps)
            rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12, g_star_samples=1))
            assert rep.converged
            back = unshift_trajectory(rep.solution, prob.shift_mu)
            errors.append(float(back.space.h_norm(back.values
                                                  - heat_closed_form(8, prob.grid.nodes)).max()))
            assert errors[-1] <= 2.0 * bound
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all((orders >= 1.9) & (orders <= 2.1)), orders


class TestEviPreset:
    def test_quadratic_mode_one_closed_form(self):
        phi = quadratic_functional(4)
        prob = preset_evi(4, 256, phi)
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-10))
        assert rep.converged
        exact = np.exp(-2.0 * rep.solution.grid.nodes)
        assert np.abs(rep.solution.values[:, 0] - exact).max() < 1e-4
        assert np.abs(rep.solution.values[:, 1:]).max() < 1e-12

    def test_zero_functional_reduces_to_homogeneous_flow(self):
        zero_phi = ConvexFunctional(np.vectorize(lambda x: 0.0, signature="(n)->()"),
                                    lambda x: np.zeros_like(x), 4, 0.0)
        prob = preset_evi(4, 64, zero_phi)
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12, lambda_steps=2))
        x0 = np.zeros(4)
        x0[0] = 1.0
        hom = propagate(prob.form, prob.proj, prob.grid, x0)
        assert l2h_distance(rep.solution, hom) <= 1e-10

    def test_variational_inequality_residual(self):
        phi = quadratic_functional(4)
        prob = preset_evi(4, 128, phi)
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-10))
        res = evi_residual(prob.form, phi, rep.solution, 50, seed=4)
        assert res >= -10.0 * prob.grid.dt

    def test_audit_gate(self):
        concave = ConvexFunctional(np.vectorize(lambda x: -0.5 * float(x @ x), signature="(n)->()"),
                                   lambda x: -np.asarray(x), 4, 1.0)
        with pytest.raises(ValueError):
            preset_evi(4, 64, concave)
        no_lip = ConvexFunctional(np.vectorize(lambda x: 0.5 * float(x @ x), signature="(n)->()"),
                                  lambda x: np.asarray(x), 4, None)
        with pytest.raises(ValueError):
            preset_evi(4, 64, no_lip)
