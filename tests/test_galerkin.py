import math
from dataclasses import replace

import numpy as np
import pytest

from parabolic_nonlocal.galerkin import (
    FormAuditReport,
    GalerkinSpace,
    TimeForm,
    audit_dini,
    build_sine_space,
    constant_form,
    default_audit_grid,
    estimate_bounds,
    project,
    stiffness_stack,
)


def at(form, t, proj=None):
    """The (optionally projected) stiffness at one time."""
    return stiffness_stack(form, proj, [t])[0]


def scaled_form(space, kappa, horizon=1.0, bound_M=None, alpha=None):
    gv = space.gram_V
    return TimeForm(
        space=space,
        stiffness_at=np.vectorize(lambda t: kappa(t) * gv, signature="()->(n,n)"),
        bound_M=bound_M if bound_M is not None else max(kappa(0.0), kappa(horizon)),
        coercivity_alpha=alpha if alpha is not None else min(kappa(0.0), kappa(horizon)),
        horizon=horizon,
    )


def random_gram_form(n, rng):
    """A time-varying form on a space whose pivot and energy Grams are both non-diagonal."""
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    gh = np.eye(n) + 0.2 * a @ a.T / n
    gv = np.diag((np.arange(1.0, n + 1)) ** 2) + 0.3 * b @ b.T / n
    w, q = np.linalg.eigh(gv)
    irv = q @ np.diag(w**-0.5) @ q.T
    embed = math.sqrt(np.linalg.eigvalsh(irv @ gh @ irv).max()) * (1.0 + 1e-9)
    sp = GalerkinSpace(n, 1.0, gh, gv, embed)
    skew = rng.standard_normal((n, n))
    skew = 0.5 * (skew - skew.T)
    return TimeForm(sp, np.vectorize(lambda t: (1.0 + 0.5 * math.sin(3.0 * t)) * gv + skew * t,
                                     signature="()->(n,n)"),
                    bound_M=10.0, coercivity_alpha=0.5, horizon=1.0)


class TestSineSpace:
    def test_v_gram_is_squared_wavenumbers(self):
        # int_0^pi (phi_k')^2 dx = k^2 by direct integration
        sp = build_sine_space(3, math.pi)
        assert np.allclose(sp.gram_V, np.diag([1.0, 4.0, 9.0]))
        assert np.allclose(sp.gram_H, np.eye(3))

    def test_poincare_constant_unit_interval_pi(self):
        sp = build_sine_space(1, math.pi)
        assert np.allclose(sp.gram_H, [[1.0]])
        assert sp.embed_const == pytest.approx(1.0)

    def test_length_scaling(self):
        sp = build_sine_space(2, 2 * math.pi)
        assert np.allclose(sp.gram_V, np.diag([0.25, 1.0]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_sine_space(0, 1.0)
        with pytest.raises(ValueError):
            build_sine_space(3, -1.0)

    def test_embed_constant_matches_generalized_eigenvalue(self):
        sp = build_sine_space(5, 2.0)
        lam = np.linalg.eigvalsh(sp.inv_sqrt_V @ sp.gram_H @ sp.inv_sqrt_V).max()
        assert sp.embed_const**2 == pytest.approx(lam, rel=1e-10)


class TestFormAssembly:
    def test_non_coercive_constant_form_points_to_time_form(self):
        sp = build_sine_space(2, math.pi)
        with pytest.raises(ValueError, match="build a TimeForm declaring its shift_delta"):
            constant_form(sp, sp.gram_V - sp.gram_H, 1.0)

    def test_energy_form_equals_v_gram(self):
        sp = build_sine_space(3, math.pi)
        form = scaled_form(sp, lambda t: 1.0)
        for t in (0.0, 0.5, 1.0):
            assert np.allclose(at(form, t), np.diag([1.0, 4.0, 9.0]))

    def test_scalar_coefficient_scales_v_gram(self):
        sp = build_sine_space(3, math.pi)
        form = scaled_form(sp, lambda t: 1.0 + 0.5 * t, bound_M=1.5, alpha=1.0)
        assert np.allclose(at(form, 1.0), np.diag([1.5, 6.0, 13.5]))

    def test_linearity_in_coefficient(self):
        sp = build_sine_space(4, math.pi)
        two = scaled_form(sp, lambda t: 2.0)
        one = scaled_form(sp, lambda t: 1.0)
        assert np.allclose(
            at(two, 0.0), 2.0 * at(one, 0.0)
        )

    def test_rejects_time_outside_horizon(self):
        sp = build_sine_space(2, math.pi)
        form = scaled_form(sp, lambda t: 1.0)
        for bad in (-0.1, 1.5, np.nan):
            with pytest.raises(ValueError, match="outside"):
                at(form, bad)


class TestEstimateBounds:
    def test_identity_rayleigh_quotient(self):
        sp = build_sine_space(3, math.pi)
        form = scaled_form(sp, lambda t: 1.0)
        m, a = estimate_bounds(form, default_audit_grid(1.0))
        assert m == pytest.approx(1.0, abs=1e-12)
        assert a == pytest.approx(1.0, abs=1e-12)

    def test_time_varying_extrema(self):
        sp = build_sine_space(3, math.pi)
        form = scaled_form(sp, lambda t: 1.0 + 0.5 * t, bound_M=1.5, alpha=1.0)
        m, a = estimate_bounds(form, np.linspace(0.0, 1.0, 101))
        assert m == pytest.approx(1.5, abs=1e-12)
        assert a == pytest.approx(1.0, abs=1e-12)

    def test_scaling(self):
        sp = build_sine_space(3, math.pi)
        form = scaled_form(sp, lambda t: 2.0)
        m, a = estimate_bounds(form, default_audit_grid(1.0))
        assert m == pytest.approx(2.0) and a == pytest.approx(2.0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        sp = build_sine_space(4, math.pi)
        b = rng.standard_normal((4, 4))
        stiff = sp.gram_V + 0.5 * (b + b.T) + 0.3 * (b - b.T)
        lam = 3.7
        base = constant_form(sp, stiff, 1.0, coercivity_alpha=0.1)
        scaled = constant_form(sp, lam * stiff, 1.0, coercivity_alpha=0.1)
        m0, a0 = estimate_bounds(base, default_audit_grid(1.0))
        m1, a1 = estimate_bounds(scaled, default_audit_grid(1.0))
        assert m1 == pytest.approx(lam * m0, rel=1e-12)
        assert a1 == pytest.approx(lam * a0, rel=1e-12)

    def test_declared_constants_consistent_with_samples(self):
        sp = build_sine_space(3, math.pi)
        form = scaled_form(sp, lambda t: 1.0 + 0.5 * t, bound_M=1.5, alpha=1.0)
        m, a = estimate_bounds(form, default_audit_grid(form.horizon))
        assert m <= form.bound_M * (1 + 1e-6)
        assert a >= form.coercivity_alpha * (1 - 1e-6)

    def test_batched_bounds_equal_per_time_loop(self):
        form = random_gram_form(6, np.random.default_rng(63))
        grid = np.linspace(0.0, 1.0, 21)
        irv = form.space.inv_sqrt_V
        m_ref, a_ref = -math.inf, math.inf
        for t in grid:
            w = irv @ form.stiffness_at(np.array([t]))[0] @ irv
            m_ref = max(m_ref, float(np.linalg.norm(w, 2)))
            a_ref = min(a_ref, float(np.linalg.eigvalsh(0.5 * (w + w.T)).min()))
        assert estimate_bounds(form, grid) == (m_ref, a_ref)

    def test_accretivity_of_sampled_quadratic_forms(self):
        rng = np.random.default_rng(3)
        sp = build_sine_space(5, math.pi)
        b = rng.standard_normal((5, 5))
        stiff = sp.gram_V + 0.2 * (b - b.T)
        form = constant_form(sp, stiff, 1.0, coercivity_alpha=0.9)
        for _ in range(50):
            u = rng.standard_normal(5)
            s = at(form, rng.uniform(0.0, 1.0))
            assert u @ (0.5 * (s + s.T)) @ u >= 0.0


class TestStiffnessStack:
    @pytest.mark.parametrize("m", [None, 1, 3, 5], ids=["unprojected", "m1", "m3", "full"])
    def test_matches_per_time_evaluation_bit_for_bit(self, m):
        form = random_gram_form(5, np.random.default_rng(61))
        times = np.linspace(0.0, 1.0, 13)
        calls = []

        def counted(t):
            calls.append(t.copy())
            return form.stiffness_at(t)

        proj = None if m is None else project(form.space, m)
        stack = stiffness_stack(replace(form, stiffness_at=counted), proj, times)
        assert len(calls) == 1 and np.array_equal(calls[0], times)  # one call on the whole array
        assert stack.shape == (13, 5, 5)
        for t, s in zip(times, stack):
            one = form.stiffness_at(np.array([t]))[0]
            if proj is None:
                assert np.array_equal(s, one)
            else:
                p, q = proj.matrix, proj.complement()
                ref = p.T @ one @ p + form.coercivity_alpha * (q.T @ form.space.gram_V @ q)
                assert np.array_equal(s, ref)

    def test_empty_times_give_empty_stack(self):
        form = random_gram_form(3, np.random.default_rng(62))
        assert stiffness_stack(form, project(form.space, 2), []).shape == (0, 3, 3)

    @pytest.mark.parametrize("k", [3, 5], ids=["k_equals_n", "k_differs"])
    def test_scalar_time_function_rejected_by_name(self, k):
        # on 3 times, (1 + t/2) * G_V broadcasts to a plausible (3, 3) matrix
        sp = build_sine_space(3, math.pi)
        scalar = TimeForm(sp, lambda t: (1.0 + 0.5 * t) * sp.gram_V, bound_M=1.5,
                          coercivity_alpha=1.0, horizon=1.0)
        trig = TimeForm(sp, lambda t: math.cos(t) * sp.gram_V, bound_M=1.0,
                        coercivity_alpha=0.5, horizon=1.0)
        for form in (scalar, trig):
            with pytest.raises(ValueError, match="stiffness_at breaks the stack contract"):
                stiffness_stack(form, None, np.linspace(0.0, 1.0, k))


class TestDiniAudit:
    def test_power_modulus_exponent_recovered(self):
        sp = build_sine_space(3, math.pi)
        form = scaled_form(sp, lambda t: 1.0 + 0.5 * t**0.6, bound_M=1.5, alpha=1.0)
        h = np.geomspace(1e-4, 1e-2, 9)
        rep = audit_dini(form, h)
        assert isinstance(rep, FormAuditReport)
        assert rep.dini_exponent == pytest.approx(0.6, abs=0.05)
        assert rep.dini_pass

    def test_constant_form_passes_with_infinite_exponent(self):
        sp = build_sine_space(2, math.pi)
        rep = audit_dini(scaled_form(sp, lambda t: 1.0), np.geomspace(1e-4, 1e-2, 6))
        assert math.isinf(rep.dini_exponent)
        assert rep.dini_pass

    def test_rough_modulus_fails(self):
        sp = build_sine_space(2, math.pi)
        form = scaled_form(sp, lambda t: 1.0 + 0.5 * t**0.4, bound_M=1.5, alpha=1.0)
        rep = audit_dini(form, np.geomspace(1e-4, 1e-2, 9))
        assert rep.dini_exponent == pytest.approx(0.4, abs=0.05)
        assert not rep.dini_pass

    def test_samples_evaluated_once_and_bounds_read_from_them(self):
        # S(t) at the 17 samples once, then S(t + h) for every sample that fits
        form = random_gram_form(4, np.random.default_rng(64))
        calls = []
        counted = replace(form, stiffness_at=lambda t: calls.append(len(t)) or form.stiffness_at(t))
        h = np.geomspace(1e-4, 1e-2, 9)
        rep = audit_dini(counted, h)
        fits = [int((rep.sample_grid + gap <= form.horizon).sum()) for gap in h]
        assert calls == [rep.sample_grid.size] + fits
        assert (rep.M_hat, rep.alpha_hat) == estimate_bounds(form, rep.sample_grid)

    def test_refuses_short_gap_grids(self):
        sp = build_sine_space(2, math.pi)
        form = scaled_form(sp, lambda t: 1.0)
        with pytest.raises(ValueError):
            audit_dini(form, np.array([1e-4, 1e-3, 1e-2]))


class TestProjection:
    def test_full_projection_is_identity(self):
        sp = build_sine_space(3, math.pi)
        assert np.allclose(project(sp, 3).matrix, np.eye(3))

    def test_truncation(self):
        sp = build_sine_space(3, math.pi)
        p = project(sp, 1)
        assert np.allclose(p.matrix @ np.array([1.0, 1.0, 1.0]), [1.0, 0.0, 0.0])

    def test_idempotent_and_self_adjoint(self):
        sp = build_sine_space(4, 2.0)
        for m in (1, 2, 4):
            p = project(sp, m).matrix
            assert np.abs(p @ p - p).max() <= 1e-12
            assert np.abs(sp.gram_H @ p - p.T @ sp.gram_H).max() <= 1e-12
            assert np.linalg.matrix_rank(p) == m

    def test_out_of_range_rejected(self):
        sp = build_sine_space(3, math.pi)
        for m in (0, 4):
            with pytest.raises(ValueError):
                project(sp, m)


class TestProjectedForm:
    def test_full_projection_reproduces_form(self):
        sp = build_sine_space(3, math.pi)
        form = scaled_form(sp, lambda t: 1.0 + 0.5 * t, bound_M=1.5, alpha=1.0)
        p = project(sp, 3)
        for t in (0.0, 0.3, 1.0):
            assert np.allclose(
                at(form, t, p),
                at(form, t),
                atol=1e-13,
            )

    def test_diagonal_block_case(self):
        sp = build_sine_space(3, math.pi)
        form = scaled_form(sp, lambda t: 1.0)
        p = project(sp, 1)
        # complement penalty with alpha=1 restores the diagonal V-Gram blocks
        assert np.allclose(at(form, 0.0, p), np.diag([1.0, 4.0, 9.0]))

    def test_reduced_coercivity_at_least_half(self):
        rng = np.random.default_rng(11)
        sp = build_sine_space(6, math.pi)
        b = rng.standard_normal((6, 6))
        stiff = sp.gram_V + 0.3 * (b + b.T) + 0.5 * (b - b.T)
        w = sp.inv_sqrt_V @ (0.5 * (stiff + stiff.T)) @ sp.inv_sqrt_V
        alpha = float(np.linalg.eigvalsh(w).min())
        assert alpha > 0  # construction keeps the sample coercive
        form = constant_form(sp, stiff, 1.0, coercivity_alpha=alpha)
        for m in (1, 3, 5):
            proj = project(sp, m)
            sm = at(form, 0.0, proj)
            reduced = TimeForm(sp, np.vectorize(lambda t, _sm=sm: _sm, signature="()->(n,n)"),
                               form.bound_M + alpha,
                               alpha / 2.0, 1.0)
            _, a_hat = estimate_bounds(reduced, np.array([0.0]))
            assert a_hat >= alpha / 2.0 - 1e-10

    def test_space_mismatch_rejected(self):
        sp1 = build_sine_space(3, math.pi)
        sp2 = build_sine_space(3, math.pi)
        form = scaled_form(sp1, lambda t: 1.0)
        with pytest.raises(ValueError):
            at(form, 0.0, project(sp2, 2))
