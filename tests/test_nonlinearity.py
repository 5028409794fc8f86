import math
import tracemalloc

import numpy as np
import pytest

from parabolic_nonlocal.evolution import TimeGrid, duhamel_solve, make_trajectory, propagate
from parabolic_nonlocal.galerkin import GalerkinSpace, build_sine_space, constant_form
from parabolic_nonlocal.models import preset_evi, preset_heat_timevarying
from parabolic_nonlocal.nonlinearity import (
    GROWTH_TIMES,
    AffineSource,
    ConvexFunctional,
    Nonlinearity,
    apply_superposition,
    bounded_source,
    check_monotone,
    check_row_contract,
    evi_residual,
    gradient_consistency,
    growth_audit,
    negated_identity,
    pseudo_huber_functional,
    quadratic_functional,
    saturating_drift,
    scan_transversality,
    zero_nonlinearity,
)
from parabolic_nonlocal.nonlocal_solver import SolverConfig, solve_nonlocal


def random_trajectory(space, grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    vals = scale * rng.standard_normal((grid.n_steps + 1, space.n_modes))
    return make_trajectory(space, grid, vals)


class TestSuperposition:
    def test_negation(self):
        sp = build_sine_space(3, math.pi)
        tr = random_trajectory(sp, TimeGrid(1.0, 8))
        out = apply_superposition(negated_identity(), tr)
        assert np.array_equal(out, -tr.values)

    def test_zero_map(self):
        sp = build_sine_space(2, math.pi)
        tr = random_trajectory(sp, TimeGrid(1.0, 8))
        out = apply_superposition(zero_nonlinearity(), tr)
        assert not out.any()

    def test_bounded_sets_to_bounded_sets(self):
        # L2-in-time bound from the pointwise growth bound
        sp = build_sine_space(4, math.pi)
        grid = TimeGrid(1.0, 32)
        f = saturating_drift(sp)
        for seed in range(3):
            tr = random_trajectory(sp, grid, seed=seed, scale=3.0)
            out = apply_superposition(f, tr)
            out_l2 = math.sqrt(np.trapezoid(np.sum(out * out, axis=1), dx=grid.dt))
            b_l2 = math.sqrt(np.trapezoid([f.growth_b(t) ** 2 for t in grid.nodes], dx=grid.dt))
            assert out_l2 <= f.growth_a * tr.l2_h + b_l2 + 1e-10

    def test_nonfinite_output_flagged(self):
        sp = build_sine_space(1, math.pi)
        tr = random_trajectory(sp, TimeGrid(1.0, 4))
        bad = Nonlinearity(lambda t, x: np.full_like(x, np.inf) if t > 0.5 else x,
                           1.0, lambda t: 0.0)
        with pytest.raises(ValueError, match=r"at t=0\.75$"):
            apply_superposition(bad, tr)

    def test_first_nonfinite_node_named(self):
        # NaN at t = 0.25 and t = 0.75: the earlier node is named, and f has seen every node
        sp = build_sine_space(2, math.pi)
        tr = random_trajectory(sp, TimeGrid(1.0, 4))
        times = []

        def f(t, x):
            times.append(t)
            return np.full_like(x, np.nan) if t in (0.25, 0.75) else x

        with pytest.raises(ValueError, match=r"at t=0\.25$"):
            apply_superposition(Nonlinearity(f, 1.0, lambda t: 0.0), tr)
        assert times == tr.grid.nodes.tolist()

    def test_nonfinite_at_start_named(self):
        sp = build_sine_space(1, math.pi)
        tr = random_trajectory(sp, TimeGrid(1.0, 4))
        bad = Nonlinearity(lambda t, x: x / t, 1.0, lambda t: 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"at t=0\.0$"):
                apply_superposition(bad, tr)


def bundled_nonlinearities(n):
    """Every f the package builds: presets, CLI choices and the shifted heat source."""
    return {
        "zero": zero_nonlinearity(),
        "negated_identity": negated_identity(),
        "saturating_drift": saturating_drift(build_sine_space(n, math.pi)),
        "bounded_source": bounded_source(lambda ts: np.sin(ts)[:, None] * np.arange(1.0, n + 1),
                                         n),
        "exp_shift_f_hat": preset_heat_timevarying(n, 64).f,
        "gradient_flow_quadratic": preset_evi(n, 8, quadratic_functional(n)).f,
        "gradient_flow_pseudo_huber": preset_evi(n, 8, pseudo_huber_functional(n)).f,
    }


class TestBlockContract:
    @pytest.mark.parametrize("name", list(bundled_nonlinearities(4)))
    def test_block_call_equals_row_calls(self, name):
        # f(t, X) on a (k, n) block is f(t, x) on each row (a broadcast row counts)
        f = bundled_nonlinearities(4)[name]
        x = 3.0 * np.random.default_rng(5).standard_normal((6, 4))
        for t in (0.0, 0.37):
            block = np.broadcast_to(np.asarray(f.eval(t, x), dtype=float), x.shape)
            rows = np.array([f.eval(t, row) for row in x])
            np.testing.assert_allclose(block, rows, rtol=1e-15, atol=1e-15)


class TestAffineRate:
    RATES = {"zero": 0.0, "negated_identity": 1.0, "saturating_drift": None,
             "bounded_source": 0.0, "exp_shift_f_hat": 0.4, "gradient_flow_quadratic": None,
             "gradient_flow_pseudo_huber": None}

    @pytest.mark.parametrize("name", list(bundled_nonlinearities(4)))
    def test_bundled_declarations_hold(self, name):
        # the heat preset's f is its bounded source after exp_shift with eps = 0.4
        f = bundled_nonlinearities(4)[name]
        assert (None if f.affine is None else f.affine.rate) == self.RATES[name]
        if f.affine is not None:  # the data define f
            assert f.eval == f.affine.eval

    @pytest.mark.parametrize("rate", [-0.1, math.inf, math.nan])
    def test_rate_must_be_finite_and_nonnegative(self, rate):
        with pytest.raises(ValueError, match="affine rate must be finite and at least 0"):
            AffineSource(rate, lambda ts: np.zeros((len(ts), 1)))


class TestGrowthAudit:
    @pytest.mark.parametrize("factory", [zero_nonlinearity, negated_identity])
    def test_bundled_nonlinearities_pass(self, factory):
        ok, worst = growth_audit(factory(), build_sine_space(4, math.pi), horizon=1.0,
                                 n_samples=1000)
        assert ok and worst <= 1e-10

    def test_saturating_drift_passes_with_declared_constants(self):
        # |f| <= |x|/(1+|x|) + 1 <= 1*|x| + 1 by the triangle inequality
        sp = build_sine_space(5, math.pi)
        ok, _ = growth_audit(saturating_drift(sp), sp, horizon=1.0, n_samples=1000)
        assert ok

    @pytest.mark.parametrize("n, seed", [(3, 0), (4, 5)])
    def test_saturating_drift_passes_on_any_gram(self, n, seed):
        # the constants are declared in the pivot norm, and f is built in it; an f
        # built in the Euclidean norm exceeds them here, since |e_1|_H > 2
        b = np.random.default_rng(seed).standard_normal((n, n))
        gh = b @ b.T + 4.0 * np.eye(n)
        space = GalerkinSpace(n, math.pi, gh, gh, 1.0)
        ok, worst = growth_audit(saturating_drift(space), space, horizon=2.0, n_samples=1000,
                                 seed=3)
        assert ok and worst <= 1e-10
        euclidean = saturating_drift(build_sine_space(n, math.pi))
        assert not growth_audit(euclidean, space, horizon=2.0, n_samples=1000, seed=3)[0]

    def test_understated_constants_fail(self):
        calls = []  # one f call per drawn time, on the block of ceil(500 / 16) points
        lying = Nonlinearity(counted(lambda t, x: 2.0 * x, calls), 1.0, lambda t: 0.0)
        ok, worst = growth_audit(lying, build_sine_space(3, math.pi), horizon=1.0, n_samples=500)
        assert not ok and worst > 0
        assert calls == [(32, 3)] * GROWTH_TIMES


class TestTransversality:
    def test_restoring_force_passes(self):
        rep = scan_transversality(negated_identity(), 0.5, 4.0, 400,
                                  np.linspace(0, 1, 5), build_sine_space(3, math.pi))
        assert rep.passed
        assert rep.worst_value == pytest.approx(-0.25, rel=1e-9)

    def test_drifted_restoring_force(self):
        # <-x + h, x> <= |x| (beta - |x|) < 0 outside the beta-ball
        beta = 0.3
        h = np.zeros(3)
        h[0] = beta
        f = Nonlinearity(lambda t, x: -x + h, 1.0, lambda t: beta)
        rep = scan_transversality(f, 0.5, 5.0, 400, np.linspace(0, 1, 5),
                                  build_sine_space(3, math.pi))
        assert rep.passed

    def test_outward_field_fails_everywhere(self):
        f = Nonlinearity(lambda t, x: +x, 1.0, lambda t: 0.0)
        rep = scan_transversality(f, 0.5, 5.0, 400, np.linspace(0, 1, 5),
                                  build_sine_space(3, math.pi))
        assert not rep.passed
        assert rep.violations == rep.samples

    def test_unbounded_outer_radius_capped(self):
        rep = scan_transversality(negated_identity(), 1.0, math.inf, 400,
                                  np.array([0.0]), build_sine_space(2, math.pi))
        assert rep.passed and rep.R0 == math.inf

    def test_input_validation(self):
        with pytest.raises(ValueError):
            scan_transversality(negated_identity(), 2.0, 1.0, 400, np.array([0.0]),
                                build_sine_space(2, math.pi))
        with pytest.raises(ValueError):
            scan_transversality(negated_identity(), 1.0, 2.0, 10, np.array([0.0]),
                                build_sine_space(2, math.pi))


class TestMonotone:
    def test_quadratic_gradient_is_monotone(self):
        worst = check_monotone(quadratic_functional(4), 500)
        assert worst >= 0.0

    def test_pseudo_huber_monotone_and_sublinear(self):
        phi = pseudo_huber_functional(4)
        assert check_monotone(phi, 500) >= -1e-10
        f = Nonlinearity(lambda t, x: -phi.gradient(x), 1.0, lambda t: 0.0)
        ok, _ = growth_audit(f, build_sine_space(4, math.pi), horizon=1.0, n_samples=1000)
        assert ok

    def test_concave_fails(self):
        bad = ConvexFunctional(np.vectorize(lambda x: -0.5 * float(x @ x), signature="(n)->()"),
                               lambda x: -np.asarray(x), 3)
        assert check_monotone(bad, 500) < -1e-10


class TestGradientConsistency:
    def test_quadratic_exact_up_to_roundoff(self):
        err = gradient_consistency(quadratic_functional(4), 100, 1e-4)
        assert err <= 1e-9

    def test_pseudo_huber_smooth(self):
        err = gradient_consistency(pseudo_huber_functional(4), 200, 1e-5)
        assert err <= 1e-5

    def test_scaled_gradient_detected(self):
        phi = quadratic_functional(3)
        wrong = ConvexFunctional(phi.value, lambda x: 1.01 * np.asarray(x), 3)
        err = gradient_consistency(wrong, 200, 1e-4)
        assert err == pytest.approx(1e-2, rel=0.9)
        assert err > 1e-5

    def test_step_bounds_enforced(self):
        with pytest.raises(ValueError):
            gradient_consistency(quadratic_functional(2), 10, 1e-2)


def gradient_flow_trajectory(form, grid, x0, phi, tol=1e-12, max_iter=200):
    """Fixed point of the source iteration for u' + A u = -grad phi(u)."""
    space = form.space
    vals = np.tile(np.asarray(x0, float), (grid.n_steps + 1, 1))
    for _ in range(max_iter):
        f_vals = np.array([-phi.gradient(v) for v in vals])
        tr = duhamel_solve(form, None, grid, x0, f_vals)
        gap = np.abs(tr.values - vals).max()
        vals = tr.values
        if gap <= tol:
            return tr
    raise RuntimeError("gradient-flow iteration did not settle")


class TestEviResidual:
    def test_scalar_quadratic_closed_form(self):
        sp = build_sine_space(1, math.pi)
        form = constant_form(sp, np.array([[1.0]]), 1.0)
        grid = TimeGrid(1.0, 128)
        phi = quadratic_functional(1)
        tr = gradient_flow_trajectory(form, grid, np.array([1.0]), phi)
        # combined decay rate 2: stiffness 1 plus quadratic-gradient 1
        exact = np.exp(-2.0 * grid.nodes)
        assert np.abs(tr.values[:, 0] - exact).max() < 1e-4
        res = evi_residual(form, phi, tr, n_test=50)
        assert res >= -10.0 * grid.dt

    def test_residual_large_positive_far_from_solution(self):
        sp = build_sine_space(1, math.pi)
        form = constant_form(sp, np.array([[1.0]]), 1.0)
        grid = TimeGrid(1.0, 64)
        phi = quadratic_functional(1)
        tr = gradient_flow_trajectory(form, grid, np.array([1.0]), phi)
        rng = np.random.default_rng(1)
        gh = sp.gram_H
        vals = []
        for j in range(1, grid.n_steps):
            u = tr.values[j]
            du = (tr.values[j + 1] - tr.values[j - 1]) / (2 * grid.dt)
            s = form.stiffness_at(np.array([0.0]))[0]
            v = u + np.array([50.0])
            vals.append(float((gh @ du + s @ u) @ (v - u)) - phi.value(u) + phi.value(v))
        # convexity gap dominates for distant test points
        assert min(vals) > 100.0

    def test_drift_without_gradient_flow_fails(self):
        # negative control: trajectory of the plain homogeneous flow does not
        # satisfy the inequality for a non-trivial functional
        sp = build_sine_space(1, math.pi)
        form = constant_form(sp, np.array([[1.0]]), 1.0)
        grid = TimeGrid(1.0, 64)
        tr = propagate(form, None, grid, np.array([1.0]))
        res = evi_residual(form, quadratic_functional(1), tr, n_test=200, seed=3)
        assert res < -10.0 * grid.dt

    @pytest.mark.parametrize("n_test", [0, -3])
    def test_no_test_points_rejected(self, n_test):
        # without test points the residual would read 0.0 and pass vacuously
        sp = build_sine_space(1, math.pi)
        form = constant_form(sp, np.array([[1.0]]), 1.0)
        tr = propagate(form, None, TimeGrid(1.0, 16), np.array([1.0]))
        with pytest.raises(ValueError, match="n_test"):
            evi_residual(form, quadratic_functional(1), tr, n_test=n_test)


    def test_grid_without_interior_node_rejected(self):
        # one step leaves no interior node: the residual read inf and passed vacuously
        sp = build_sine_space(1, math.pi)
        form = constant_form(sp, np.array([[1.0]]), 1.0)
        tr = propagate(form, None, TimeGrid(1.0, 1), np.array([1.0]))
        with pytest.raises(ValueError, match="interior node"):
            evi_residual(form, quadratic_functional(1), tr, n_test=5)


class TestShiftedTransversality:
    def test_monotone_plus_shift_points_inward(self):
        # f_hat(x) = -grad phi(x) - eps x passes the scan once the radius
        # clears |b|_inf / (eps - a)
        phi = pseudo_huber_functional(3)
        a, b_inf, eps = 0.0, math.sqrt(3.0), 1.0
        f_hat = Nonlinearity(
            lambda t, x: -phi.gradient(x) - eps * np.asarray(x), 1.0 + eps, lambda t: 0.0
        )
        r0 = b_inf / (eps - a) * 1.05
        rep = scan_transversality(f_hat, r0, math.inf, 500, np.linspace(0, 1, 3),
                                  build_sine_space(3, math.pi))
        assert rep.passed


def coordinate_quartic(dim):
    """phi = sum x_k^4 / 4 with a gradient written coordinate by coordinate for one row."""
    return ConvexFunctional(lambda x: 0.25 * np.sum(np.asarray(x) ** 4, axis=-1),
                            lambda x: np.array([x[k] ** 3 for k in range(dim)]), dim, 3.0)


class TestRowContract:
    @pytest.mark.parametrize("make", [quadratic_functional, pseudo_huber_functional])
    def test_bundled_functionals_follow_contract(self, make):
        phi = make(3)
        check_row_contract(phi.value, 3, "(n)->()", "phi.value")
        check_row_contract(phi.gradient, 3, "(n)->(n)", "phi.gradient")
        block = np.random.default_rng(2).uniform(-3.0, 3.0, (4, 5, 3))
        assert phi.value(block).shape == (4, 5)
        assert phi.gradient(block).shape == (4, 5, 3)

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_coordinate_gradient_rejected_before_any_march(self, dim):
        with pytest.raises(ValueError, match="phi.gradient breaks the row contract"):
            preset_evi(dim, 64, coordinate_quartic(dim))

    def test_scalar_value_rejected(self):
        flat = ConvexFunctional(lambda x: 0.0, lambda x: np.zeros_like(x), 3, 0.0)
        with pytest.raises(ValueError, match="phi.value breaks the row contract"):
            check_row_contract(flat.value, 3, "(n)->()", "phi.value")

    def test_vectorized_wrapper_accepted(self):
        rowwise = coordinate_quartic(4)
        wrapped = ConvexFunctional(rowwise.value, np.vectorize(rowwise.gradient, signature="(n)->(n)"),
                                   4, 3.0)
        direct = ConvexFunctional(rowwise.value, lambda x: np.asarray(x) ** 3, 4, 3.0)
        cfg = SolverConfig(inner_tol=1e-10)
        rep = solve_nonlocal(preset_evi(4, 64, wrapped), cfg)
        assert rep.converged
        assert np.array_equal(rep.solution.values,
                              solve_nonlocal(preset_evi(4, 64, direct), cfg).solution.values)


def counted(fn, calls):
    def wrapper(*args):
        calls.append(np.shape(args[-1]))
        return fn(*args)
    return wrapper


class TestBlockAudits:
    """Each audit evaluates whole blocks, on the draws of a per-sample loop."""

    def test_monotone_matches_pair_loop(self):
        phi = pseudo_huber_functional(5)
        rng = np.random.default_rng(3)
        pairs = [(rng.uniform(-10.0, 10.0, 5), rng.uniform(-10.0, 10.0, 5)) for _ in range(300)]
        gaps = [float((phi.gradient(x) - phi.gradient(y)) @ (x - y)) for x, y in pairs]
        calls = []
        spy = ConvexFunctional(counted(phi.value, calls), counted(phi.gradient, calls), 5)
        assert check_monotone(spy, 300, seed=3) == min(gaps)
        assert calls == [(300, 2, 5)]

    def test_scan_matches_direction_loop(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((4, 4))
        gh = b @ b.T + 4.0 * np.eye(4)
        space = GalerkinSpace(4, math.pi, gh, gh, 1.0)
        f = saturating_drift(space)
        t_grid = np.linspace(0.0, 1.0, 7)
        rng = np.random.default_rng(3)
        vals = []
        for radius in np.geomspace(0.5, 5.0, 16):
            for _ in range(5):  # ceil(500 / (16 * 7)) directions per radius
                d = rng.standard_normal(4)
                x = radius * (d / math.sqrt(d @ gh @ d))
                vals += [float(f.eval(float(t), x) @ gh @ x) for t in t_grid]
        calls = []
        spy = Nonlinearity(counted(f.eval, calls), f.growth_a, f.growth_b)
        rep = scan_transversality(spy, 0.5, 7.0, 500, t_grid, space, seed=3)
        # G_H X^T is one matrix product where the loop multiplies row by row
        assert rep.worst_value == pytest.approx(max(vals), rel=1e-14)
        assert rep.violations == sum(v > 0.0 for v in vals) > 0
        assert rep.samples == len(vals)
        assert calls == [(80, 4)] * len(t_grid)

    def test_growth_audit_matches_point_loop(self):
        # times first, then radii, then directions normalised in the pivot norm; every
        # time sees every point, in one f call per time
        rng = np.random.default_rng(5)
        b = rng.standard_normal((4, 4))
        gh = b @ b.T + 4.0 * np.eye(4)
        space = GalerkinSpace(4, math.pi, gh, gh, 1.0)
        # built in the Euclidean norm, so its constants do not hold in this space's
        f = saturating_drift(build_sine_space(4, math.pi))
        rng = np.random.default_rng(3)
        times = rng.uniform(0.0, 2.0, GROWTH_TIMES)
        radii = 10.0 ** rng.uniform(-2.0, 3.0, 32)  # ceil(500 / 16) points
        excess = []
        for radius in radii:
            d = rng.standard_normal(4)
            x = radius * (d / math.sqrt(d @ gh @ d))
            for t in times:
                fx = f.eval(float(t), x)
                excess.append(math.sqrt(fx @ gh @ fx) - f.growth_a * radius - f.growth_b(t))
        calls, b_times = [], []
        spy = Nonlinearity(counted(f.eval, calls), f.growth_a,
                           lambda ts: b_times.append(np.array(ts)) or f.growth_b(ts))
        ok, worst = growth_audit(spy, space, 2.0, n_samples=500, seed=3)
        assert worst == pytest.approx(max(excess), rel=1e-12, abs=1e-14)
        assert not ok  # |sin(t) e_1|_H = sqrt(gh[0, 0]) > 2 exceeds the declared b = 1
        assert calls == [(32, 4)] * GROWTH_TIMES
        # growth_b takes every drawn time in one call
        assert len(b_times) == 1 and np.array_equal(b_times[0], times)

    def test_evi_residual_matches_node_loop(self):
        sp = build_sine_space(3, math.pi)
        form = constant_form(sp, np.diag([1.0, 2.0, 3.0]), 1.0)
        grid = TimeGrid(1.0, 64)
        tr = propagate(form, None, grid, np.array([1.0, -0.5, 0.2]))
        phi = pseudo_huber_functional(3)
        rng = np.random.default_rng(9)
        s = form.stiffness_at(np.array([0.0]))[0]
        radius = float(tr.h_norms.max()) + 1.0  # test points fill [-radius, radius]^3
        worst = 0.0
        for j in range(1, grid.n_steps):
            u = tr.values[j]
            lin = (tr.values[j + 1] - tr.values[j - 1]) / (2.0 * grid.dt) + s @ u
            for _ in range(200):
                v = rng.uniform(-radius, radius, 3)
                worst = min(worst, float(lin @ (v - u)) - phi.value(u) + phi.value(v))
        calls = []
        spy = ConvexFunctional(counted(phi.value, calls), phi.gradient, 3)
        assert evi_residual(form, spy, tr, 200, seed=9) == worst < 0.0
        # u at every interior node, then 63 * 200 test points in chunks of 4096
        assert calls == [(63, 3), (4096, 3), (4096, 3), (4096, 3), (312, 3)]

    def test_evi_residual_memory_bounded_in_n_test(self):
        sp = build_sine_space(8, math.pi)
        form = constant_form(sp, sp.gram_V, 1.0)
        grid = TimeGrid(1.0, 64)
        tr = propagate(form, None, grid, np.linspace(1.0, 0.1, 8))
        n_test = 2**15
        unchunked = (grid.n_steps - 1) * n_test * sp.n_modes * 8
        assert unchunked > 100 * 2**20
        tracemalloc.start()
        try:
            res = evi_residual(form, pseudo_huber_functional(8), tr, n_test, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res <= 0.0
        assert peak < 4 * 2**20
