import csv
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabolic_nonlocal.evolution import (
    STEP_TOL,
    TimeGrid,
    _leading_mode_form,
    _march,
    adjoint_propagate,
    au_l2,
    build_propagator,
    duhamel_direct_sum,
    duhamel_solve,
    l2h_distance,
    make_trajectory,
    projected_convergence_study,
    propagate,
    regularity_norm,
    regularity_ratio,
    reversed_form,
    subspace_invariance_residual,
    trajectory_to_csv,
    weighted_diagnostic,
)
from parabolic_nonlocal.galerkin import (
    GalerkinSpace,
    TimeForm,
    build_sine_space,
    constant_form,
    project,
    stiffness_stack,
)
from parabolic_nonlocal.models import divergence_form_assemble, time_power_coefficient
from parabolic_nonlocal.nonlocal_solver import unshift_trajectory

# closed-form values for the scalar decay/source problems (see module tests)
REG_RATIO_SCALAR = 2.244913202997993  # sqrt(1-e^-2) + 2*sqrt((1-e^-2)/2)
DUHAMEL_SCALAR_AT_1 = 0.6321205588285577  # 1 - e^-1


def scalar_form(horizon=1.0):
    sp = build_sine_space(1, math.pi)
    return sp, constant_form(sp, np.array([[1.0]]), horizon)


def coupled_gram_space(n, rng):
    """Non-diagonal pivot and energy Grams: no projection is diag(1..1, 0..0)."""
    b = rng.standard_normal((n, n))
    gram_h = np.eye(n) + 0.3 * (b @ b.T) / n
    gram_v = np.diag(np.arange(1.0, n + 1) ** 2) + 0.2 * gram_h
    irv = np.linalg.inv(np.linalg.cholesky(gram_v))
    lam = np.linalg.eigvalsh(irv @ gram_h @ irv.T).max()
    return GalerkinSpace(n, math.pi, gram_h, gram_v, 1.01 * math.sqrt(lam))


def random_accretive_form(sp, rng, horizon=1.0, time_varying=True):
    """Stiffness alpha*G_V + PSD + skew + oscillation; coercive by construction."""
    n = sp.n_modes
    b = rng.standard_normal((n, n))
    psd = b @ b.T / n
    skew = rng.standard_normal((n, n))
    skew = 0.5 * (skew - skew.T)
    osc = rng.uniform(0.2, 0.8)

    def stiff(t):
        c = 0.5 * (1.0 + math.sin(osc * t)) if time_varying else 0.0
        return sp.gram_V + psd * (1.0 + c) + skew

    return TimeForm(sp, np.vectorize(stiff, signature="()->(n,n)"), bound_M=50.0,
                    coercivity_alpha=1.0, horizon=horizon)


def stiffness_at_one(form, t):
    """The form's stiffness at one time, read straight from its field."""
    return form.stiffness_at(np.array([t]))[0]


class TestTimeGrid:
    def test_nodes_span_horizon_exactly(self):
        g = TimeGrid(2.0, 8)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0
        assert g.dt == 0.25

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)


class TestStackWrappers:
    """Each wrapper form's stack is its per-time expression, time by time."""

    times = np.linspace(0.0, 1.0, 7)

    def test_constant_form_repeats_a_fresh_matrix(self):
        sp = build_sine_space(3, math.pi)
        s = sp.gram_V + np.triu(np.ones((3, 3)), 1)
        form = constant_form(sp, s, 1.0, coercivity_alpha=0.5)
        stack = form.stiffness_at(self.times)
        assert stack.shape == (7, 3, 3) and all(np.array_equal(m, s) for m in stack)
        stack[:] = 0.0  # callers overwrite stacks in place
        assert np.array_equal(form.stiffness_at(self.times[:1])[0], s)

    def test_reversed_form_transposes_the_reversed_time(self):
        sp = build_sine_space(3, math.pi)
        form = random_accretive_form(sp, np.random.default_rng(12))
        per_time = [stiffness_at_one(form, 1.0 - t).T for t in self.times]
        assert np.array_equal(reversed_form(form).stiffness_at(self.times), per_time)

    def test_leading_mode_form_is_the_leading_block(self):
        sp = build_sine_space(4, math.pi)
        form = random_accretive_form(sp, np.random.default_rng(13))
        sub = _leading_mode_form(form, 2)
        per_time = [stiffness_at_one(form, t)[:2, :2] for t in self.times]
        assert sub.space.n_modes == 2
        assert np.array_equal(stiffness_stack(sub, None, self.times), per_time)


class TestPropagate:
    def test_scalar_exponential_decay_second_order(self):
        sp, form = scalar_form()
        errs = []
        for ns in (32, 64, 128):
            tr = propagate(form, None, TimeGrid(1.0, ns), np.array([1.0]))
            errs.append(abs(tr.values[-1][0] - math.exp(-1.0)))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.2)

    def test_diagonal_decoupling(self):
        sp = build_sine_space(3, math.pi)
        form = constant_form(sp, np.diag([1.0, 4.0, 9.0]), 1.0)
        tr = propagate(form, None, TimeGrid(1.0, 40), np.array([1.0, 0.0, 0.0]))
        assert np.abs(tr.values[:, 1:]).max() == 0.0

    def test_h_norms_nonincreasing_for_accretive_forms(self):
        rng = np.random.default_rng(21)
        sp = build_sine_space(6, math.pi)
        for _ in range(5):
            form = random_accretive_form(sp, rng)
            x = rng.standard_normal(6)
            tr = propagate(form, None, TimeGrid(1.0, 64), x)
            assert np.all(np.diff(tr.h_norms) <= 1e-10)

    def test_energy_dissipation(self):
        rng = np.random.default_rng(5)
        sp = build_sine_space(4, math.pi)
        form = random_accretive_form(sp, rng)
        tr = propagate(form, None, TimeGrid(1.0, 32), rng.standard_normal(4))
        sq = tr.h_norms**2
        for i in range(len(sq)):
            for j in range(i + 1, len(sq)):
                assert sq[j] - sq[i] <= 2e-10

    def test_rejects_nonfinite_data(self):
        sp, form = scalar_form()
        with pytest.raises(ValueError):
            propagate(form, None, TimeGrid(1.0, 4), np.array([math.nan]))


class TestPropagatorFactors:
    def test_step_factors_contractive_in_h(self):
        rng = np.random.default_rng(17)
        sp = build_sine_space(5, math.pi)
        form = random_accretive_form(sp, rng)
        for scheme in ("cayley", "implicit_euler"):
            prop = build_propagator(form, None, TimeGrid(1.0, 32), scheme)
            assert prop.step_norms_h().max() <= 1.0 + 1e-10

    def test_composition_law_exact_on_actions(self):
        rng = np.random.default_rng(2)
        sp = build_sine_space(3, math.pi)
        form = random_accretive_form(sp, rng)
        prop = build_propagator(form, None, TimeGrid(1.0, 16))
        x = rng.standard_normal(3)
        # the family is defined as the product, so split application is the
        # same sequence of matvecs, bit for bit
        assert np.array_equal(prop.apply(x, 2, 14), prop.apply(prop.apply(x, 2, 9), 9, 14))
        full = prop.compose(2, 14)
        split = prop.compose(9, 14) @ prop.compose(2, 9)
        assert np.allclose(full, split, atol=1e-13)

    @staticmethod
    def per_step_reference(form, grid, scheme):
        # independent oracle: one solve per step against [rhs, dt G_H], on the
        # midpoint stiffnesses of one stiffness_at call (batch sizes may round apart)
        gh, dt, n = form.space.gram_H, grid.dt, form.space.n_modes
        c = 0.5 * dt if scheme == "cayley" else dt
        steps, sources = [], []
        for s in form.stiffness_at(grid.midpoints):
            rhs = gh - c * s if scheme == "cayley" else gh
            sol = np.linalg.solve(gh + c * s, np.hstack([rhs, dt * gh]))
            steps.append(sol[:, :n])
            sources.append(sol[:, n:])
        return np.array(steps), np.array(sources)

    @pytest.mark.parametrize("scheme", ["cayley", "implicit_euler"])
    @pytest.mark.parametrize("case", ["random_accretive", "time_power_32x512"])
    def test_stacked_factors_match_per_step_solves(self, scheme, case):
        if case == "random_accretive":
            sp = build_sine_space(5, math.pi)
            form = random_accretive_form(sp, np.random.default_rng(23))
            grid = TimeGrid(1.0, 40)
        else:
            sp = build_sine_space(32, math.pi)
            form = divergence_form_assemble(time_power_coefficient(1.0, 0.5, 0.6), sp, 6)
            grid = TimeGrid(1.0, 512)
        prop = build_propagator(form, None, grid, scheme)
        shape = (grid.n_steps, sp.n_modes, sp.n_modes)
        assert prop.step_factors.shape == shape and prop.source_factors.shape == shape
        steps, sources = self.per_step_reference(form, grid, scheme)
        assert np.abs(prop.step_factors - steps).max() <= 1e-15
        assert np.abs(prop.source_factors - sources).max() <= 1e-15

    def test_build_peak_memory_is_two_factor_stacks(self):
        sp = build_sine_space(32, math.pi)
        form = divergence_form_assemble(time_power_coefficient(1.0, 0.5, 0.6), sp, 6)
        grid = TimeGrid(1.0, 512)
        tracemalloc.start()
        try:
            prop = build_propagator(form, None, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (prop.step_factors.nbytes + prop.source_factors.nbytes)

    def test_unknown_scheme_rejected(self):
        sp, form = scalar_form()
        with pytest.raises(ValueError):
            build_propagator(form, None, TimeGrid(1.0, 4), "leapfrog")


class TestDuhamel:
    def test_scalar_constant_source(self):
        sp, form = scalar_form()
        grid = TimeGrid(1.0, 256)
        ones = np.ones((257, 1))
        tr = duhamel_solve(form, None, grid, np.array([0.0]), ones)
        assert tr.values[-1][0] == pytest.approx(DUHAMEL_SCALAR_AT_1, abs=1e-5)

    def test_zero_source_matches_propagate(self):
        rng = np.random.default_rng(9)
        sp = build_sine_space(4, math.pi)
        form = random_accretive_form(sp, rng)
        grid = TimeGrid(1.0, 32)
        x = rng.standard_normal(4)
        a = propagate(form, None, grid, x)
        b = duhamel_solve(form, None, grid, x, np.zeros((33, 4)))
        assert np.array_equal(a.values, b.values)

    def test_componentwise_closed_form(self):
        sp = build_sine_space(2, math.pi)
        form = constant_form(sp, np.diag([1.0, 4.0]), 0.5)
        grid = TimeGrid(0.5, 256)
        f = np.ones((257, 2))
        tr = duhamel_solve(form, None, grid, np.zeros(2), f)
        assert tr.values[-1][0] == pytest.approx(0.3934693402873666, abs=1e-5)
        assert tr.values[-1][1] == pytest.approx(0.21616617919084682, abs=1e-5)

    def test_direct_sum_converges_to_scheme(self):
        sp, form = scalar_form()
        x = np.array([0.0])
        sups = []
        for ns in (64, 128, 256):
            grid = TimeGrid(1.0, ns)
            f = np.ones((ns + 1, 1))
            a = duhamel_solve(form, None, grid, x, f)
            b = duhamel_direct_sum(form, None, grid, x, f)
            sups.append(np.abs(a.values - b).max())
        assert sups[0] > sups[1] > sups[2]
        # first-order gap: halving dt roughly halves the difference
        assert sups[0] / sups[2] == pytest.approx(4.0, rel=0.3)

    def test_grid_mismatch_rejected(self):
        sp, form = scalar_form()
        with pytest.raises(ValueError):
            duhamel_solve(form, None, TimeGrid(1.0, 8), np.array([0.0]), np.ones((5, 1)))

    @pytest.mark.parametrize("case", ["vector", "block", "coupled_gram"])
    def test_nodal_march_matches_step_loop(self, case):
        # u_{j+1} = F_j u_j + B_j (f_j + f_{j+1}) / 2, one step at a time
        rng = np.random.default_rng(11)
        n = 3
        sp = coupled_gram_space(n, rng) if case == "coupled_gram" else build_sine_space(n, math.pi)
        grid = TimeGrid(1.0, 40)
        prop = build_propagator(random_accretive_form(sp, rng), None, grid)
        x = rng.standard_normal(n if case == "vector" else (3, n))
        f_values = rng.standard_normal((grid.n_steps + 1, n))
        x_before, f_before = x.copy(), f_values.copy()
        ref = [np.atleast_2d(x)]
        for j in range(grid.n_steps):
            half = 0.5 * (f_values[j] + f_values[j + 1])
            ref.append(ref[-1] @ prop.step_factors[j].T + prop.source_factors[j] @ half)
        ref = np.stack(ref, axis=1)
        got = _march(prop, x, f_values)
        if case == "vector":
            ref = ref[0]
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.array_equal(x, x_before) and np.array_equal(f_values, f_before)


class TestStateDependentSource:
    def test_affine_source_matches_exact_step_solve(self):
        # s(t, u) = h(t) - c u makes each scalar trapezoid step a linear equation
        sp, form = scalar_form()
        grid = TimeGrid(1.0, 64)
        prop = build_propagator(form, None, grid)
        c = 0.7
        h = np.cos(3.0 * grid.nodes)
        out = _march(prop, np.array([0.4]), None,
                     lambda t, u: math.cos(3.0 * t) - c * u)
        exact = np.empty(65)
        exact[0] = 0.4
        for j in range(64):
            f_mat, b = prop.step_factors[j][0, 0], prop.source_factors[j][0, 0]
            rhs = f_mat * exact[j] + 0.5 * b * (h[j] - c * exact[j] + h[j + 1])
            exact[j + 1] = rhs / (1.0 + 0.5 * b * c)
        assert np.abs(out[:, 0] - exact).max() <= 1e-14

    def test_state_independent_source_matches_nodal_values(self):
        sp = build_sine_space(3, math.pi)
        form = constant_form(sp, sp.gram_V, 1.0)
        grid = TimeGrid(1.0, 32)
        prop = build_propagator(form, None, grid)
        src = np.outer(np.sin(grid.nodes), [1.0, -0.5, 0.25])
        x = np.array([0.2, 0.1, -0.3])
        nodal = _march(prop, x, src)
        state = _march(prop, x, None, lambda t, u: math.sin(t) * np.array([1.0, -0.5, 0.25]))
        assert np.abs(nodal - state).max() <= 1e-15

    def test_divergent_step_iteration_raises(self):
        # dt/2 * 96 = 1.5 > 1: the step iteration grows the error by 1.5 each pass,
        # stays finite, and the unsolved path comes back NaN
        sp, form = scalar_form()
        prop = build_propagator(form, None, TimeGrid(1.0, 32))
        out = _march(prop, np.array([1.0]), None, lambda t, u: 96.0 * u)
        assert out.shape == (33, 1) and np.isnan(out).all()

    def test_overflowing_step_iteration_raises_floating_point_error(self):
        # the iterate overflows: the path comes back NaN, with no warning, and the
        # march stops there (it once went on with 31 more calls on the NaN row)
        sp, form = scalar_form()
        prop = build_propagator(form, None, TimeGrid(1.0, 32))
        finite_inputs = []

        def source(t, u):
            finite_inputs.append(bool(np.isfinite(u).all()))
            return 1e12 * u

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _march(prop, np.array([1.0]), None, source)
        assert out.shape == (33, 1) and np.isnan(out).all()
        assert len(finite_inputs) == 16 and all(finite_inputs)


class TestBlockMarch:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 4), k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           saturating=st.booleans())
    def test_rows_match_single_marches(self, n, k, seed, saturating):
        rng = np.random.default_rng(seed)
        sp = build_sine_space(n, math.pi)
        prop = build_propagator(random_accretive_form(sp, rng), None, TimeGrid(1.0, 32))
        a, h = rng.standard_normal((n, n)), rng.standard_normal(n)
        if saturating:
            def source(t, u):
                return -u / (1.0 + np.linalg.norm(u, axis=-1, keepdims=True)) + math.sin(t) * h
        else:
            def source(t, u):
                return u @ a.T + math.cos(t) * h
        xs = rng.standard_normal((k, n))
        block = _march(prop, xs, None, source)
        assert block.shape == (k, 33, n)
        for x, row in zip(xs, block):
            single = _march(prop, x, None, source)
            assert np.abs(row - single).max() <= STEP_TOL * (1.0 + np.abs(single).max())

    @pytest.mark.parametrize("gain, calls", [(1e12, 217), (96.0, 302)],
                             ids=["non_finite", "unsolved"])
    def test_failed_row_flagged_others_unchanged(self, gain, calls):
        # the step equation diverges only for |u| > 2: with gain 1e12 the row
        # started at 5 overflows, with 96 it grows by 1.5 per pass and stays finite;
        # either way it leaves the block, so the source never sees it NaN
        sp, form = scalar_form()
        prop = build_propagator(form, None, TimeGrid(1.0, 32))
        finite_inputs = []

        def source(t, u):
            finite_inputs.append(bool(np.isfinite(u).all()))
            return np.where(np.abs(u) > 2.0, gain, -1.0) * u

        xs = np.array([[0.5], [5.0], [-0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = _march(prop, xs, None, source)
            assert len(finite_inputs) == calls and all(finite_inputs)
            failed = _march(prop, xs[1], None, source)
        assert np.isnan(block[1]).all()
        for i in (0, 2):
            single = _march(prop, xs[i], None, source)
            assert np.abs(block[i] - single).max() <= STEP_TOL * (1.0 + np.abs(single).max())
        assert np.isnan(failed).all()

    @pytest.mark.parametrize("gain", [-1.0, 96.0, 1e12], ids=["solved", "unsolved", "non_finite"])
    def test_single_march_is_its_one_row_block(self, gain):
        # one failure contract: a 1-D start marches as the k = 1 block, bit for bit
        sp, form = scalar_form()
        prop = build_propagator(form, None, TimeGrid(1.0, 32))

        def source(t, u):
            return gain * u + math.sin(t)

        single = _march(prop, np.array([1.0]), None, source)
        block = _march(prop, np.array([[1.0]]), None, source)
        assert single.shape == block.shape[1:] == (33, 1)
        assert np.array_equal(single, block[0], equal_nan=True)
        assert np.isfinite(single).all() == (gain < 0.0)

    def test_flagged_row_costs_no_extra_source_calls(self):
        # the row started at 5 is NaN from its first iterate on; flagged rows
        # count as done, so the good rows alone set the number of iterations
        sp, form = scalar_form()
        prop = build_propagator(form, None, TimeGrid(1.0, 32))

        def counted(calls):
            def source(t, u):
                calls.append(t)
                return np.where(np.abs(u) > 2.0, np.nan, -u + math.sin(t))
            return source

        xs = np.array([[0.5], [5.0], [-0.3]])
        block_calls, good_calls = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = _march(prop, xs, None, counted(block_calls))
            good = _march(prop, xs[[0, 2]], None, counted(good_calls))
        assert np.isnan(block[1]).all()
        assert np.array_equal(block[[0, 2]], good)
        assert len(block_calls) <= len(good_calls)

    def test_source_infinite_at_start_flags_row_without_warning(self):
        # the row started at 5 has an infinite source at t = 0, so its first
        # extrapolated guess is 2 inf - inf
        sp = build_sine_space(1, math.pi)
        prop = build_propagator(constant_form(sp, sp.gram_V, 1.0), None, TimeGrid(1.0, 8))

        def source(t, u):
            return np.where(np.abs(u) > 2.0, np.inf, -u)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = _march(prop, np.array([[0.5], [5.0]]), None, source)
            single = _march(prop, np.array([5.0]), None, source)
        assert np.isnan(block[1]).all()
        assert np.isfinite(block[0]).all()
        assert np.isnan(single).all()


RANDOM_FORM_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


class TestRandomFormProperties:
    """Properties of the march over random accretive forms and grids."""

    @RANDOM_FORM_SETTINGS
    @given(n=st.integers(1, 4), n_steps=st.integers(1, 32), k=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_nodal_march_matches_state_independent_source(self, n, n_steps, k, seed):
        # k = 0 marches one vector, otherwise a (k, n) block
        rng = np.random.default_rng(seed)
        sp = build_sine_space(n, math.pi)
        grid = TimeGrid(1.0, n_steps)
        prop = build_propagator(random_accretive_form(sp, rng), None, grid)
        a, b, w = rng.standard_normal(n), rng.standard_normal(n), rng.uniform(0.5, 4.0)

        def source(t, u):
            return math.sin(w * t) * a + math.cos(t) * b

        x = rng.standard_normal((k, n) if k else n)
        nodal = _march(prop, x, np.array([source(float(t), None) for t in grid.nodes]))
        state = _march(prop, x, None, source)
        assert nodal.shape == state.shape == (*x.shape[:-1], n_steps + 1, n)
        assert np.abs(nodal - state).max() <= STEP_TOL * (1.0 + np.abs(state).max())

    @RANDOM_FORM_SETTINGS
    @given(n=st.integers(1, 4), n_steps=st.integers(1, 32), k=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), nodal=st.booleans())
    def test_block_rows_match_single_marches(self, n, n_steps, k, seed, nodal):
        rng = np.random.default_rng(seed)
        sp = build_sine_space(n, math.pi)
        prop = build_propagator(random_accretive_form(sp, rng), None, TimeGrid(1.0, n_steps))
        f_values = rng.standard_normal((n_steps + 1, n)) if nodal else None
        xs = rng.standard_normal((k, n))
        block = _march(prop, xs, f_values)
        assert block.shape == (k, n_steps + 1, n)
        for x, row in zip(xs, block):
            single = _march(prop, x, f_values)
            assert np.abs(row - single).max() <= STEP_TOL * (1.0 + np.abs(single).max())

    @RANDOM_FORM_SETTINGS
    @given(n=st.integers(1, 4), n_steps=st.integers(1, 32), k=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_homogeneous_pivot_norms_never_rise(self, n, n_steps, k, seed):
        rng = np.random.default_rng(seed)
        sp = build_sine_space(n, math.pi)
        prop = build_propagator(random_accretive_form(sp, rng), None, TimeGrid(1.0, n_steps))
        xs = rng.standard_normal((k, n))
        norms = sp.h_norm(_march(prop, xs, None))
        assert norms.shape == (k, n_steps + 1)
        assert norms[:, 0] == pytest.approx([sp.h_norm(x) for x in xs], rel=1e-14)
        assert np.all(np.diff(norms, axis=1) <= 1e-12 * norms[:, :1])

    @RANDOM_FORM_SETTINGS
    @given(n=st.integers(1, 4), n_steps=st.integers(1, 32), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_composition_law(self, n, n_steps, seed, data):
        i, j, k = sorted(data.draw(st.lists(st.integers(0, n_steps), min_size=3, max_size=3)))
        rng = np.random.default_rng(seed)
        sp = build_sine_space(n, math.pi)
        prop = build_propagator(random_accretive_form(sp, rng), None, TimeGrid(1.0, n_steps))
        # factors are pivot contractions: 32 products in dimension 4 stay far below 1e-13
        assert np.abs(prop.compose(i, k) - prop.compose(j, k) @ prop.compose(i, j)).max() <= 1e-13

    @RANDOM_FORM_SETTINGS
    @given(n=st.integers(1, 4), n_steps=st.integers(1, 32), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_adjoint_identity(self, n, n_steps, seed, data):
        i_s, i_t = sorted(data.draw(st.lists(st.integers(0, n_steps), min_size=2, max_size=2,
                                             unique=True)))
        rng = np.random.default_rng(seed)
        sp = build_sine_space(n, math.pi)
        form = random_accretive_form(sp, rng)
        grid = TimeGrid(1.0, n_steps)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        lhs = build_propagator(form, None, grid).apply(x, i_s, i_t) @ sp.gram_H @ y
        rhs = x @ sp.gram_H @ adjoint_propagate(form, None, grid, y, i_t, i_s)
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)


class TestAdjoint:
    def nonsymmetric_form(self):
        sp = build_sine_space(2, math.pi)
        s = np.array([[1.0, 0.3], [0.0, 2.0]])
        return sp, constant_form(sp, s, 1.0, coercivity_alpha=0.2)

    def test_symmetric_constant_form_self_adjoint(self):
        sp = build_sine_space(3, math.pi)
        form = constant_form(sp, np.diag([1.0, 4.0, 9.0]), 1.0)
        grid = TimeGrid(1.0, 16)
        x = np.array([0.3, -1.0, 0.7])
        fwd = build_propagator(form, None, grid).apply(x, 3, 12)
        adj = adjoint_propagate(form, None, grid, x, 12, 3)
        assert np.allclose(fwd, adj, atol=1e-12)

    def test_adjoint_identity_random_pairs(self):
        sp, form = self.nonsymmetric_form()
        grid = TimeGrid(1.0, 32)
        prop = build_propagator(form, None, grid)
        rng = np.random.default_rng(4)
        for _ in range(25):
            x = rng.standard_normal(2)
            y = rng.standard_normal(2)
            lhs = prop.apply(x, 5, 27) @ sp.gram_H @ y
            rhs = x @ sp.gram_H @ adjoint_propagate(form, None, grid, y, 27, 5)
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)

    def test_adjoint_matches_transposed_factors(self):
        rng = np.random.default_rng(15)
        sp = build_sine_space(3, math.pi)
        form = random_accretive_form(sp, rng)
        grid = TimeGrid(1.0, 16)
        prop = build_propagator(form, None, grid)
        e = prop.compose(2, 13)
        estar = np.linalg.solve(sp.gram_H, e.T @ sp.gram_H)
        y = rng.standard_normal(3)
        assert np.allclose(estar @ y, adjoint_propagate(form, None, grid, y, 13, 2), atol=1e-10)

    def test_reversal_is_involutive(self):
        rng = np.random.default_rng(8)
        sp = build_sine_space(3, math.pi)
        form = random_accretive_form(sp, rng)
        rr = reversed_form(reversed_form(form))
        times = np.array([0.0, 0.4, 1.0])
        assert np.allclose(rr.stiffness_at(times), form.stiffness_at(times), atol=1e-14)

    def test_rejects_bad_node_order(self):
        sp, form = self.nonsymmetric_form()
        grid = TimeGrid(1.0, 8)
        with pytest.raises(ValueError):
            adjoint_propagate(form, None, grid, np.zeros(2), 3, 3)


class TestSubspaceInvariance:
    def test_leading_mode_stays(self):
        rng = np.random.default_rng(12)
        sp = build_sine_space(4, math.pi)
        form = random_accretive_form(sp, rng)
        proj = project(sp, 1)
        res = subspace_invariance_residual(form, proj, TimeGrid(1.0, 32), np.array([1.0, 0, 0, 0]))
        assert res <= 1e-10

    def test_full_projection_trivial(self):
        rng = np.random.default_rng(13)
        sp = build_sine_space(3, math.pi)
        form = random_accretive_form(sp, rng)
        proj = project(sp, 3)
        res = subspace_invariance_residual(form, proj, TimeGrid(1.0, 16), rng.standard_normal(3))
        assert res == 0.0

    def test_two_mode_block(self):
        rng = np.random.default_rng(14)
        sp = build_sine_space(4, math.pi)
        form = random_accretive_form(sp, rng)
        proj = project(sp, 2)
        x = np.array([1.0, 1.0, 0.0, 0.0])
        assert subspace_invariance_residual(form, proj, TimeGrid(1.0, 32), x) <= 1e-10

    def test_rejects_data_outside_range(self):
        rng = np.random.default_rng(16)
        sp = build_sine_space(3, math.pi)
        form = random_accretive_form(sp, rng)
        with pytest.raises(ValueError):
            subspace_invariance_residual(form, project(sp, 1), TimeGrid(1.0, 8),
                                         np.array([1.0, 0.5, 0.0]))


class TestProjectedConvergence:
    def test_diagonal_truncation_error_at_t0(self):
        sp = build_sine_space(8, math.pi)
        form = constant_form(sp, sp.gram_V, 1.0)
        x = np.array([1.0 / k for k in range(1, 9)])
        study = projected_convergence_study(form, TimeGrid(1.0, 32), x, [2, 4], 8)
        for m, err in study:
            tail = math.sqrt(sum(x[k] ** 2 for k in range(m, 8)))
            assert err == pytest.approx(tail, rel=1e-10)

    def test_errors_nonincreasing_for_coupled_form(self):
        rng = np.random.default_rng(30)
        sp = build_sine_space(16, math.pi)
        form = random_accretive_form(sp, rng)
        x = np.array([math.exp(-k) for k in range(1, 17)])
        study = projected_convergence_study(form, TimeGrid(1.0, 64), x, [2, 4, 8], 16)
        errs = [e for _, e in study]
        assert errs[0] >= errs[1] - 1e-10 and errs[1] >= errs[2] - 1e-10

    def test_data_in_smallest_subspace_gives_tiny_errors(self):
        # decoupled form: every reduction acts identically on the occupied
        # mode, so all study errors are roundoff only
        sp = build_sine_space(8, math.pi)
        form = constant_form(sp, sp.gram_V, 1.0)
        x = np.zeros(8)
        x[0] = 1.0
        study = projected_convergence_study(form, TimeGrid(1.0, 64), x, [1, 2, 4], 8)
        for _, err in study:
            assert err <= 1e-8

    def test_reference_flow_built_once(self):
        # one stiffness evaluation per step, shared by the reference and every
        # reduction; no path norm is read, so none is computed
        rng = np.random.default_rng(31)
        sp = build_sine_space(16, math.pi)
        form = random_accretive_form(sp, rng)
        calls = []

        def counted(t):
            calls.append(t.copy())
            return form.stiffness_at(t)

        grid = TimeGrid(1.0, 32)
        x = np.array([math.exp(-k) for k in range(1, 17)])
        projected_convergence_study(replace(form, stiffness_at=counted), grid, x,
                                    [2, 4, 8], 16)
        assert len(calls) == 1
        assert np.array_equal(calls[0], grid.midpoints)

    def test_peak_memory_is_two_stacks(self):
        # reductions march while only the shared stack is alive; the reference
        # build then consumes it, so the study peaks like one build
        sp = build_sine_space(32, math.pi)
        form = divergence_form_assemble(time_power_coefficient(1.0, 0.5, 0.6), sp, 6)
        grid = TimeGrid(1.0, 512)
        stack_bytes = grid.n_steps * sp.n_modes**2 * 8
        tracemalloc.start()
        try:
            projected_convergence_study(form, grid, 1.0 / np.arange(1, 33) ** 2, [2, 4, 8, 16], 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2 * stack_bytes

    @staticmethod
    def per_reduction_study(form, grid, x, m_list, m_ref):
        # the study written out: one full-space propagate per reduction
        sp = form.space
        ref_proj = None if m_ref == sp.n_modes else project(sp, m_ref)
        ref = propagate(form, ref_proj, grid, x).values
        out = []
        for m in m_list:
            pm = project(sp, m)
            vals = propagate(form, pm, grid, pm.matrix @ x).values
            out.append((m, float(sp.h_norm(vals - ref).max())))
        return out

    @pytest.mark.parametrize("case", ["sine_full_reference", "sine_reduced_reference",
                                      "coupled_gram"])
    def test_matches_per_reduction_propagation(self, case):
        rng = np.random.default_rng(34)
        if case == "coupled_gram":
            sp = coupled_gram_space(10, rng)
        else:
            sp = build_sine_space(10, math.pi)
        m_ref = 10 if case == "sine_full_reference" else 7
        form = random_accretive_form(sp, rng)
        grid = TimeGrid(1.0, 48)
        x = np.eye(10)[0]  # in every reduction's range: each error is zero at t = 0
        m_list = [1, 2, 4, 6]
        study = projected_convergence_study(form, grid, x, m_list, m_ref)
        loop = self.per_reduction_study(form, grid, x, m_list, m_ref)
        assert [m for m, _ in study] == m_list
        # a coupled Gram pair solves m x m systems where the loop solves the
        # projected n x n ones: the same flow, equal up to rounding
        rel = 1e-13 if case == "coupled_gram" else 1e-15
        for (_, err), (_, want) in zip(study, loop):
            assert want > 0.0 and abs(err - want) <= rel * want

    def test_reference_must_dominate(self):
        sp = build_sine_space(4, math.pi)
        form = constant_form(sp, sp.gram_V, 1.0)
        with pytest.raises(ValueError):
            projected_convergence_study(form, TimeGrid(1.0, 8), np.ones(4), [2, 4], 4)


class TestTrajectoryNorms:
    def test_accumulators_recomputable(self):
        rng = np.random.default_rng(40)
        sp = build_sine_space(3, math.pi)
        form = random_accretive_form(sp, rng)
        grid = TimeGrid(1.0, 16)
        tr = propagate(form, None, grid, rng.standard_normal(3))
        rebuilt = make_trajectory(sp, grid, tr.values)
        assert rebuilt.sobolev_h1 == pytest.approx(tr.sobolev_h1, rel=1e-12)
        assert rebuilt.l2_v == pytest.approx(tr.l2_v, rel=1e-12)
        # |A u|_H^2 = |G_H^-1 S u|_H^2, one node at a time
        sq = [sp.h_norm(np.linalg.solve(sp.gram_H, stiffness_at_one(form, t) @ v))**2
              for t, v in zip(grid.nodes, tr.values)]
        assert au_l2(form, None, tr) == pytest.approx(math.sqrt(np.trapezoid(sq, dx=grid.dt)),
                                                      rel=1e-12)

    def test_norms_computed_on_first_read_only(self, monkeypatch):
        rng = np.random.default_rng(41)
        sp = build_sine_space(3, math.pi)
        grid = TimeGrid(1.0, 16)
        calls = []
        for name in ("h_norm", "v_norm"):
            kernel = getattr(GalerkinSpace, name)
            monkeypatch.setattr(GalerkinSpace, name, lambda self, v, name=name, kernel=kernel:
                                calls.append(name) or kernel(self, v))
        tr = make_trajectory(sp, grid, rng.standard_normal((17, 3)))
        assert calls == []
        first = (tr.h_norms, tr.l2_h, tr.mean_radius, tr.v_norms, tr.l2_v)
        assert calls == ["h_norm", "v_norm"]
        assert (tr.h_norms, tr.l2_h, tr.mean_radius, tr.v_norms, tr.l2_v) == first
        assert calls == ["h_norm", "v_norm"]

    def test_au_l2_of_a_block_is_per_path(self):
        rng = np.random.default_rng(42)
        sp = build_sine_space(4, math.pi)
        form = random_accretive_form(sp, rng)
        grid = TimeGrid(1.0, 16)
        block = make_trajectory(sp, grid, rng.standard_normal((3, 17, 4)))
        for proj in (None, project(sp, 2)):
            per_path = [au_l2(form, proj, make_trajectory(sp, grid, v)) for v in block.values]
            got = au_l2(form, proj, block)
            assert got.shape == (3,)
            assert got == pytest.approx(per_path, rel=1e-13)

    def test_rebuilt_path_keeps_its_regularity_norm(self):
        # the norm takes the form, so a path reads the same however it was wrapped
        rng = np.random.default_rng(43)
        sp = build_sine_space(3, math.pi)
        form = random_accretive_form(sp, rng)
        grid, proj = TimeGrid(1.0, 32), project(sp, 2)
        tr = propagate(form, proj, grid, proj.matrix @ rng.standard_normal(3))
        want = regularity_norm(form, proj, tr)
        assert au_l2(form, proj, tr) > 0.0
        for rebuilt in (make_trajectory(sp, grid, tr.values), unshift_trajectory(tr, 0.0)):
            assert regularity_norm(form, proj, rebuilt) == want

    def test_regularity_ratio_scalar_closed_form(self):
        sp, form = scalar_form()
        tr = propagate(form, None, TimeGrid(1.0, 512), np.array([1.0]))
        assert regularity_ratio(form, None, tr, 0.0, 1.0) == pytest.approx(REG_RATIO_SCALAR, abs=1e-3)

    def test_ratio_scale_invariant(self):
        sp, form = scalar_form()
        grid = TimeGrid(1.0, 64)
        lam = 17.5
        a = propagate(form, None, grid, np.array([1.0]))
        b = propagate(form, None, grid, np.array([lam]))
        assert regularity_ratio(form, None, b, 0.0, lam) == pytest.approx(
            regularity_ratio(form, None, a, 0.0, 1.0), rel=1e-12
        )

    def test_zero_data_rejected(self):
        sp, form = scalar_form()
        tr = propagate(form, None, TimeGrid(1.0, 8), np.array([0.0]))
        with pytest.raises(ValueError):
            regularity_ratio(form, None, tr, 0.0, 0.0)

    def test_ratio_stable_under_refinement(self):
        sp, form = scalar_form()
        r = [
            regularity_ratio(form, None, propagate(form, None, TimeGrid(1.0, ns), np.array([1.0])),
                             0.0, 1.0)
            for ns in (128, 256, 512)
        ]
        assert abs(r[2] - r[1]) < abs(r[1] - r[0])
        assert r[2] == pytest.approx(REG_RATIO_SCALAR, abs=1e-4)


class TestWeightedDiagnostic:
    def test_finite_and_refinement_stable(self):
        sp, form = scalar_form()
        vals = [
            weighted_diagnostic(form, None, propagate(form, None, TimeGrid(1.0, ns),
                                                      np.array([1.0])))
            for ns in (64, 128, 256)
        ]
        assert all(math.isfinite(v) and v > 0 for v in vals)
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])

    def test_scale_invariant_in_data(self):
        rng = np.random.default_rng(33)
        sp = build_sine_space(3, math.pi)
        form = random_accretive_form(sp, rng)
        grid = TimeGrid(1.0, 64)
        x = rng.standard_normal(3)
        a = weighted_diagnostic(form, None, propagate(form, None, grid, x))
        b = weighted_diagnostic(form, None, propagate(form, None, grid, 7.0 * x))
        assert b == pytest.approx(a, rel=1e-12)

    def test_zero_data_rejected(self):
        sp, form = scalar_form()
        with pytest.raises(ValueError):
            weighted_diagnostic(form, None, propagate(form, None, TimeGrid(1.0, 8),
                                                      np.array([0.0])))


def reference_csv(traj, path):
    """The CSV written one row at a time by ``csv.writer``, each field ``repr(float(x))``."""
    n = traj.space.n_modes
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"c{i}" for i in range(n)] + ["h_norm", "v_norm"])
        for t, row, h, v in zip(traj.grid.nodes, traj.values, traj.h_norms, traj.v_norms):
            writer.writerow([repr(float(x)) for x in (t, *row, h, v)])


def written_and_reference(traj, tmp_path):
    """The bytes :func:`trajectory_to_csv` writes for a path, and the reference's."""
    with np.errstate(all="ignore"):  # huge and non-finite entries give non-finite norms
        trajectory_to_csv(traj, tmp_path / "written.csv")
        reference_csv(traj, tmp_path / "reference.csv")
    return (tmp_path / "written.csv").read_bytes(), (tmp_path / "reference.csv").read_bytes()


class TestCsvExport:
    def test_bytes_match_row_writer_on_extreme_values(self, tmp_path):
        sp = build_sine_space(3, math.pi)
        values = np.array([[-0.0, 5e-324, 1e300],
                           [1.0, 0.1 + 0.2, 1.0 / 3.0],
                           [-2.718281828459045, math.pi, 1.2345678901234567e-8],
                           [np.inf, -np.inf, np.nan],
                           [-0.0, 0.0, -1e-300]])
        tr = make_trajectory(sp, TimeGrid(1.0, 4), values)
        written, reference = written_and_reference(tr, tmp_path)
        assert written == reference
        lines = written.split(b"\r\n")
        assert lines[0] == b"t,c0,c1,c2,h_norm,v_norm" and lines[-1] == b""
        assert lines[1].startswith(b"0.0,-0.0,5e-324,1e+300,")
        assert lines[2].split(b",")[2:4] == [b"0.30000000000000004", b"0.3333333333333333"]
        assert lines[4].split(b",")[1:4] == [b"inf", b"-inf", b"nan"]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 4), n_steps=st.integers(1, 6),
           horizon=st.floats(1e-3, 1e3), data=st.data())
    def test_bytes_match_row_writer(self, tmp_path_factory, n, n_steps, horizon, data):
        values = data.draw(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                                    min_size=(n_steps + 1) * n, max_size=(n_steps + 1) * n))
        tr = make_trajectory(build_sine_space(n, math.pi), TimeGrid(horizon, n_steps),
                             np.reshape(values, (n_steps + 1, n)))
        written, reference = written_and_reference(tr, tmp_path_factory.mktemp("csv"))
        assert written == reference

    def test_round_trip_columns(self, tmp_path):
        sp, form = scalar_form()
        tr = propagate(form, None, TimeGrid(1.0, 4), np.array([1.0]))
        out = tmp_path / "traj.csv"
        trajectory_to_csv(tr, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,c0,h_norm,v_norm"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0


class TestL2Distance:
    def test_distance_zero_on_identical(self):
        sp, form = scalar_form()
        grid = TimeGrid(1.0, 8)
        tr = propagate(form, None, grid, np.array([1.0]))
        assert l2h_distance(tr, tr) == 0.0

    def test_grid_mismatch_rejected(self):
        sp, form = scalar_form()
        a = propagate(form, None, TimeGrid(1.0, 8), np.array([1.0]))
        b = propagate(form, None, TimeGrid(1.0, 16), np.array([1.0]))
        with pytest.raises(ValueError):
            l2h_distance(a, b)
