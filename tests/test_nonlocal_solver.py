import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_evolution import RANDOM_FORM_SETTINGS, coupled_gram_space, random_accretive_form

from parabolic_nonlocal.evolution import (
    TimeGrid,
    build_propagator,
    duhamel_solve,
    l2h_distance,
    make_trajectory,
    projected_convergence_study,
    propagate,
    zero_trajectory,
)
from parabolic_nonlocal.galerkin import TimeForm, build_sine_space, constant_form, project
from parabolic_nonlocal.models import cosine_bump_kernel, preset_evi, preset_heat_timevarying
from parabolic_nonlocal.nonlinearity import (
    Nonlinearity,
    apply_superposition,
    bounded_source,
    negated_identity,
    pseudo_huber_functional,
    saturating_drift,
    scan_transversality,
    zero_nonlinearity,
)
from parabolic_nonlocal.nonlocal_solver import (
    NonlocalCondition,
    NonlocalProblem,
    PathLinear,
    SolverConfig,
    annulus_energy_check,
    audit_g_bound,
    audit_problem,
    estimate_g_star,
    exp_shift,
    g_constant,
    _kernel_cosine_coefficients,
    g_mollified_integral,
    g_path_linear,
    solve_nonlocal,
    unshift_trajectory,
)

STATUSES = ("converged", "max_iterations", "boundary_hit", "non_finite")

# closed-form fixed point of the scalar time-average condition:
# x = c h (1-q) / (1 - c q), q = (1 - e^-T)/T, for u' + u = h, u(0) = (c/T) int u
AFFINE_ORACLE = 0.1786170974424931  # T=1, c=0.8, h=0.3


def scalar_problem(grid, f, g, r0=1.0, R0=math.inf):
    sp = build_sine_space(1, math.pi)
    form = constant_form(sp, np.array([[1.0]]), grid.horizon)
    return NonlocalProblem(form=form, proj=project(sp, 1), f=f, g=g,
                           grid=grid, r0=r0, R0=R0)


def homotopy_map(prob, lam, w, propagator=None):
    """The stage map S(lam, w): the linear solve with initial value ``lam P g(w)`` and
    nodal source ``lam P f(t, w(t))``.  Its fixed points are the paths
    :func:`solve_nonlocal` finds at stage lam; stage 0 gives the zero path."""
    p = prob.proj.matrix
    return duhamel_solve(prob.form, prob.proj, prob.grid, lam * (p @ prob.g.eval(w)),
                         lam * (apply_superposition(prob.f, w) @ p.T), propagator=propagator)


def time_average_condition(c, horizon):
    def eval_g(traj):
        return (c / horizon) * np.trapezoid(traj.values, dx=traj.grid.dt, axis=-2)

    return NonlocalCondition(eval_g)


def per_path(eval_one):
    """A g written for one path, wrapped to the block contract with np.vectorize."""
    return lambda tr: np.vectorize(lambda v: eval_one(make_trajectory(tr.space, tr.grid, v)),
                                   signature="(m,n)->(n)")(tr.values)


class TestGConstant:
    def test_ignores_trajectory(self):
        sp = build_sine_space(2, math.pi)
        grid = TimeGrid(1.0, 8)
        g = g_constant(np.array([0.5, -1.0]))
        rng = np.random.default_rng(0)
        for _ in range(3):
            tr = make_trajectory(sp, grid, rng.standard_normal((9, 2)))
            assert np.array_equal(g.eval(tr), [0.5, -1.0])

    def test_zero_data(self):
        g = g_constant(np.zeros(3))
        sp = build_sine_space(3, math.pi)
        tr = zero_trajectory(sp, TimeGrid(1.0, 4))
        assert not g.eval(tr).any()

    def test_bound_is_radius_independent(self):
        sp = build_sine_space(2, math.pi)
        grid = TimeGrid(1.0, 16)
        g = g_constant(np.array([0.3, 0.0]))
        for r in (0.5, 1.0, 4.0):
            audit = audit_g_bound(g, r, 50, grid, sp, seed=1)
            assert audit.margin == pytest.approx(r - 0.3, abs=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            g_constant(np.array([math.inf]))


class TestGMollified:
    def setup_method(self):
        self.space = build_sine_space(4, math.pi)
        self.grid = TimeGrid(1.0, 64)
        self.kernel = cosine_bump_kernel(4.0)

    def test_empty_interval_set_gives_zero(self):
        g = g_mollified_integral(self.kernel, [], self.space)
        rng = np.random.default_rng(3)
        tr = make_trajectory(self.space, self.grid, rng.standard_normal((65, 4)))
        assert not g.eval(tr).any()

    def test_interval_additivity(self):
        g_split = g_mollified_integral(self.kernel, [(0.0, 0.3), (0.3, 0.7)], self.space)
        g_union = g_mollified_integral(self.kernel, [(0.0, 0.7)], self.space)
        rng = np.random.default_rng(4)
        tr = make_trajectory(self.space, self.grid, rng.standard_normal((65, 4)))
        assert np.allclose(g_split.eval(tr), g_union.eval(tr), atol=1e-13)

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ValueError):
            g_mollified_integral(self.kernel, [(0.0, 0.5), (0.4, 0.8)], self.space)

    def g_star_at(self, g, tr):
        # the closed-form sup of |g(u)|_V over paths of L2 pivot norm at most tr.l2_h
        return estimate_g_star(g, float(tr.l2_h), 1, self.grid, self.space)

    def test_smoothing_estimate_constant_path(self):
        # |g(u)|_V <= g*(rho) for a constant path of L2 pivot norm rho = |u0|_H sqrt(T)
        g = g_mollified_integral(self.kernel, [(0.0, 1.0)], self.space)
        u0 = np.array([0.7, -0.2, 0.4, 0.1])
        tr = make_trajectory(self.space, self.grid, np.tile(u0, (65, 1)))
        assert self.space.v_norm(g.eval(tr)) <= self.g_star_at(g, tr) * (1 + 1e-12)

    def test_smoothing_estimate_random_paths(self):
        g = g_mollified_integral(self.kernel, [(0.0, 1.0)], self.space)
        rng = np.random.default_rng(5)
        for _ in range(10):
            tr = make_trajectory(self.space, self.grid, rng.standard_normal((65, 4)))
            assert self.space.v_norm(g.eval(tr)) <= self.g_star_at(g, tr) * (1 + 1e-12)

    def test_sharp_kernel_flagged_unusable(self):
        sharp = cosine_bump_kernel(1.0)  # derivative mass 2 >= 1
        g = g_mollified_integral(sharp, [(0.0, 0.5)], self.space)
        assert not g.solver_ok
        assert sharp.derivative_mass == pytest.approx(2.0, rel=1e-3)
        assert g_mollified_integral(self.kernel, [(0.0, 0.5)], self.space).solver_ok

    def test_off_grid_interval_exact_for_linear_path(self):
        alpha = np.array([0.3, -1.1, 0.5, 2.0])
        beta = np.array([-0.7, 0.4, 1.3, -0.2])
        lo, hi = 0.013, 0.77
        g = g_mollified_integral(self.kernel, [(lo, hi)], self.space)
        tr = make_trajectory(self.space, self.grid, alpha + np.outer(self.grid.nodes, beta))
        conv = np.diag(_kernel_cosine_coefficients(self.kernel, self.space))
        exact = conv @ (alpha * (hi - lo) + beta * (hi**2 - lo**2) / 2.0)
        assert np.abs(g.eval(tr) - exact).max() <= 1e-15

    def test_full_horizon_is_trapezoid_rule(self):
        g = g_mollified_integral(self.kernel, [(0.0, 1.0)], self.space)
        vals = np.random.default_rng(6).standard_normal((65, 4))
        tr = make_trajectory(self.space, self.grid, vals)
        coeffs = _kernel_cosine_coefficients(self.kernel, self.space)
        expected = coeffs * np.trapezoid(vals, dx=self.grid.dt, axis=0)
        assert np.abs(g.eval(tr) - expected).max() <= 1e-15

    def test_interval_beyond_horizon_rejected(self):
        g = g_mollified_integral(self.kernel, [(0.0, 2.0)], self.space)
        tr = make_trajectory(self.space, self.grid, np.ones((65, 4)))
        with pytest.raises(ValueError):
            g.eval(tr)

    @pytest.mark.parametrize("width, n_modes", [(4.0, 8), (2.5, 32)])
    def test_kernel_transform_closed_form(self, width, n_modes):
        # raised cosine of half-width a at omega = k pi / L, with b = pi / a
        space = build_sine_space(n_modes, math.pi)
        omega = np.arange(1, n_modes + 1) * math.pi / space.domain_length
        a, b = width, math.pi / width
        exact = (np.sin(omega * a) / (omega * a)
                 - np.sin(omega * a) / (2.0 * a) * (1.0 / (omega + b) + 1.0 / (omega - b)))
        coeffs = _kernel_cosine_coefficients(cosine_bump_kernel(width), space)
        assert np.abs(coeffs - exact).max() <= 1e-13


class TestAuditGBound:
    def test_zero_condition_full_margin(self):
        sp = build_sine_space(2, math.pi)
        grid = TimeGrid(1.0, 16)
        g = NonlocalCondition(lambda tr: np.zeros(2))
        audit = audit_g_bound(g, 2.0, 40, grid, sp, seed=0)
        assert audit.passed and audit.margin == pytest.approx(2.0)

    def test_contractive_time_average(self):
        # Cauchy-Schwarz gives |g(u)| <= theta r for the scaled time average
        sp = build_sine_space(3, math.pi)
        grid = TimeGrid(1.0, 32)
        theta = 0.6
        g = time_average_condition(theta, 1.0)
        audit = audit_g_bound(g, 1.5, 60, grid, sp, seed=2)
        assert audit.passed
        assert audit.margin >= (1.0 - theta) * 1.5 - 1e-9

    def test_amplifying_condition_fails(self):
        sp = build_sine_space(2, math.pi)
        grid = TimeGrid(1.0, 16)
        g = NonlocalCondition(lambda tr: 2.0 * tr.values[..., 0, :])
        audit = audit_g_bound(g, 1.0, 60, grid, sp, seed=3)
        assert not audit.passed

    def test_nan_condition_fails_every_g_audit(self):
        # a NaN norm counts as +inf: the bound fails, g* is infinite, the audits fail
        sp, grid = build_sine_space(2, math.pi), TimeGrid(1.0, 16)
        g = NonlocalCondition(lambda tr: np.full(2, np.nan))
        assert audit_g_bound(g, 1.0, 20, grid, sp) == (False, -math.inf)
        assert estimate_g_star(g, 1.0, 20, grid, sp) == math.inf
        prob = NonlocalProblem(form=constant_form(sp, sp.gram_V, 1.0), proj=project(sp, 2),
                               f=Nonlinearity(lambda t, x: -x, 1.0, lambda t: 0.0), g=g,
                               grid=grid, r0=0.5, R0=math.inf)
        audit = audit_problem(prob, seed=0)
        assert audit["transversality_ok"] and not audit["g_bound_ok"] and not audit["passed"]
        assert audit["g_bound_margins"] == [-math.inf] * 4

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_no_samples_rejected(self, n_samples):
        # an empty sample would pass with the full margin without testing a path; a
        # path-linear g, which draws none, rejects the count too
        sp = build_sine_space(2, math.pi)
        g = NonlocalCondition(lambda tr: 2.0 * tr.values[..., 0, :])
        for g in (g, g_constant(np.ones(2))):
            with pytest.raises(ValueError, match="n_samples"):
                audit_g_bound(g, 1.0, n_samples, TimeGrid(1.0, 16), sp)
            with pytest.raises(ValueError, match="n_samples"):
                estimate_g_star(g, 1.0, n_samples, TimeGrid(1.0, 16), sp)


class TestSampledBlocks:
    """The g* sampler and the g-bound audits pass blocks of paths to g."""

    def test_blocks_equal_one_path_at_a_time(self, monkeypatch):
        import parabolic_nonlocal.nonlocal_solver as ns

        sp, grid = build_sine_space(3, math.pi), TimeGrid(1.0, 64)
        block = time_average_condition(0.6, 1.0)
        one = NonlocalCondition(per_path(block.eval))
        blocked = [estimate_g_star(block, 1.0, 50, grid, sp, seed=4),
                   audit_g_bound(block, 1.5, 50, grid, sp, seed=4).margin]
        monkeypatch.setattr(ns, "ROW_CHUNK", 1)  # one path per block
        assert [estimate_g_star(one, 1.0, 50, grid, sp, seed=4),
                audit_g_bound(one, 1.5, 50, grid, sp, seed=4).margin] == blocked

    def test_audit_radii_share_one_draw(self):
        # audit_problem scales one draw to its four radii; the margins are those of
        # four separate audit_g_bound calls with the same seed, bit for bit.  The
        # preset's g is path-linear, so it is checked sampled too, its data dropped
        heat = preset_heat_timevarying(4, 64)
        for prob in (heat, replace(heat, g=replace(heat.g, path_linear=None))):
            audit = audit_problem(prob, seed=5)
            radii = np.geomspace(prob.r0 * 1.0001, 10.0 * prob.r0 * 0.9999, 4)
            separate = [audit_g_bound(prob.g, float(r), 30, prob.grid, prob.form.space,
                                      seed=5).margin for r in radii]
            assert audit["g_bound_margins"] == separate

    def test_state_free_row_broadcasts(self):
        sp, grid = build_sine_space(2, math.pi), TimeGrid(1.0, 16)
        g = NonlocalCondition(lambda tr: np.array([0.3, 0.4]))
        assert audit_g_bound(g, 1.0, 20, grid, sp).margin == pytest.approx(0.5, abs=1e-15)


class TestHomotopyMap:
    def test_stage_zero_returns_zero_path(self):
        grid = TimeGrid(1.0, 32)
        prob = scalar_problem(grid, zero_nonlinearity(), g_constant(np.array([0.4])))
        rng = np.random.default_rng(6)
        w = make_trajectory(prob.form.space, grid, rng.standard_normal((33, 1)))
        out = homotopy_map(prob, 0.0, w)
        assert not out.values.any()

    def test_converged_solution_is_fixed_point(self):
        grid = TimeGrid(1.0, 128)
        f = Nonlinearity(lambda t, x: np.array([0.3]), 0.0, lambda t: 0.3)
        prob = scalar_problem(grid, f, time_average_condition(0.8, 1.0), r0=0.31)
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12, lambda_steps=3))
        assert rep.converged
        again = homotopy_map(prob, 1.0, rep.solution)
        assert l2h_distance(rep.solution, again) <= 1e-10

    def test_affine_superposition_in_data(self):
        grid = TimeGrid(1.0, 64)
        f1 = Nonlinearity(lambda t, x: np.array([0.2]), 0.0, lambda t: 0.2)
        g = g_constant(np.array([0.5]))
        zero_g = g_constant(np.array([0.0]))
        rng = np.random.default_rng(7)
        w = make_trajectory(build_sine_space(1, math.pi), grid, rng.standard_normal((65, 1)))
        full = homotopy_map(scalar_problem(grid, f1, g), 0.7, w)
        source_only = homotopy_map(scalar_problem(grid, f1, zero_g), 0.7, w)
        data_only = homotopy_map(scalar_problem(grid, zero_nonlinearity(), g), 0.7, w)
        assert np.allclose(full.values, source_only.values + data_only.values, atol=1e-12)

    def test_grid_mismatch_rejected(self):
        grid = TimeGrid(1.0, 16)
        prob = scalar_problem(grid, zero_nonlinearity(), g_constant(np.array([0.0])))
        w = zero_trajectory(prob.form.space, TimeGrid(1.0, 8))
        with pytest.raises(ValueError, match="every grid node"):
            homotopy_map(prob, 0.5, w)


class TestSolveNonlocal:
    def test_trivial_problem_zero_solution(self):
        grid = TimeGrid(1.0, 32)
        prob = scalar_problem(grid, zero_nonlinearity(), g_constant(np.array([0.0])))
        rep = solve_nonlocal(prob)
        assert rep.converged
        assert rep.fixed_point_residual == 0.0
        assert not rep.solution.values.any()

    def test_affine_scalar_oracle(self):
        grid = TimeGrid(1.0, 512)
        f = Nonlinearity(lambda t, x: np.array([0.3]), 0.0, lambda t: 0.3)
        prob = scalar_problem(grid, f, time_average_condition(0.8, 1.0), r0=0.31)
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12, lambda_steps=5))
        assert rep.converged
        assert rep.solution.values[0][0] == pytest.approx(AFFINE_ORACLE, abs=1e-6)
        assert rep.fixed_point_residual <= 1e-8

    def test_constant_condition_reduces_to_classical_data(self):
        grid = TimeGrid(1.0, 64)
        x0 = np.array([0.8])
        prob = scalar_problem(grid, zero_nonlinearity(), g_constant(x0))
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12, lambda_steps=2))
        classical = propagate(prob.form, prob.proj, grid, x0)
        assert rep.converged
        assert l2h_distance(rep.solution, classical) <= 1e-10

    def test_boundary_hit_reported(self):
        grid = TimeGrid(1.0, 32)
        outward = Nonlinearity(lambda t, x: 4.0 * x, 4.0, lambda t: 0.0)
        prob = scalar_problem(grid, outward, g_constant(np.array([1.2])), r0=1.0, R0=1.6)
        rep = solve_nonlocal(prob, SolverConfig())
        assert rep.status == "boundary_hit"
        assert not rep.converged

    def test_max_iterations_reports_stage(self):
        grid = TimeGrid(1.0, 32)
        f = Nonlinearity(lambda t, x: np.array([0.3]), 0.0, lambda t: 0.3)
        prob = scalar_problem(grid, f, time_average_condition(0.9, 1.0), r0=0.31)
        rep = solve_nonlocal(prob, SolverConfig(max_inner=2))
        assert rep.status == "max_iterations"
        assert not rep.converged
        assert rep.lambda_path[-1][1] == 2

    def test_galerkin_consistency_under_reduction(self):
        # solving with coarser reductions stays within a shrinking envelope
        # of the full-reduction solution
        sp = build_sine_space(8, math.pi)
        form = constant_form(sp, sp.gram_V + 0.2 * np.eye(8), 1.0)
        grid = TimeGrid(1.0, 64)
        x0 = np.exp(-np.arange(1, 9, dtype=float))
        f = Nonlinearity(lambda t, x: -0.3 * x, 0.3, lambda t: 0.0)
        cfg = SolverConfig(inner_tol=1e-11, lambda_steps=3)
        sols = {}
        for m in (2, 4, 8):
            prob = NonlocalProblem(form=form, proj=project(sp, m), f=f,
                                   g=g_constant(x0), grid=grid, r0=2.0, R0=math.inf)
            rep = solve_nonlocal(prob, cfg)
            assert rep.status == "converged"
            sols[m] = rep.solution
        gaps = [
            max(sp.h_norm(sols[m].values[j] - sols[8].values[j]) for j in range(65))
            for m in (2, 4)
        ]
        assert gaps[0] >= gaps[1] - 1e-10
        # the reduction gap tracks the homogeneous-flow convergence envelope
        envelope = dict(projected_convergence_study(form, grid, x0, [2, 4], 8))
        assert gaps[0] <= 3.0 * envelope[2]
        assert gaps[1] <= 3.0 * envelope[4]

    def test_apriori_pair_finite_and_stable(self):
        reports = []
        for ns in (256, 512):
            grid = TimeGrid(1.0, ns)
            f = Nonlinearity(lambda t, x: np.array([0.3]), 0.0, lambda t: 0.3)
            prob = scalar_problem(grid, f, time_average_condition(0.8, 1.0), r0=0.31)
            reports.append(solve_nonlocal(prob, SolverConfig(inner_tol=1e-11)))
        ratios = [r.apriori_lhs / r.apriori_rhs for r in reports]
        assert all(math.isfinite(r) and r > 0 for r in ratios)
        assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.05


def dense_affine_solution(prob):
    """Discrete fixed point of an affine problem as the dense solve of (I - L) w = c.

    c = S(0) and L w = S(w) - c, for S the stage map at lam = 1.
    """
    space, grid = prob.form.space, prob.grid
    prop = build_propagator(prob.form, prob.proj, grid)
    shape = (grid.n_steps + 1, space.n_modes)
    size = shape[0] * shape[1]

    def stage_map(flat):
        w = make_trajectory(space, grid, flat.reshape(shape))
        return homotopy_map(prob, 1.0, w, prop).values.ravel()

    c = stage_map(np.zeros(size))
    lin = np.column_stack([stage_map(e) - c for e in np.eye(size)])
    return np.linalg.solve(np.eye(size) - lin, c)


class TestShooting:
    def test_heat_matches_direct_affine_solve(self):
        prob = preset_heat_timevarying(4, 64)  # affine f and g
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12))
        assert rep.converged
        assert np.abs(rep.solution.values.ravel() - dense_affine_solution(prob)).max() <= 1e-10

    @RANDOM_FORM_SETTINGS
    @given(n=st.integers(1, 4), n_steps=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    def test_random_affine_matches_direct_affine_solve(self, n, n_steps, seed):
        rng = np.random.default_rng(seed)
        sp = build_sine_space(n, math.pi)
        b, c = 0.5 * rng.uniform(-1.0, 1.0, (2, n, n)) / n  # |b|_2, |c|_2 <= 1/2
        h, x0 = rng.standard_normal((2, n))
        j = int(rng.integers(0, n_steps + 1))
        f = Nonlinearity(lambda t, x: x @ b.T + math.cos(t) * h, 0.5, lambda t: float(np.abs(h).sum()))
        g = NonlocalCondition(lambda tr: x0 + tr.values[..., j, :] @ c.T)
        prob = NonlocalProblem(form=random_accretive_form(sp, rng), proj=project(sp, n), f=f,
                               g=g, grid=TimeGrid(1.0, n_steps), r0=1.0, R0=math.inf)
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12))
        assert rep.converged
        assert np.abs(rep.solution.values.ravel() - dense_affine_solution(prob)).max() <= 1e-10

    def test_constant_condition_is_one_march(self):
        grid = TimeGrid(1.0, 64)
        f = Nonlinearity(lambda t, x: -x / (1.0 + np.abs(x)) + math.sin(t), 1.0, lambda t: 1.0)
        prob = scalar_problem(grid, f, g_constant(np.array([0.6])))
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12))
        assert rep.converged
        assert rep.lambda_path == ((1.0, 1, 0.0),)

    def test_affine_oracle_within_n_plus_two_marches(self):
        grid = TimeGrid(1.0, 512)
        f = Nonlinearity(lambda t, x: np.array([0.3]), 0.0, lambda t: 0.3)
        prob = scalar_problem(grid, f, time_average_condition(0.8, 1.0), r0=0.31)
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12))
        assert rep.converged
        assert len(rep.lambda_path) == 1 and rep.lambda_path[0][1] <= 1 + 2
        assert rep.solution.values[0][0] == pytest.approx(AFFINE_ORACLE, abs=1e-6)

    def test_unsolvable_step_equation_reports_status(self):
        grid = TimeGrid(1.0, 32)
        # dt/2 * 1e4 >> 1: no step's fixed-point iteration contracts
        f = Nonlinearity(lambda t, x: 1e4 * x + 1.0, 1e4, lambda t: 1.0)
        prob = scalar_problem(grid, f, time_average_condition(0.5, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve_nonlocal(prob)
        assert rep.status in STATUSES and rep.status != "converged"
        assert not rep.converged

    @pytest.mark.parametrize("gain, lambda_steps, path", [
        (96.0, 1, [(1.0, 1, math.inf)]),
        (96.0, 10, [(1.0, 1, math.inf), (0.1, 1, 0.0), (0.2, 1, 0.0), (0.3, 1, 0.0),
                    (0.4, 1, 0.0), (0.5, 1, math.inf)]),
        (1e12, 1, [(1.0, 1, math.inf)]),
        (1e12, 10, [(1.0, 1, math.inf), (0.1, 1, math.inf)]),
    ], ids=["unsolved-1", "unsolved-10", "overflow-1", "overflow-10"])
    def test_failed_start_march_reports_non_finite(self, gain, lambda_steps, path):
        # dt/2 * 96 > 1 leaves the start's step equation finite but unsolved, 1e12
        # overflows it; either way the march comes back NaN and the stage halts.
        # A failed row leaves the march, so an f that checks its input never
        # raises (it once met the NaN row at every later step)
        def f(t, x):
            if not np.isfinite(x).all():
                raise ValueError("f got a non-finite state")
            return gain * x

        prob = scalar_problem(TimeGrid(1.0, 32), Nonlinearity(f, gain, lambda t: 0.0),
                              g_constant(np.array([1.0])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve_nonlocal(prob, SolverConfig(lambda_steps=lambda_steps))
        assert rep.status == "non_finite" and not rep.converged
        assert rep.lambda_path == tuple(path)
        assert all(type(res) is float for _, _, res in rep.lambda_path)

    @pytest.mark.parametrize("lambda_steps", [1, 10])
    def test_error_raised_by_f_propagates(self, lambda_steps):
        # an f that raises is a fault of f, not a status; the row contract at
        # t = 0 passes, so the error surfaces in the first march
        def f(t, x):
            if t > 0.5:
                raise ValueError("f is undefined past t = 0.5")
            return -x

        prob = scalar_problem(TimeGrid(1.0, 32), Nonlinearity(f, 1.0, lambda t: 0.0),
                              g_constant(np.array([1.0])))
        with pytest.raises(ValueError, match="past t = 0.5"):
            solve_nonlocal(prob, SolverConfig(lambda_steps=lambda_steps))

    def test_continuation_rescues_boundary_hit(self):
        # u(0) = 3 - 2 u(0) has the root 1 inside R0, but x0 = g(0) = 3 marches
        # outside it; the homotopy stages reach the root from lam = 0
        grid = TimeGrid(1.0, 64)
        g = NonlocalCondition(lambda tr: 3.0 - 2.0 * tr.values[..., 0, :])
        prob = scalar_problem(grid, zero_nonlinearity(), g, r0=1.0, R0=1.5)
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12))
        assert rep.lambda_path[0][:2] == (1.0, 1)
        assert [p[0] for p in rep.lambda_path[1:]] == pytest.approx(np.linspace(0.1, 1.0, 10))
        assert rep.converged and rep.status == "converged"
        assert rep.solution.values[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_backtracking_recovers_from_step_past_R0(self):
        # r(x) = atan(x - 10): the full Newton step from x0 = g(0) = atan(10)
        # lands near x = 109, far outside R0; halving it reaches the root 10
        grid = TimeGrid(1.0, 64)
        g = NonlocalCondition(
            lambda tr: tr.values[..., 0, :] - np.arctan(tr.values[..., 0, :] - 10.0))
        prob = scalar_problem(grid, zero_nonlinearity(), g, R0=20.0)
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12, lambda_steps=1))
        assert rep.status == "converged" and rep.converged
        assert len(rep.lambda_path) == 1
        assert rep.solution.values[0][0] == pytest.approx(10.0, abs=1e-10)

    def test_jacobian_column_differenced_backwards_at_R0(self):
        # r(x) = 3 (x - 1) from x0 = g(0) = 3, whose path sits just inside R0:
        # the forward-difference march leaves R0, the backward one does not
        grid = TimeGrid(1.0, 64)
        g = NonlocalCondition(lambda tr: tr.values[..., 0, :] - 3.0 * (tr.values[..., 0, :] - 1.0))
        probe = scalar_problem(grid, zero_nonlinearity(), g)
        unit = propagate(probe.form, probe.proj, grid, np.array([1.0])).mean_radius
        prob = scalar_problem(grid, zero_nonlinearity(), g, R0=3.02 * unit)
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12, lambda_steps=1))
        assert rep.status == "converged" and rep.converged
        # start, forward and backward column, Newton step
        assert rep.lambda_path[0][1] == 4
        assert rep.solution.values[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_condition_failing_on_zero_path_reports_status(self):
        def eval_g(traj):
            if not traj.values.any():
                raise FloatingPointError("g is singular at the zero path")
            return np.array([0.1])

        grid = TimeGrid(1.0, 32)
        g = NonlocalCondition(eval_g)
        prob = scalar_problem(grid, zero_nonlinearity(), g)
        rep = solve_nonlocal(prob, SolverConfig(lambda_steps=1, g_star_samples=4))
        assert rep.status == "non_finite" and not rep.converged
        assert rep.lambda_path == ((1.0, 0, math.inf),)
        assert rep.fixed_point_residual == math.inf

    def test_condition_past_horizon_raises(self):
        grid = TimeGrid(1.0, 32)
        g = g_mollified_integral(cosine_bump_kernel(0.1), [(0.5, 2.0)],
                                 build_sine_space(1, math.pi))
        with pytest.raises(ValueError, match="horizon"):
            scalar_problem(grid, zero_nonlinearity(), g)

    def test_condition_past_horizon_rejected_before_any_march(self, monkeypatch):
        import parabolic_nonlocal.nonlocal_solver as ns

        def no_march(*args, **kwargs):
            raise AssertionError("marched before the horizon check")

        monkeypatch.setattr(ns, "_march", no_march)
        monkeypatch.setattr(ns, "build_propagator", no_march)
        grid = TimeGrid(1.0, 32)
        g = g_mollified_integral(cosine_bump_kernel(0.1), [(0.5, 2.0)],
                                 build_sine_space(1, math.pi))
        with pytest.raises(ValueError, match="horizon"):
            exp_shift(scalar_problem(grid, zero_nonlinearity(), g), 0.4)


class TestBlockShooting:
    @staticmethod
    def count_passes(monkeypatch):
        import parabolic_nonlocal.nonlocal_solver as ns

        passes, block = [], ns._light_s_apply

        def counted(prob, prop, lam, x):
            passes.append(np.shape(x))
            return block(prob, prop, lam, x)

        monkeypatch.setattr(ns, "_light_s_apply", counted)
        return passes

    def test_affine_solve_is_three_passes(self, monkeypatch):
        # start, one (n, n) Jacobian block, the Newton step; lambda_path counts rows
        passes = self.count_passes(monkeypatch)
        rep = solve_nonlocal(preset_heat_timevarying(4, 64), SolverConfig(inner_tol=1e-12))
        assert rep.converged
        assert passes == [(4,), (4, 4), (4,)]
        assert rep.lambda_path[0][1] == 4 + 2

    def test_only_the_failed_column_is_differenced_backwards(self, monkeypatch):
        # r(x) = 3 (x - e_1) from x0 = 3 e_1, whose path sits just inside R0:
        # the forward row along e_1 leaves R0, the one along e_2 does not
        sp = build_sine_space(2, math.pi)
        grid = TimeGrid(1.0, 64)
        form = constant_form(sp, sp.gram_V, 1.0)
        e1 = np.array([1.0, 0.0])
        g = NonlocalCondition(lambda tr: tr.values[..., 0, :] - 3.0 * (tr.values[..., 0, :] - e1))
        unit = propagate(form, None, grid, e1).mean_radius
        prob = NonlocalProblem(form=form, proj=project(sp, 2), f=zero_nonlinearity(), g=g,
                               grid=grid, r0=1.0, R0=3.02 * unit)
        passes = self.count_passes(monkeypatch)
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12, lambda_steps=1))
        assert rep.status == "converged" and rep.converged
        assert passes == [(2,), (2, 2), (1, 2), (2,)]
        assert rep.lambda_path[0][1] == 5
        assert np.abs(rep.solution.values[0] - e1).max() <= 1e-12


    def test_nan_row_never_reaches_g(self, monkeypatch):
        # the first Jacobian block comes back with its e_1 row flagged NaN: g sees only
        # the e_2 row, and e_1 is differenced backwards as a block of its own
        import parabolic_nonlocal.nonlocal_solver as ns

        sp, grid = build_sine_space(2, math.pi), TimeGrid(1.0, 32)
        e1, seen = np.array([1.0, 0.0]), []

        def eval_g(tr):
            seen.append((tr.values.shape, bool(np.isfinite(tr.values).all())))
            return tr.values[..., 0, :] - 3.0 * (tr.values[..., 0, :] - e1)

        prob = NonlocalProblem(form=constant_form(sp, sp.gram_V, 1.0), proj=project(sp, 2),
                               f=zero_nonlinearity(), g=NonlocalCondition(eval_g),
                               grid=grid, r0=1.0, R0=math.inf)
        block, flagged = ns._light_s_apply, []

        def flag_first_block(prob, prop, lam, x):
            out = block(prob, prop, lam, x)
            if np.ndim(x) == 2 and not flagged:
                flagged.append(True)
                out[0] = np.nan
            return out

        monkeypatch.setattr(ns, "_light_s_apply", flag_first_block)
        seen.clear()
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12, lambda_steps=1, g_star_samples=1))
        assert rep.converged and rep.lambda_path[0][1] == 5
        assert all(finite for _, finite in seen)
        # g(0); the start; the Jacobian's forward (e_2 only) and backward (e_1) blocks; the step
        assert [shape for shape, _ in seen[:5]] == [(33, 2)] + [(1, 33, 2)] * 4

    @staticmethod
    def root_problem(phi):
        # f = 0 and g(u) = u(0) - phi(u(0)): the shooting residual is r(x) = phi(x)
        sp = build_sine_space(1, math.pi)
        g = NonlocalCondition(lambda tr: tr.values[..., 0, :] - phi(tr.values[..., 0, :]))
        return NonlocalProblem(form=constant_form(sp, sp.gram_V, 1.0), proj=project(sp, 1),
                               f=zero_nonlinearity(), g=g, grid=TimeGrid(1.0, 8), r0=1.0,
                               R0=math.inf)

    def test_reused_jacobian_without_descent_is_refreshed(self, monkeypatch):
        # r(x) = y^3 - 3y + 1 with y = x + 2, from x0 = -3: three steps on the first
        # Jacobian each halve the residual, so it is kept; on it the fourth step finds no
        # descent at any of its 11 lengths, so the Jacobian is refreshed, and the stage
        # converges to the root y = 2 cos(2 pi / 9)
        passes = self.count_passes(monkeypatch)
        prob = self.root_problem(lambda x: (x + 2.0) ** 3 - 3.0 * (x + 2.0) + 1.0)
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12, lambda_steps=1, g_star_samples=1))
        assert rep.status == "converged" and rep.converged
        assert passes == [(1,), (1, 1)] + [(1,)] * 22 + [(1, 1)] + [(1,)] * 8
        assert [p[:2] for p in rep.lambda_path] == [(1.0, 33)]
        assert rep.solution.values[0, 0] == pytest.approx(2.0 * math.cos(2.0 * math.pi / 9.0) - 2.0,
                                                          abs=1e-12)

    def test_fresh_jacobian_without_descent_halts(self, monkeypatch):
        # r(x) = -1 everywhere: the fresh Jacobian is zero, no step length descends, and
        # the stage halts after the start, the Jacobian row and 11 backtracked trials
        passes = self.count_passes(monkeypatch)
        rep = solve_nonlocal(self.root_problem(lambda x: np.full_like(x, -1.0)),
                             SolverConfig(lambda_steps=1, g_star_samples=1))
        assert rep.status == "max_iterations" and not rep.converged
        assert passes == [(1,), (1, 1)] + [(1,)] * 11
        assert rep.lambda_path == ((1.0, 13, 1.0),)

    def test_g_raising_on_a_block_fails_every_row(self):
        # g raises on any block of two paths: both Jacobian columns fail forwards and
        # backwards, and the stage ends having marched 1 + 2 + 2 paths
        sp, armed = build_sine_space(2, math.pi), []

        def eval_g(tr):
            if armed and tr.values.ndim == 3 and len(tr.values) > 1:
                raise FloatingPointError("g fails on this block")
            return 0.5 * tr.values[..., 0, :] + 0.1

        prob = NonlocalProblem(form=constant_form(sp, sp.gram_V, 1.0), proj=project(sp, 2),
                               f=zero_nonlinearity(), g=NonlocalCondition(eval_g),
                               grid=TimeGrid(1.0, 32), r0=1.0, R0=math.inf)
        armed.append(True)
        rep = solve_nonlocal(prob, SolverConfig(lambda_steps=1, g_star_samples=1))
        assert rep.status == "max_iterations" and not rep.converged
        assert [p[:2] for p in rep.lambda_path] == [(1.0, 5)]


def declared_affine(space):
    """The bundled f that declare an affine rate, on ``space``."""
    h = np.linspace(0.5, -0.5, space.n_modes)
    return {"bounded_source": bounded_source(lambda t: math.cos(3.0 * t) * h, space.h_norm(h)),
            "negated_identity": negated_identity(),
            "zero": zero_nonlinearity()}


class TestAffineFold:
    """A declared affine f is marched with its rate folded into the step factors; the
    same problem with the declaration dropped iterates every step, and must agree."""

    @staticmethod
    def problem(space, m, f, mu, R0=math.inf):
        # an accretive time-varying form and u(0) = a + 0.8 int_0^1 u, a path-linear g
        # that keeps the range of P
        rng, proj = np.random.default_rng(8), project(space, m)
        form = random_accretive_form(space, rng)
        a = proj.matrix @ rng.standard_normal(space.n_modes)
        g = NonlocalCondition(lambda tr: a + 0.8 * np.trapezoid(tr.values, dx=tr.grid.dt, axis=-2))
        prob = NonlocalProblem(form=form, proj=proj, f=f, g=g,
                               grid=TimeGrid(1.0, 64), r0=1e-3, R0=R0)
        return exp_shift(prob, mu)

    @staticmethod
    def both(prob, cfg):
        """The folded solve and the iterated solve of the same problem."""
        plain = replace(prob, f=replace(prob.f, affine_rate=None))
        return solve_nonlocal(prob, cfg), solve_nonlocal(plain, cfg)

    @staticmethod
    def assert_agree(folded, iterated):
        scale = np.abs(iterated.solution.values).max()
        assert np.abs(folded.solution.values - iterated.solution.values).max() <= 1e-12 * scale
        assert folded.status == iterated.status
        assert [p[:2] for p in folded.lambda_path] == [p[:2] for p in iterated.lambda_path]

    @pytest.mark.parametrize("mu", [0.0, 0.6], ids=["unshifted", "exp_shift"])
    @pytest.mark.parametrize("name", ["bounded_source", "negated_identity", "zero"])
    @pytest.mark.parametrize("space", ["sine", "coupled_gram"])
    def test_fold_matches_iterated_march(self, space, name, mu):
        sp = (build_sine_space(4, math.pi) if space == "sine"
              else coupled_gram_space(4, np.random.default_rng(3)))
        prob = self.problem(sp, 3, declared_affine(sp)[name], mu)  # m < n
        assert prob.f.affine_rate == {"negated_identity": 1.0}.get(name, 0.0) + mu
        folded, iterated = self.both(prob, SolverConfig(inner_tol=1e-12))
        assert folded.converged and len(folded.lambda_path) == 1
        self.assert_agree(folded, iterated)

    @pytest.mark.parametrize("name", ["bounded_source", "negated_identity"])
    def test_continuation_stages_fold_their_own_rate(self, name):
        # R0 below the solution's mean radius: the solve at lam = 1 fails, and the
        # stages lam < 1 converge one by one until a path reaches R0; each of them
        # marches with lam c folded in
        sp = coupled_gram_space(4, np.random.default_rng(3))
        f = declared_affine(sp)[name]
        radius = solve_nonlocal(self.problem(sp, 3, f, 0.6),
                                SolverConfig(inner_tol=1e-12)).solution.mean_radius
        prob = self.problem(sp, 3, f, 0.6, R0=0.55 * radius)
        folded, iterated = self.both(prob, SolverConfig(inner_tol=1e-12))
        assert not folded.converged
        assert sum(lam < 1.0 and res <= 1e-12 for lam, _, res in folded.lambda_path) >= 3
        self.assert_agree(folded, iterated)

    def test_heat_solve_takes_no_step_iteration(self, monkeypatch):
        # the heat preset's f is affine after exp_shift: no march iterates a step,
        # and f is read only at the state 0, once per node
        import parabolic_nonlocal.evolution as ev

        steps, calls, solve_step = [], [], ev._solve_step
        monkeypatch.setattr(ev, "_solve_step", lambda *a: steps.append(1) or solve_step(*a))
        prob = preset_heat_timevarying(4, 64)
        f = prob.f
        prob = replace(prob, f=replace(f, eval=lambda t, x: calls.append(t) or f.eval(t, x)))
        calls.clear()
        rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12))
        assert rep.converged and rep.lambda_path[0][1] == 4 + 2
        assert steps == [] and len(calls) <= prob.grid.n_steps + 1

    def test_non_finite_node_raises_naming_t_before_any_march(self, monkeypatch):
        # check_affine_rate reads t = 0, T/2 and T only; f(t_j, 0) is read at every node
        # on the zero path before the first march, and a non-finite value raises there
        import parabolic_nonlocal.nonlocal_solver as ns

        def no_march(*args, **kwargs):
            raise AssertionError("marched with a non-finite nodal source")

        grid = TimeGrid(1.0, 32)
        f = Nonlinearity(lambda t, x: np.where(t == grid.nodes[1], math.inf, 0.0) - x, 1.0,
                         lambda t: 0.0, affine_rate=1.0)
        prob = scalar_problem(grid, f, g_constant(np.ones(1)))
        monkeypatch.setattr(ns, "_march", no_march)
        with pytest.raises(ValueError, match=f"t={grid.nodes[1]}"):
            solve_nonlocal(prob)

    def test_undeclared_f_still_iterates(self, monkeypatch):
        import parabolic_nonlocal.evolution as ev

        steps, solve_step = [], ev._solve_step
        monkeypatch.setattr(ev, "_solve_step", lambda *a: steps.append(1) or solve_step(*a))
        prob = preset_evi(4, 64, pseudo_huber_functional(4))
        assert prob.f.affine_rate is None
        assert solve_nonlocal(prob, SolverConfig(inner_tol=1e-10)).converged
        assert len(steps) == prob.grid.n_steps

    @pytest.mark.parametrize("f", [replace(negated_identity(), affine_rate=0.5),
                                   replace(zero_nonlinearity(), affine_rate=1.0),
                                   replace(bounded_source(lambda t: np.ones(2), 1.0),
                                           affine_rate=0.1),
                                   Nonlinearity(lambda t, x: -x**3, 1.0, lambda t: 0.0,
                                                affine_rate=1.0)],
                             ids=["negated_identity", "zero", "bounded_source", "cubic"])
    def test_wrong_rate_rejected_by_name_when_built(self, f):
        sp = build_sine_space(2, math.pi)
        with pytest.raises(ValueError, match="f.affine_rate = .* is wrong"):
            NonlocalProblem(form=constant_form(sp, sp.gram_V, 1.0), proj=project(sp, 2), f=f,
                            g=g_constant(np.ones(2)), grid=TimeGrid(1.0, 16), r0=1.0,
                            R0=math.inf)

    def test_exp_shift_adds_eps_to_a_declared_rate_only(self):
        sp = build_sine_space(2, math.pi)
        for f, rate in ((negated_identity(), 1.7), (saturating_drift(sp), None)):
            prob = NonlocalProblem(form=constant_form(sp, sp.gram_V, 1.0), proj=project(sp, 2),
                                   f=f, g=g_constant(np.ones(2)), grid=TimeGrid(1.0, 16),
                                   r0=1.0, R0=math.inf)
            assert exp_shift(prob, 0.7).f.affine_rate == rate


class TestAuditProblem:
    def test_restoring_problem_passes(self):
        grid = TimeGrid(1.0, 32)
        f = Nonlinearity(lambda t, x: -x, 1.0, lambda t: 0.0)
        prob = scalar_problem(grid, f, g_constant(np.array([0.2])), r0=0.5, R0=math.inf)
        audit = audit_problem(prob, seed=0)
        assert audit["passed"]

    @pytest.mark.parametrize("width, admissible", [(4.0, True), (1.5, False)])
    def test_kernel_admissibility_folded_into_passed(self, width, admissible):
        # a width-1.5 cosine bump has derivative mass >= 1: the sampled audits
        # pass, but g is not admissible for solves
        sp = build_sine_space(4, math.pi)
        grid = TimeGrid(1.0, 32)
        g = g_mollified_integral(cosine_bump_kernel(width), [(0.0, 0.5)], sp)
        prob = NonlocalProblem(form=constant_form(sp, sp.gram_V, 1.0), proj=project(sp, 4),
                               f=zero_nonlinearity(), g=g, grid=grid, r0=0.5, R0=math.inf)
        audit = audit_problem(prob, seed=0)
        assert audit["transversality_ok"] and audit["g_bound_ok"]
        assert audit["g_solver_ok"] is admissible
        assert audit["passed"] is admissible

    def test_outward_nonlinearity_caught(self):
        grid = TimeGrid(1.0, 32)
        f = Nonlinearity(lambda t, x: +x, 1.0, lambda t: 0.0)
        prob = scalar_problem(grid, f, g_constant(np.array([0.2])), r0=0.5, R0=math.inf)
        audit = audit_problem(prob, seed=0)
        assert not audit["transversality_ok"]
        assert not audit["passed"]


class TestExpShift:
    def scalar_source_problem(self, grid, mu_free_delta=0.0):
        sp = build_sine_space(1, math.pi)
        form = constant_form(sp, np.array([[1.0]]), grid.horizon)
        f = Nonlinearity(lambda t, x: np.array([0.3 * math.cos(t)]), 0.0, lambda t: 0.3)
        return NonlocalProblem(form=form, proj=project(sp, 1), f=f,
                               g=g_constant(np.array([0.2])), grid=grid,
                               r0=1.0, R0=math.inf)

    def test_zero_shift_is_identity(self):
        prob = self.scalar_source_problem(TimeGrid(1.0, 16))
        same = exp_shift(prob, 0.0)
        assert same.shift_mu == prob.shift_mu
        assert same.f is prob.f and same.g is prob.g

    def test_negative_shift_rejected(self):
        prob = self.scalar_source_problem(TimeGrid(1.0, 16))
        with pytest.raises(ValueError):
            exp_shift(prob, -0.5)

    def test_growth_constants_transform(self):
        prob = self.scalar_source_problem(TimeGrid(1.0, 16))
        shifted = exp_shift(prob, 0.7)
        assert shifted.f.growth_a == pytest.approx(prob.f.growth_a + 0.7)
        assert shifted.f.growth_b(1.0) == pytest.approx(math.exp(-0.7) * 0.3)
        assert shifted.shift_mu == pytest.approx(0.7)

    def test_linear_equivalence_scheme_level(self):
        # substitution is exact in the continuum; remaining gap is the
        # second-order scheme mismatch, driven below 1e-8 by the fine grid
        grid = TimeGrid(1.0, 2048)
        prob = self.scalar_source_problem(grid)
        cfg = SolverConfig(inner_tol=1e-12, lambda_steps=3)
        mu = 0.25
        direct = solve_nonlocal(prob, cfg)
        shifted = solve_nonlocal(exp_shift(prob, mu), cfg)
        back = unshift_trajectory(shifted.solution, mu)
        gap = np.abs(back.values - direct.solution.values).max()
        assert direct.converged and shifted.converged
        assert gap <= 1e-8

    @pytest.mark.parametrize("mu, tol", [(0.5, 2e-6), (2.0, 1.5e-5)])
    def test_partial_shift_absorbs_declared_delta(self, mu, tol):
        # S(t) = (1 + t/2) G_V - G_H is coercive only after the declared shift delta = 1.5
        sp = build_sine_space(3, math.pi)
        form = TimeForm(sp, np.vectorize(lambda t: (1.0 + 0.5 * t) * sp.gram_V - sp.gram_H,
                                         signature="()->(n,n)"),
                        bound_M=1.5, coercivity_alpha=1.0, horizon=1.0, shift_delta=1.5)
        x0 = np.array([0.4, -0.2, 0.1])
        g = NonlocalCondition(
            lambda tr: x0 + 0.5 * np.trapezoid(tr.values, dx=tr.grid.dt, axis=-2))
        prob = NonlocalProblem(form=form, proj=project(sp, 3), f=saturating_drift(sp), g=g,
                               grid=TimeGrid(1.0, 512), r0=1.0, R0=math.inf)
        shifted = exp_shift(prob, mu)
        absorbed = min(1.5, mu)
        times = np.array([0.0, 0.3, 1.0])
        per_time = [form.stiffness_at(np.array([t]))[0] + absorbed * sp.gram_H for t in times]
        assert np.array_equal(shifted.form.stiffness_at(times), per_time)
        assert shifted.form.bound_M == pytest.approx(1.5 + absorbed * sp.embed_const**2)
        assert shifted.form.shift_delta == pytest.approx(1.5 - absorbed)
        assert shifted.f.growth_a == pytest.approx(1.0 + mu - absorbed)
        # unshifted, the path is the direct solve's up to the second-order scheme
        # mismatch: 4.2e-7 (mu = 0.5) and 3.2e-6 (mu = 2) measured at 512 steps
        cfg = SolverConfig(inner_tol=1e-12)
        direct = solve_nonlocal(prob, cfg)
        rep = solve_nonlocal(shifted, cfg)
        assert direct.converged and rep.converged
        back = unshift_trajectory(rep.solution, mu)
        assert np.abs(back.values - direct.solution.values).max() <= tol

    def test_shifted_bounded_source_points_inward(self):
        # after the shift, the source term satisfies the annulus condition
        # for radii beyond sup|b| / eps
        prob = self.scalar_source_problem(TimeGrid(1.0, 16))
        eps = prob.f.growth_a + 1.0
        shifted = exp_shift(prob, eps)
        r0 = 0.3 / eps * 1.05
        rep = scan_transversality(shifted.f, r0, math.inf, 300,
                                  np.linspace(0.0, 1.0, 5), shifted.form.space)
        assert rep.passed

    def test_unshift_rescales_values(self):
        sp = build_sine_space(2, math.pi)
        grid = TimeGrid(1.0, 4)
        vals = np.ones((5, 2))
        tr = make_trajectory(sp, grid, vals)
        out = unshift_trajectory(tr, 2.0)
        assert np.allclose(out.values, np.exp(2.0 * grid.nodes)[:, None])


class TestGStar:
    @pytest.mark.parametrize("samples", [0, -5])
    def test_solver_config_rejects_no_samples(self, samples):
        with pytest.raises(ValueError, match="g_star_samples"):
            SolverConfig(g_star_samples=samples)

    def test_zero_condition(self):
        sp = build_sine_space(2, math.pi)
        grid = TimeGrid(1.0, 8)
        g = NonlocalCondition(lambda tr: np.zeros(2))
        assert estimate_g_star(g, 1.0, 50, grid, sp, seed=0) == 0.0

    def test_constant_condition(self):
        sp = build_sine_space(2, math.pi)
        grid = TimeGrid(1.0, 8)
        x0 = np.array([0.5, 0.1])
        g = g_constant(x0)
        assert estimate_g_star(g, 1.0, 50, grid, sp, seed=0) == pytest.approx(sp.v_norm(x0))


def trapezoid_masses(grid):
    masses = np.full(grid.n_steps + 1, grid.dt)
    masses[[0, -1]] /= 2.0
    return masses


def shifted_condition(g, sp, grid, mu):
    """g under exp_shift(mu), read from a problem that carries it."""
    prob = NonlocalProblem(form=constant_form(sp, sp.gram_V, grid.horizon), proj=project(sp, 1),
                           f=zero_nonlinearity(), g=g, grid=grid, r0=1.0, R0=math.inf)
    return exp_shift(prob, mu).g


def top_singular_direction(sp, matrix):
    """Unit-pivot-norm v maximising |matrix v|_V, from the SVD of the matrix in
    Cholesky coordinates of the two Grams."""
    k_h, k_v = np.linalg.cholesky(sp.gram_H), np.linalg.cholesky(sp.gram_V)
    _, sing, vt = np.linalg.svd(k_v.T @ matrix @ np.linalg.inv(k_h.T))
    return np.linalg.solve(k_h.T, vt[0]), sing[0]


class TestPathLinear:
    """A path-linear g's g* and g-bound margins come in closed form, not sampled."""

    @pytest.mark.parametrize("mu", [0.0, 0.6], ids=["unshifted", "exp_shift"])
    @pytest.mark.parametrize("space", ["sine", "coupled_gram"])
    def test_extremal_path_attains_closed_form_g_star(self, space, mu):
        sp = (build_sine_space(4, math.pi) if space == "sine"
              else coupled_gram_space(4, np.random.default_rng(3)))
        grid, rho = TimeGrid(1.0, 64), 0.7
        g = g_mollified_integral(cosine_bump_kernel(4.0), [(0.05, 0.3), (0.5, 0.9)], sp)
        if mu:
            g = shifted_condition(g, sp, grid, mu)
        w, masses = g.path_linear.node_weights(grid), trapezoid_masses(grid)
        s = math.sqrt(np.sum(w**2 / masses))
        v, _ = top_singular_direction(sp, g.path_linear.matrix)
        path = make_trajectory(sp, grid, rho * np.outer(w / masses / s, v))
        assert path.l2_h == pytest.approx(rho, rel=1e-12)
        g_star = estimate_g_star(g, rho, 1, grid, sp)
        assert sp.v_norm(g.eval(path)) == pytest.approx(g_star, rel=1e-12)
        # the pivot-norm bound of the audit is attained the same way
        assert audit_g_bound(g, 1.0, 1, grid, sp).margin <= 1.0 - sp.h_norm(g.eval(path)) / rho

    @given(n=st.integers(1, 4), n_steps=st.integers(4, 40), seed=st.integers(0, 2**16),
           mu=st.sampled_from([0.0, 0.6]), kind=st.sampled_from(["general", "mollified"]))
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def test_sampler_never_exceeds_closed_form(self, n, n_steps, seed, mu, kind):
        rng = np.random.default_rng(seed)
        sp, grid = coupled_gram_space(n, rng), TimeGrid(1.0, n_steps)
        if kind == "general":  # offset and weights both nonzero: the closed form is a bound
            w = rng.standard_normal(n_steps + 1)
            g = g_path_linear(rng.standard_normal(n), rng.standard_normal((n, n)),
                              lambda grid: w)
        else:
            g = g_mollified_integral(cosine_bump_kernel(4.0), [(0.0, 0.4), (0.6, 1.0)], sp)
        if mu:
            g = shifted_condition(g, sp, grid, mu)
        sampled = replace(g, path_linear=None)
        for r in (0.3, 2.0):
            closed = estimate_g_star(g, r, 1, grid, sp)
            assert estimate_g_star(sampled, r, 40, grid, sp, seed=seed) <= closed * (1 + 1e-12)
            assert (audit_g_bound(sampled, r, 40, grid, sp, seed=seed).margin
                    >= audit_g_bound(g, r, 1, grid, sp).margin - 1e-12 * closed)

    @pytest.mark.parametrize("kind", ["mollified", "constant", "general"])
    def test_shifted_eval_matches_unshifted_wrapper(self, kind):
        # exp_shift scales a path-linear g's weights by e^{mu t_j}; a g without the
        # data gets the unshift_trajectory wrapper, and the two must agree
        rng = np.random.default_rng(11)
        sp, grid, mu = coupled_gram_space(3, rng), TimeGrid(1.0, 32), 0.6
        g = {"mollified": g_mollified_integral(cosine_bump_kernel(4.0), [(0.1, 0.7)], sp),
             "constant": g_constant(rng.standard_normal(3)),
             "general": g_path_linear(rng.standard_normal(3), rng.standard_normal((3, 3)),
                                      lambda grid: np.cos(grid.nodes))}[kind]
        shifted = shifted_condition(g, sp, grid, mu)
        wrapped = shifted_condition(replace(g, path_linear=None), sp, grid, mu)
        assert shifted.path_linear is not None and wrapped.path_linear is None
        assert np.array_equal(shifted.path_linear.node_weights(grid),
                              g.path_linear.node_weights(grid) * np.exp(mu * grid.nodes))
        for k in (1, 5):
            tr = make_trajectory(sp, grid, rng.standard_normal((k, 33, 3)))
            exact = np.broadcast_to(wrapped.eval(tr), (k, 3))
            assert np.abs(shifted.eval(tr) - exact).max() <= 1e-14 * np.abs(exact).max()

    def test_amplifying_condition_fails_closed_form_audit(self):
        # g(u) = 2 (1/T) int u: over paths of L2 pivot norm r sqrt(T), sup |g(u)|_H = 2 r
        sp, grid = build_sine_space(2, math.pi), TimeGrid(2.0, 16)
        g = g_path_linear(np.zeros(2), 2.0 * np.eye(2), lambda grid: trapezoid_masses(grid) / 2.0)
        for r in (0.5, 1.0, 3.0):
            audit = audit_g_bound(g, r, 1, grid, sp)
            assert not audit.passed and audit.margin == pytest.approx(-r, rel=1e-12)
        prob = NonlocalProblem(form=constant_form(sp, sp.gram_V, 2.0), proj=project(sp, 2),
                               f=negated_identity(), g=g, grid=grid, r0=0.5, R0=math.inf)
        audit = audit_problem(prob, seed=0)
        assert audit["transversality_ok"] and not audit["g_bound_ok"] and not audit["passed"]
        assert audit["g_star_method"] == "closed_form"
        assert max(audit["g_bound_margins"]) < 0.0

    def test_heat_preset_g_star(self):
        prob = preset_heat_timevarying(8, 512)
        rep = solve_nonlocal(prob, SolverConfig(g_star_samples=1))
        assert rep.converged and rep.g_star_method == "closed_form"
        assert rep.g_star == pytest.approx(0.1193456484856, rel=1e-12)
        assert rep.apriori_rhs == pytest.approx(0.4 + rep.g_star, rel=1e-12)

    def test_callable_g_is_sampled(self):
        grid = TimeGrid(1.0, 32)
        prob = scalar_problem(grid, zero_nonlinearity(), time_average_condition(0.5, 1.0))
        assert audit_problem(prob)["g_star_method"] == "sampled"
        assert solve_nonlocal(prob, SolverConfig(g_star_samples=4)).g_star_method == "sampled"

    def test_constant_g_star_is_its_energy_norm(self):
        # w = 0: g* = |x0|_V + 0.0, which is what the sampler reads, bit for bit
        sp, grid, x0 = build_sine_space(3, math.pi), TimeGrid(1.0, 16), np.array([0.5, -0.1, 2.0])
        g = g_constant(x0)
        assert estimate_g_star(g, 2.0, 1, grid, sp) == sp.v_norm(x0)
        assert (estimate_g_star(replace(g, path_linear=None), 2.0, 5, grid, sp)
                == estimate_g_star(g, 2.0, 1, grid, sp))

    def test_weights_computed_once_per_grid(self):
        calls, sp = [], build_sine_space(2, math.pi)
        g = g_path_linear(np.zeros(2), np.eye(2),
                          lambda grid: calls.append(grid) or np.ones(grid.n_steps + 1))
        rng = np.random.default_rng(0)
        for n_steps in (8, 8, 16, 8):
            grid = TimeGrid(1.0, n_steps)
            g.eval(make_trajectory(sp, grid, rng.standard_normal((n_steps + 1, 2))))
            estimate_g_star(g, 1.0, 1, grid, sp)
        assert [grid.n_steps for grid in calls] == [8, 16]

    @pytest.mark.parametrize("offset, matrix, weights", [
        (np.zeros((2, 1)), np.eye(2), lambda grid: np.ones(grid.n_steps + 1)),
        (np.zeros(2), np.eye(3), lambda grid: np.ones(grid.n_steps + 1)),
        (np.array([0.0, math.nan]), np.eye(2), lambda grid: np.ones(grid.n_steps + 1)),
        (np.zeros(2), np.eye(2), lambda grid: np.ones(grid.n_steps)),
        (np.zeros(2), np.eye(2), lambda grid: np.full(grid.n_steps + 1, math.inf)),
    ], ids=["offset_shape", "matrix_shape", "nan_offset", "weights_shape", "inf_weights"])
    def test_bad_data_rejected(self, offset, matrix, weights):
        sp, grid = build_sine_space(2, math.pi), TimeGrid(1.0, 8)
        with pytest.raises(ValueError):
            g = g_path_linear(offset, matrix, weights)
            g.eval(zero_trajectory(sp, grid))

    def test_eval_disagreeing_with_its_data_rejected_when_built(self):
        # eval reads 10 u(T) while the declared data say u(0), so the closed-form g*
        # would read the data, not eval: the problem is refused, naming path_linear
        sp, grid = build_sine_space(2, math.pi), TimeGrid(1.0, 32)
        data = PathLinear(np.zeros(2), np.eye(2), lambda grid: np.r_[1.0, np.zeros(grid.n_steps)])

        def problem(g):
            return NonlocalProblem(form=constant_form(sp, sp.gram_V, 1.0), proj=project(sp, 2),
                                   f=zero_nonlinearity(), g=g, grid=grid, r0=1.0, R0=math.inf)

        with pytest.raises(ValueError, match="path_linear"):
            problem(NonlocalCondition(lambda tr: 10.0 * tr.values[..., -1, :], data))
        problem(NonlocalCondition(lambda tr: tr.values[..., 0, :], data))  # agrees: accepted

    def test_heat_preset_built_once(self, monkeypatch):
        # the preset builds its problem shifted: the construction gates run once
        import parabolic_nonlocal.nonlocal_solver as ns

        calls, check = [], ns.check_affine_rate
        monkeypatch.setattr(ns, "check_affine_rate", lambda *a: calls.append(1) or check(*a))
        prob = preset_heat_timevarying(4, 64)
        assert calls == [1] and prob.shift_mu == 0.4


def coordinate_rotation(n):
    """f(t, x) = 0.1 R x for the cyclic coordinate shift R, written for one row."""
    return lambda t, x: 0.1 * np.array([-x[(k + 1) % n] for k in range(n)])


class TestRowContractGate:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_row_only_f_rejected_when_built(self, n):
        sp = build_sine_space(n, math.pi)
        f = Nonlinearity(coordinate_rotation(n), 0.1, lambda t: 0.0)
        with pytest.raises(ValueError, match=r"f.eval\(t, .\) breaks the row contract"):
            NonlocalProblem(form=constant_form(sp, sp.gram_V, 1.0), proj=project(sp, n), f=f,
                            g=g_constant(np.ones(n)), grid=TimeGrid(1.0, 16), r0=1.0, R0=math.inf)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_vectorized_f_accepted_and_solved(self, n):
        # the wrapped f is the block f x -> 0.1 R x, so both solves agree to rounding
        sp = build_sine_space(n, math.pi)
        rows = np.vectorize(coordinate_rotation(n), excluded={0}, signature="(n)->(n)")
        shift = np.roll(np.eye(n), 1, axis=1)
        solutions = []
        for fn in (rows, lambda t, x: -0.1 * x @ shift.T):
            prob = NonlocalProblem(form=constant_form(sp, sp.gram_V, 1.0), proj=project(sp, n),
                                   f=Nonlinearity(fn, 0.1, lambda t: 0.0),
                                   g=g_constant(np.ones(n)), grid=TimeGrid(1.0, 16), r0=1.0,
                                   R0=math.inf)
            rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12))
            assert rep.converged
            solutions.append(rep.solution.values)
        assert np.abs(solutions[0] - solutions[1]).max() <= 1e-14

    def test_state_free_row_accepted(self):
        sp = build_sine_space(3, math.pi)
        f = Nonlinearity(lambda t, x: np.array([1.0, 0.0, -1.0]) * math.cos(t), 0.0,
                         lambda t: math.sqrt(2.0))
        NonlocalProblem(form=constant_form(sp, sp.gram_V, 1.0), proj=project(sp, 3), f=f,
                        g=g_constant(np.ones(3)), grid=TimeGrid(1.0, 16), r0=1.0, R0=math.inf)


    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_per_path_g_rejected_when_built(self, n):
        sp = build_sine_space(n, math.pi)
        g = NonlocalCondition(lambda tr: 0.5 * tr.values[0])
        with pytest.raises(ValueError, match=r"g.eval breaks the row contract"):
            NonlocalProblem(form=constant_form(sp, sp.gram_V, 1.0), proj=project(sp, n),
                            f=zero_nonlinearity(), g=g, grid=TimeGrid(1.0, 16), r0=1.0,
                            R0=math.inf)

    def test_vectorized_g_accepted_and_solved(self):
        # a per-path g wrapped with np.vectorize solves like its block form
        sp, grid = build_sine_space(2, math.pi), TimeGrid(1.0, 32)
        block = time_average_condition(0.8, 1.0)
        solutions = []
        for g in (block, NonlocalCondition(per_path(block.eval))):
            prob = NonlocalProblem(form=constant_form(sp, sp.gram_V, 1.0), proj=project(sp, 2),
                                   f=saturating_drift(sp), g=g, grid=grid, r0=1.0, R0=math.inf)
            rep = solve_nonlocal(prob, SolverConfig(inner_tol=1e-12))
            assert rep.converged
            solutions.append(rep.solution.values)
        assert np.abs(solutions[0] - solutions[1]).max() <= 1e-14


def annulus_energy_loop(traj, r0, R0, tol_coeff=10.0):
    """The per-node loop that annulus_energy_check replaced, kept as its reference."""
    tol = tol_coeff * traj.grid.dt
    inside = (traj.h_norms > r0) & (traj.h_norms < R0)
    running_min = math.inf
    for j, flag in enumerate(inside):
        if not flag:
            running_min = math.inf
            continue
        h = float(traj.h_norms[j])
        if h > running_min + tol:
            return False
        running_min = min(running_min, h)
    return True


class TestAnnulusEnergyCheck:
    def test_vacuous_below_annulus(self):
        sp = build_sine_space(1, math.pi)
        grid = TimeGrid(1.0, 16)
        tr = make_trajectory(sp, grid, 0.1 * np.ones((17, 1)))
        assert annulus_energy_check(tr, 1.0, 2.0)

    def test_dissipative_flow_passes(self):
        sp = build_sine_space(1, math.pi)
        form = constant_form(sp, np.array([[1.0]]), 1.0)
        tr = propagate(form, None, TimeGrid(1.0, 64), np.array([3.0]))
        assert annulus_energy_check(tr, 0.5, 10.0)

    def test_growing_path_fails(self):
        sp = build_sine_space(1, math.pi)
        grid = TimeGrid(1.0, 64)
        vals = np.exp(grid.nodes)[:, None]  # exponential growth inside (0.5, 10)
        tr = make_trajectory(sp, grid, vals)
        assert not annulus_energy_check(tr, 0.5, 10.0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(h=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=40),
           r0=st.floats(0.1, 1.0), R0=st.sampled_from([1.5, 2.5, math.inf]),
           tol_coeff=st.sampled_from([0.0, 1.0, 10.0]))
    def test_matches_per_node_loop(self, h, r0, R0, tol_coeff):
        sp = build_sine_space(1, math.pi)
        tr = make_trajectory(sp, TimeGrid(1.0, len(h) - 1), np.array(h)[:, None])
        assert annulus_energy_check(tr, r0, R0, tol_coeff) == annulus_energy_loop(tr, r0, R0,
                                                                                   tol_coeff)
