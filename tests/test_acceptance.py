"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity (run with -s to see them all).
"""

import math
import time

import numpy as np
from scipy.linalg import expm

import parabolic_nonlocal as pn

# frozen closed-form oracle: x = c h (1-q)/(1 - c q), q = (1 - e^-T)/T,
# for the scalar problem u' + u = h with the time-average condition (T=1,
# c=0.8, h=0.3)
AFFINE_ORACLE = 0.1786170974424931


def report(number, name, passed, detail):
    tag = "PASS" if passed else "FAIL"
    print(f"\ncriterion {number:02d} {tag} {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def accretive_form(space, rng, coupling=1.0, horizon=1.0):
    """Nonsymmetric time-varying stiffness, coercive with constant 1."""
    n = space.n_modes
    b = rng.standard_normal((n, n))
    psd = coupling * (b @ b.T) / n
    skew = rng.standard_normal((n, n))
    skew = coupling * 0.5 * (skew - skew.T)
    osc = rng.uniform(0.2, 0.8)

    def stiff(t):
        wave = 0.5 * (1.0 + math.sin(osc * t))
        return space.gram_V + psd * (1.0 + wave) + skew

    return pn.TimeForm(space, np.vectorize(stiff, signature="()->(n,n)"), bound_M=100.0,
                       coercivity_alpha=1.0, horizon=horizon)


def test_c01_contractivity():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    space = pn.build_sine_space(8, math.pi)
    grid = pn.TimeGrid(1.0, 128)
    worst_increase = -math.inf
    for _ in range(20):
        form = accretive_form(space, rng)
        x = rng.standard_normal(8)
        traj = pn.propagate(form, None, grid, x)
        worst_increase = max(worst_increase, float(np.diff(traj.h_norms).max()))
    elapsed = time.monotonic() - t0
    report(1, "contractivity", worst_increase <= 1e-10 and elapsed < 10.0,
           f"worst pivot-norm increase {worst_increase:.2e} (<= 1e-10), "
           f"runtime {elapsed:.2f}s < 10s")


def test_c02_scheme_order():
    t0 = time.monotonic()
    space = pn.build_sine_space(3, math.pi)
    diag = np.diag([1.0, 4.0, 9.0])
    form = pn.constant_form(space, diag, 1.0)
    x = np.array([1.0, 0.7, -0.4])
    oracle = expm(-diag) @ x
    errors = []
    for n_steps in (32, 64, 128, 256):
        traj = pn.propagate(form, None, pn.TimeGrid(1.0, n_steps), x)
        errors.append(float(np.linalg.norm(traj.values[-1] - oracle)))
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    elapsed = time.monotonic() - t0
    ok = all(3.8 <= r <= 4.2 for r in ratios) and elapsed < 5.0
    report(2, "scheme order", ok,
           f"halving ratios {[f'{r:.3f}' for r in ratios]} in [3.8, 4.2], "
           f"runtime {elapsed:.2f}s < 5s")


def test_c03_subspace_invariance():
    t0 = time.monotonic()
    rng = np.random.default_rng(103)
    space = pn.build_sine_space(8, math.pi)
    grid = pn.TimeGrid(1.0, 64)
    worst = 0.0
    for _ in range(10):
        form = accretive_form(space, rng)
        for m in (1, 4):
            proj = pn.project(space, m)
            x = proj.matrix @ rng.standard_normal(8)
            worst = max(worst, pn.subspace_invariance_residual(form, proj, grid, x))
    elapsed = time.monotonic() - t0
    report(3, "subspace invariance", worst <= 1e-10 and elapsed < 5.0,
           f"worst leakage {worst:.2e} (<= 1e-10), runtime {elapsed:.2f}s < 5s")


def test_c04_projected_convergence():
    t0 = time.monotonic()
    rng = np.random.default_rng(104)
    space = pn.build_sine_space(16, math.pi)
    form = accretive_form(space, rng, coupling=0.3)
    x = np.exp(-np.arange(1, 17, dtype=float))  # smooth-data preset
    study = pn.projected_convergence_study(form, pn.TimeGrid(1.0, 64), x, [2, 4, 8], 16)
    errs = [e for _, e in study]
    nonincreasing = all(errs[i] >= errs[i + 1] - 1e-10 for i in range(2))
    ratio = errs[2] / errs[0]
    elapsed = time.monotonic() - t0
    ok = nonincreasing and ratio < 0.10 and elapsed < 10.0
    report(4, "projected convergence", ok,
           f"sup errors {[f'{e:.3e}' for e in errs]} nonincreasing, "
           f"m=8 / m=2 = {ratio:.3f} < 0.10, runtime {elapsed:.2f}s < 10s")


def test_c05_adjoint_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(105)
    space = pn.build_sine_space(4, math.pi)
    form = accretive_form(space, rng)  # skew part makes it nonsymmetric
    grid = pn.TimeGrid(1.0, 64)
    prop = pn.build_propagator(form, None, grid)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        i_s, i_t = sorted(rng.choice(np.arange(65), size=2, replace=False))
        lhs = float(prop.apply(x, i_s, i_t) @ space.gram_H @ y)
        rhs = float(x @ space.gram_H @ pn.adjoint_propagate(form, None, grid, y, i_t, i_s))
        worst = max(worst, abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(y)))
    elapsed = time.monotonic() - t0
    report(5, "adjoint identity", worst <= 1e-10 and elapsed < 5.0,
           f"worst pairing defect {worst:.2e} (<= 1e-10), runtime {elapsed:.2f}s < 5s")


def test_c06_duhamel_consistency():
    space = pn.build_sine_space(1, math.pi)
    form = pn.constant_form(space, np.array([[1.0]]), 1.0)
    sups = []
    for n_steps in (256, 512, 1024):
        grid = pn.TimeGrid(1.0, n_steps)
        source = np.ones((n_steps + 1, 1))
        scheme = pn.duhamel_solve(form, None, grid, np.array([0.0]), source)
        direct = pn.duhamel_direct_sum(form, None, grid, np.array([0.0]), source)
        sups.append(float(np.abs(scheme.values - direct).max()))
    ok = sups[0] > sups[1] > sups[2] and sups[2] < 1e-3
    report(6, "duhamel consistency", ok,
           f"sup gaps {[f'{s:.2e}' for s in sups]} decreasing, final < 1e-3")


def test_c07_nonlocal_fixed_point():
    t0 = time.monotonic()
    space = pn.build_sine_space(1, math.pi)
    form = pn.constant_form(space, np.array([[1.0]]), 1.0)
    grid = pn.TimeGrid(1.0, 512)
    c, h = 0.8, 0.3
    f = pn.Nonlinearity(lambda t, x: np.array([h]), 0.0, lambda t: h, "const")
    g = pn.NonlocalCondition(
        lambda traj: (c / 1.0) * np.trapezoid(traj.values, dx=traj.grid.dt, axis=-2),
        "multipoint", {})
    prob = pn.NonlocalProblem(form=form, proj=pn.project(space, 1), f=f, g=g,
                              grid=grid, r0=0.31, R0=math.inf)
    rep = pn.solve_nonlocal(prob, pn.SolverConfig(inner_tol=1e-12, lambda_steps=5))
    gap = abs(rep.solution.values[0][0] - AFFINE_ORACLE)
    elapsed = time.monotonic() - t0
    ok = (rep.converged and gap <= 1e-6 and rep.fixed_point_residual <= 1e-8
          and elapsed < 5.0)
    report(7, "nonlocal fixed point", ok,
           f"|u(0) - oracle| = {gap:.2e} <= 1e-6, residual "
           f"{rep.fixed_point_residual:.2e} <= 1e-8, runtime {elapsed:.2f}s < 5s")


def test_c08_apriori_bound():
    cfg = pn.SolverConfig(inner_tol=1e-10)
    cases = {
        "heat": [pn.solve_nonlocal(pn.preset_heat_timevarying(4, ns), cfg)
                 for ns in (64, 128)],
        "gradient-flow": [
            pn.solve_nonlocal(pn.preset_evi(4, ns, pn.quadratic_functional(4)), cfg)
            for ns in (128, 256)
        ],
    }
    radii = {"heat": (0.5, math.inf), "gradient-flow": (2.0, math.inf)}
    details = []
    ok = True
    for name, (coarse, fine) in cases.items():
        r0, big_r = radii[name]
        for rep in (coarse, fine):
            ok &= rep.converged
            ok &= pn.annulus_energy_check(rep.solution, r0, big_r)
            ok &= rep.solution.mean_radius < big_r
        ratios = [r.apriori_lhs / r.apriori_rhs for r in (coarse, fine)]
        ok &= all(math.isfinite(r) for r in ratios)
        drift = abs(ratios[1] - ratios[0]) / ratios[0]
        ok &= drift < 0.05
        details.append(f"{name}: ratio {ratios[0]:.4f}->{ratios[1]:.4f} "
                       f"(drift {100 * drift:.2f}% < 5%)")
    report(8, "a priori bound", ok, "; ".join(details))


def test_c09_shift_equivalence():
    # linear branch: the substitution is exact in the continuum; remaining
    # gap is the second-order scheme mismatch, below 1e-8 on this grid
    space = pn.build_sine_space(1, math.pi)
    form = pn.constant_form(space, np.array([[1.0]]), 1.0)
    grid = pn.TimeGrid(1.0, 2048)
    f = pn.Nonlinearity(lambda t, x: np.array([0.3 * math.cos(t)]), 0.0,
                        lambda t: 0.3, "cos")
    prob = pn.NonlocalProblem(form=form, proj=pn.project(space, 1), f=f,
                              g=pn.g_constant(np.array([0.2])), grid=grid,
                              r0=1.0, R0=math.inf)
    cfg = pn.SolverConfig(inner_tol=1e-12, lambda_steps=3)
    mu = 0.25
    direct = pn.solve_nonlocal(prob, cfg)
    shifted = pn.solve_nonlocal(pn.exp_shift(prob, mu), cfg)
    back = pn.unshift_trajectory(shifted.solution, mu)
    linear_gap = float(np.abs(back.values - direct.solution.values).max())
    linear_ok = direct.converged and shifted.converged and linear_gap <= 1e-8

    # gradient-flow branch: fixed points of the two routes are conjugate, so
    # the match is at the inner-tolerance scale (10x tolerance allows the
    # Picard stopping inflation)
    inner = 1e-6
    phi = pn.quadratic_functional(4)
    evi = pn.preset_evi(4, 1024, phi)
    mu_evi = evi.form.shift_delta + evi.f.growth_a + 0.2
    cfg_evi = pn.SolverConfig(inner_tol=inner, lambda_steps=5)
    d2 = pn.solve_nonlocal(evi, cfg_evi)
    s2 = pn.solve_nonlocal(pn.exp_shift(evi, mu_evi), cfg_evi)
    back2 = pn.unshift_trajectory(s2.solution, mu_evi)
    sp4 = evi.form.space
    evi_gap = max(sp4.h_norm(back2.values[j] - d2.solution.values[j])
                  for j in range(evi.grid.n_steps + 1))
    evi_ok = d2.converged and s2.converged and evi_gap <= 10.0 * inner

    report(9, "shift equivalence", linear_ok and evi_ok,
           f"linear sup gap {linear_gap:.2e} <= 1e-8; gradient-flow sup gap "
           f"{evi_gap:.2e} <= {10.0 * inner:.0e} (10x inner tolerance)")


def test_c10_hypothesis_audits():
    space = pn.build_sine_space(4, math.pi)
    field = pn.time_power_coefficient(1.0, 0.5, 0.6)
    form = pn.divergence_form_assemble(field, space, quad_order=6)
    m_hat, alpha_hat = pn.estimate_bounds(form, pn.default_audit_grid(1.0))
    dini = pn.audit_dini(form, np.geomspace(1e-4, 1e-2, 9))
    coeff = pn.audit_coefficient_field(field, 1.0, space.domain_length)
    ok = (
        abs(alpha_hat - 1.0) <= 1e-6
        and abs(m_hat - 1.5) <= 1e-6
        and abs(dini.dini_exponent - 0.6) <= 0.05
        and dini.dini_pass
        and coeff["ellipticity_ok"]
        and coeff["holder_ok"]
    )
    report(10, "hypothesis audits", ok,
           f"alpha_hat {alpha_hat:.8f} (1 +- 1e-6), M_hat {m_hat:.8f} "
           f"(1.5 +- 1e-6), time exponent {dini.dini_exponent:.3f} (0.6 +- 0.05), "
           f"ellipticity/increment audits pass")


def test_c11_evi_residual():
    phi = pn.quadratic_functional(4)
    prob = pn.preset_evi(4, 256, phi)
    rep = pn.solve_nonlocal(prob, pn.SolverConfig(inner_tol=1e-10))
    exact = np.exp(-2.0 * rep.solution.grid.nodes)
    traj_err = float(np.abs(rep.solution.values[:, 0] - exact).max())
    residual = pn.evi_residual(prob.form, phi, rep.solution, 60, seed=11)
    tol = 10.0 * prob.grid.dt
    ok = rep.converged and traj_err < 1e-4 and residual >= -tol
    report(11, "variational-inequality residual", ok,
           f"trajectory error {traj_err:.2e} < 1e-4, residual {residual:.2e} "
           f">= -{tol:.2e}")


def test_c12_growth_and_transversality():
    heat = pn.preset_heat_timevarying(4, 64)
    bundled = {
        "zero": (pn.zero_nonlinearity(), 4),
        "negated_identity": (pn.negated_identity(), 4),
        "saturating_drift": (pn.saturating_drift(pn.build_sine_space(6, math.pi)), 6),
        "heat_source": (heat.f, 4),
        "quadratic_flow": (
            pn.Nonlinearity(lambda t, x: -pn.quadratic_functional(4).gradient(x),
                            1.0, lambda t: 0.0), 4),
        "pseudo_huber_flow": (
            pn.Nonlinearity(lambda t, x: -pn.pseudo_huber_functional(4).gradient(x),
                            1.0, lambda t: 0.0), 4),
    }
    failures = []
    for name, (f, dim) in bundled.items():
        ok, worst = pn.growth_audit(f, space=pn.build_sine_space(dim, math.pi), horizon=1.0,
                                    n_samples=1000, max_radius=1e3, seed=12)
        if not ok:
            failures.append(f"{name} (excess {worst:.2e})")
    outward = pn.Nonlinearity(lambda t, x: +x, 1.0, lambda t: 0.0, "outward")
    scan = pn.scan_transversality(outward, 0.5, 5.0, 400, np.linspace(0, 1, 5),
                                  space=pn.build_sine_space(4, math.pi), seed=12)
    negative_control = scan.violations == scan.samples
    ok = not failures and negative_control
    report(12, "growth and transversality", ok,
           f"{len(bundled)} bundled nonlinearities pass the growth audit "
           f"(1000 samples, radius up to 1e3); outward control violates "
           f"{scan.violations}/{scan.samples} samples"
           + (f"; failures: {failures}" if failures else ""))
