import json

import pytest

from parabolic_nonlocal.cli import main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_report(outdir):
    with open(outdir / "report.json") as fh:
        return json.load(fh)


class TestVerifyForm:
    def test_time_power_field_passes(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "command": "verify-form",
            "seed": 7,
            "form": {"coefficient": "time_power_06", "n_modes": 4, "quad_order": 6},
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 0
        rep = read_report(out)
        res = rep["results"]
        assert res["passed"]
        assert res["M_hat"] == pytest.approx(1.5, abs=1e-6)
        assert res["alpha_hat"] == pytest.approx(1.0, abs=1e-6)
        assert res["dini_pass"]
        assert abs(res["dini_exponent"] - 0.6) <= 0.05

    def test_rough_coefficient_fails_audit(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "command": "verify-form",
            "form": {"coefficient": {"name": "time_power", "exponent": 0.4},
                     "n_modes": 3},
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 2
        assert not read_report(out)["results"]["dini_pass"]


class TestPropagate:
    def test_writes_trajectory_and_norms(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "command": "propagate",
            "form": {"coefficient": "unit", "n_modes": 3},
            "n_steps": 32,
            "x": "smooth",
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 0
        rep = read_report(out)
        assert rep["results"]["h_norms_nonincreasing"]
        assert rep["results"]["max_step_factor_h_norm"] <= 1.0 + 1e-10
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "t,c0,c1,c2,h_norm,v_norm"
        assert len(lines) == 34


class TestSolve:
    def test_heat_preset_converges(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "command": "solve",
            "seed": 11,
            "problem": {"preset": "heat_timevarying", "n_modes": 4, "n_steps": 64},
            "solver": {"inner_tol": 1e-10},
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 0
        res = read_report(out)["results"]
        assert res["converged"]
        assert res["fixed_point_residual"] <= 1e-8
        assert res["annulus_energy_ok"]
        assert (out / "trajectory.csv").exists()

    def test_failing_g_bound_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "command": "solve",
            "problem": {"n_modes": 3, "n_steps": 64, "nonlinearity": "zero",
                        "g": {"kind": "constant", "x0": [3.0, 0.0, 0.0]},
                        "r0": 1.0},
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 2
        res = read_report(out)["results"]
        assert not res["audits"]["g_bound_ok"]
        assert "status" not in res  # no solve attempted

    def test_stalled_solver_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "command": "solve",
            "problem": {"preset": "heat_timevarying", "n_modes": 4, "n_steps": 64},
            "solver": {"max_inner": 1, "inner_tol": 1e-12},
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 3
        res = read_report(out)["results"]
        assert res["status"] == "max_iterations"

    def test_mollified_condition_solvable(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "command": "solve",
            "seed": 3,
            "problem": {"n_modes": 4, "n_steps": 64,
                        "coefficient": "time_power_06",
                        "nonlinearity": "zero",
                        "g": {"kind": "mollified_integral", "width": 4.0,
                              "intervals": [[0.0, 0.5]]},
                        "r0": 0.5, "shift_mu": 0.4},
            "solver": {"inner_tol": 1e-10},
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 0
        assert read_report(out)["results"]["converged"]

    def test_kernel_unusable_for_solves_exits_2(self, tmp_path):
        # a width-1 cosine bump has derivative mass 2, so g is flagged unusable
        cfg = write_config(tmp_path, "cfg.json", {
            "command": "solve",
            "problem": {"n_modes": 4, "n_steps": 32, "nonlinearity": "zero",
                        "g": {"kind": "mollified_integral", "width": 1.0,
                              "intervals": [[0.0, 0.5]]},
                        "r0": 0.5},
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 2
        res = read_report(out)["results"]
        assert res["audits"]["g_solver_ok"] is False
        assert "status" not in res  # no solve attempted


class TestConverge:
    def test_study_csv_and_monotonicity(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "command": "converge",
            "form": {"coefficient": "time_power_06", "n_modes": 16},
            "n_steps": 64,
            "m_list": [2, 4, 8],
            "m_ref": 16,
            "x": "smooth",
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 0
        rep = read_report(out)
        assert rep["results"]["nonincreasing"]
        lines = (out / "convergence.csv").read_text().strip().splitlines()
        assert lines[0] == "m,sup_error"
        assert len(lines) == 4


class TestEvi:
    def test_quadratic_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "command": "evi",
            "seed": 5,
            "n_modes": 4,
            "n_steps": 256,
            "phi": "quadratic",
            "solver": {"inner_tol": 1e-10, "damping": 0.8},
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 0
        res = read_report(out)["results"]
        assert res["evi_ok"]
        assert res["mode_one_error"] < 1e-4


class TestConfigHandling:
    def test_missing_file(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(tmp_path / "nope.json"),
                     "--output", str(out), "--quiet"]) == 1
        assert "error" in read_report(out)

    @pytest.mark.parametrize("payload", [
        [{"command": "verify-form"}],
        {"command": "verify-form", "form": {"n_modes": None}},
        {"command": "solve", "problem": {"n_modes": 2, "n_steps": 16,
                                         "g": {"kind": "mollified_integral",
                                               "intervals": 5}}},
        {"command": "verify-form", "form": [1, 2]},
        {"command": "solve", "problem": [1]},
        {"command": "solve", "problem": {"preset": "evi_quadratic", "n_modes": 2,
                                         "n_steps": 16}, "solver": [1]},
        {"command": "evi", "seed": "abc"},
        {"command": "verify-form", "form": {"n_modes": 64, "quad_order": 4, "length": 1e-3}},
        {"command": "verify-form", "seed": 1.5, "form": {"n_modes": 2}},
        {"command": "verify-form", "seed": True, "form": {"n_modes": 2}},
    ], ids=["list_config", "null_n_modes", "scalar_intervals", "list_form", "list_problem",
            "list_solver", "text_seed", "unconverged_quadrature", "fractional_seed",
            "boolean_seed"])
    def test_malformed_config_writes_report(self, tmp_path, payload):
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 1
        assert "error" in read_report(out)

    def test_unknown_command(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"command": "meditate"})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 1

    def test_seed_override_recorded(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "command": "verify-form", "seed": 1,
            "form": {"coefficient": "unit", "n_modes": 2},
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--seed", "99",
                     "--quiet"]) == 0
        assert read_report(out)["seed"] == 99

    def test_integral_float_seed_accepted(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "command": "verify-form", "seed": 2.0,
            "form": {"coefficient": "unit", "n_modes": 2},
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 0
        assert read_report(out)["seed"] == 2

    def test_reports_deterministic_modulo_timestamp(self, tmp_path):
        payload = {
            "command": "solve",
            "seed": 21,
            "problem": {"preset": "heat_timevarying", "n_modes": 4, "n_steps": 64},
        }
        cfg = write_config(tmp_path, "cfg.json", payload)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--config", cfg, "--output", str(out1), "--quiet"]) == 0
        assert main(["--config", cfg, "--output", str(out2), "--quiet"]) == 0

        def stripped(p):
            return [ln for ln in (p / "report.json").read_text().splitlines()
                    if "timestamp_utc" not in ln]

        assert stripped(out1) == stripped(out2)
