import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabolic_nonlocal.cli import COMMANDS, main, run, write_report

README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def not_json(constant):
    raise ValueError(f"report.json holds {constant}, which strict JSON does not allow")


def read_report(outdir):
    """The report, parsed as strict JSON: a bare NaN or Infinity token fails."""
    with open(outdir / "report.json") as fh:
        return json.load(fh, parse_constant=not_json)


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

    @pytest.mark.parametrize("scheme, expected", [("cayley", 1.0610326932660088),
                                                  ("implicit_euler", 1.0746532901455834)])
    def test_weighted_diagnostic_follows_the_scheme(self, tmp_path, scheme, expected):
        # the diagnostic weights the path the command marched, in the configured scheme
        cfg = write_config(tmp_path, "cfg.json", {
            "command": "propagate", "form": {"n_modes": 4}, "n_steps": 32, "scheme": scheme,
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 0
        assert read_report(out)["results"]["weighted_diagnostic"] == pytest.approx(expected,
                                                                                   rel=1e-13)


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


# (key the error must name, config): values the per-key casts once changed
# silently (3.9 modes ran with 3, true with 1) or accepted as text
BAD_VALUES = {
    "fractional_n_modes": ("n_modes", {"command": "propagate", "form": {"n_modes": 3.9},
                                       "n_steps": 32}),
    "boolean_n_modes": ("n_modes", {"command": "evi", "n_modes": True, "n_steps": 32}),
    "text_inner_tol": ("inner_tol", {"command": "solve",
                                     "problem": {"preset": "heat_timevarying"},
                                     "solver": {"inner_tol": "1e-10"}}),
    "fractional_m_list": ("m_list", {"command": "converge", "form": {"n_modes": 8},
                                     "n_steps": 16, "m_list": [2, 4.5]}),
    "text_m_ref": ("m_ref", {"command": "converge", "form": {"n_modes": 8}, "n_steps": 16,
                             "m_list": [2, 4], "m_ref": "8"}),
    # json parses NaN and Infinity; they once ran a solve (exit 3) or failed
    # without naming the key ("gram_V is not positive definite")
    "infinite_shift_mu": ("shift_mu", {"command": "solve",
                                       "problem": {"n_modes": 2, "n_steps": 8,
                                                   "shift_mu": math.inf}}),
    "nan_length": ("length", {"command": "solve",
                              "problem": {"n_modes": 2, "n_steps": 8, "length": math.nan}}),
    # sample counts below 1 once passed vacuously: evi_residual 0.0, g_star 0.0
    "zero_n_test": ("n_test", {"command": "evi", "n_modes": 2, "n_steps": 16, "n_test": 0}),
    "zero_g_star_samples": ("g_star_samples", {"command": "solve",
                                               "problem": {"preset": "heat_timevarying",
                                                           "n_modes": 4, "n_steps": 64},
                                               "solver": {"g_star_samples": 0}}),
    # negative tolerances once marched 1,000 paths (inner_tol) or reported
    # status converged with converged false (fp_tol)
    "negative_inner_tol": ("inner_tol", {"command": "solve",
                                         "problem": {"preset": "heat_timevarying",
                                                     "n_modes": 4, "n_steps": 64},
                                         "solver": {"inner_tol": -1}}),
    "negative_fp_tol": ("fp_tol", {"command": "solve",
                                   "problem": {"preset": "heat_timevarying",
                                               "n_modes": 4, "n_steps": 64},
                                   "solver": {"fp_tol": -1}}),
    # a negative shift was once skipped silently; an empty m_list failed
    # without naming the key
    "negative_shift_mu": ("shift_mu", {"command": "solve",
                                       "problem": {"n_modes": 2, "n_steps": 8,
                                                   "shift_mu": -0.5}}),
    "empty_m_list": ("m_list", {"command": "converge", "form": {"n_modes": 8},
                                "n_steps": 16, "m_list": []}),
    # data whose norms overflow once exited 0 with a study of [[2, "inf"]]
    "overflowing_x": ("x", {"command": "converge", "n_steps": 16, "m_list": [2],
                            "x": [1e308] * 4}),
}


class TestReportValues:
    def test_numpy_scalars_reach_the_report_as_json(self, tmp_path):
        # a numpy bool is not a JSON type, and a numpy inf must follow the "inf" rule
        write_report(tmp_path, {"converged": np.bool_(True), "residual": np.float64(np.inf),
                                "low": np.float32(-np.inf), "marches": np.int64(3)})
        text = (tmp_path / "report.json").read_text()
        assert '"converged": true' in text
        assert read_report(tmp_path) == {"converged": True, "residual": "inf", "low": "-inf",
                                         "marches": 3}

    def test_nan_reaches_the_report_as_text(self, tmp_path):
        write_report(tmp_path, {"residual": np.float64(np.nan), "path": [1.0, math.nan]})
        assert read_report(tmp_path) == {"residual": "nan", "path": [1.0, "nan"]}

    def test_nan_config_value_echoed_as_text(self, tmp_path):
        # Python's json reads the bare NaN token; the report echoes it as strict JSON
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"command": "propagate", "n_steps": 16, "scheme": NaN}')
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--output", str(out), "--quiet"]) == 1
        rep = read_report(out)
        assert rep["config"]["scheme"] == "nan" and "scheme" in rep["error"]

    @pytest.mark.parametrize("command", ["propagate", "converge"])
    def test_overflowing_data_exits_1_without_warning(self, tmp_path, command):
        # finite data whose norms overflow once exited 0 with "inf" and "nan"
        # norms, after numpy's overflow warnings
        cfg = write_config(tmp_path, "cfg.json", {"command": command, "m_list": [2],
                                                  "x": [1e308] * 4})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 1
        rep = read_report(out)
        assert "x is too large" in rep["error"] and "results" not in rep
        assert not (out / "trajectory.csv").exists() and not (out / "convergence.csv").exists()


class TestConfigHandling:
    def test_missing_file(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(tmp_path / "nope.json"),
                     "--output", str(out), "--quiet"]) == 1
        assert "error" in read_report(out)

    @pytest.mark.parametrize("payload", [
        [{"command": "verify-form"}],
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
        *(payload for _, payload in BAD_VALUES.values()),
    ], ids=["list_config", "scalar_intervals", "list_form", "list_problem",
            "list_solver", "text_seed", "unconverged_quadrature", "fractional_seed",
            "boolean_seed", *BAD_VALUES])
    def test_malformed_config_writes_report(self, tmp_path, payload):
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 1
        assert "error" in read_report(out)

    @pytest.mark.parametrize("name", list(BAD_VALUES))
    def test_bad_value_error_names_key(self, tmp_path, name):
        key, payload = BAD_VALUES[name]
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 1
        assert key in read_report(out)["error"]

    @pytest.mark.parametrize("payload, section, key", [
        ({"command": "solve", "seed": 4, "problem": {"n_modes": 2, "n_steps": 8},
          "solver": {"fp_tol": 1e-6}}, "solver", "fp_tol"),
        ({"command": "verify-form", "form": {"n_modes": 2}}, "form", "n_modes"),
    ], ids=["null_fp_tol", "null_n_modes"])
    def test_null_reads_as_default(self, tmp_path, payload, section, key):
        absent = {k: v for k, v in payload[section].items() if k != key}
        results = []
        for name, spec in (("absent", absent), ("null", {**payload[section], key: None})):
            cfg = write_config(tmp_path, f"{name}.json", {**payload, section: spec})
            out = tmp_path / name
            assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 0
            results.append(read_report(out)["results"])
        assert results[0] == results[1]

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

    def test_text_inf_R0_still_accepted(self, tmp_path):
        # non-finite numbers are rejected, the documented text "inf" is not
        cfg = write_config(tmp_path, "cfg.json", {
            "command": "solve", "problem": {"n_modes": 2, "n_steps": 8, "R0": "inf"},
            "solver": {"g_star_samples": 4},
        })
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--quiet"]) == 0
        assert read_report(out)["results"]["resolved"]["problem"]["R0"] == "inf"

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


def readme_cli_examples():
    """Every fenced ``json`` block of README that is a config (it has a "command")."""
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", README.read_text(), re.S)]
    return [b for b in blocks if isinstance(b, dict) and "command" in b]


class TestReadmeExamples:
    def test_every_command_has_an_example(self):
        assert sorted(p["command"] for p in readme_cli_examples()) == sorted(COMMANDS)

    @pytest.mark.parametrize("payload", readme_cli_examples(), ids=lambda p: p["command"])
    def test_example_runs(self, tmp_path, payload):
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert run(cfg, str(out), None, True) == 0
        assert read_report(out)["exit_code"] == 0


# In-range values per key.  Sizes and counts stay at most 8 modes, 64 steps
# and 8 samples or iterations; keys whose default is larger (NO_NULL) are
# never drawn as null, and the sections holding them are never replaced.
IN_RANGE = {
    "seed": st.integers(0, 100),
    "n_modes": st.integers(1, 8),
    "n_steps": st.integers(1, 64),
    "length": st.floats(0.5, 4.0),
    "horizon": st.floats(0.25, 2.0),
    "quad_order": st.integers(4, 8),
    "coefficient": st.sampled_from(["unit", "time_power_06", {"name": "constant", "value": 2.0},
                                    {"name": "time_power", "exponent": 0.4}]),
    "scheme": st.sampled_from(["cayley", "implicit_euler"]),
    "x": st.sampled_from(["smooth", "first_mode", [1.0, 0.5]]),
    "m_list": st.lists(st.integers(1, 8), max_size=3),
    "m_ref": st.integers(1, 8),
    "m": st.integers(1, 8),
    "preset": st.sampled_from(["heat_timevarying", "evi_quadratic", "evi_pseudo_huber"]),
    "nonlinearity": st.sampled_from(["zero", "negated_identity", "saturating_drift"]),
    "g": st.sampled_from(["zero", {"kind": "constant", "x0": "first_mode"},
                          {"kind": "mollified_integral", "width": 4.0,
                           "intervals": [[0.0, 0.5]]}]),
    "r0": st.floats(0.1, 2.0),
    "R0": st.one_of(st.floats(1.0, 10.0), st.just("inf")),
    "shift_mu": st.floats(0.0, 1.0),
    "phi": st.sampled_from(["quadratic", "pseudo_huber"]),
    "n_test": st.integers(1, 8),
    "lambda_steps": st.integers(1, 3),
    "inner_tol": st.floats(1e-10, 1e-4),
    "max_inner": st.integers(1, 8),
    "fp_tol": st.floats(1e-10, 1e-4),
    "g_star_samples": st.integers(1, 8),
}
NO_NULL = {"n_steps", "n_test", "lambda_steps", "max_inner", "g_star_samples", "solver"}
FORM_KEYS = ("n_modes", "length", "horizon", "quad_order", "coefficient")
SOLVER_KEYS = ("lambda_steps", "inner_tol", "max_inner", "fp_tol", "g_star_samples")
SMALL_SOLVER = {"lambda_steps": 2, "max_inner": 4, "g_star_samples": 4}
# command -> (small valid config, fuzzed key paths)
FUZZ = {
    "verify-form": ({"form": {"n_modes": 2}},
                    [("form",), *(("form", k) for k in FORM_KEYS)]),
    "propagate": ({"form": {"n_modes": 2}, "n_steps": 8},
                  [("form",), ("n_steps",), ("scheme",), ("x",),
                   *(("form", k) for k in FORM_KEYS)]),
    "solve": ({"problem": {"n_modes": 2, "n_steps": 8}, "solver": SMALL_SOLVER},
              [("problem",), ("solver",),
               *(("problem", k) for k in (*FORM_KEYS, "preset", "n_steps", "m", "nonlinearity",
                                          "g", "r0", "R0", "shift_mu")),
               *(("solver", k) for k in SOLVER_KEYS)]),
    "converge": ({"form": {"n_modes": 4}, "n_steps": 8, "m_list": [1, 2], "m_ref": 4},
                 [("form",), ("n_steps",), ("x",), ("m_list",), ("m_ref",),
                  *(("form", k) for k in FORM_KEYS)]),
    "evi": ({"n_modes": 2, "n_steps": 8, "n_test": 4, "solver": SMALL_SOLVER},
            [("n_modes",), ("n_steps",), ("phi",), ("n_test",), ("solver",),
             *(("solver", k) for k in SOLVER_KEYS)]),
}
SCALARS = st.one_of(st.integers(-2, 8), st.floats(-2.0, 8.0), st.booleans(),
                    st.text(max_size=4))


def fuzzed_value(key):
    kinds = [IN_RANGE.get(key, st.nothing()),
             st.floats(-2.0, 8.0).filter(lambda v: not v.is_integer()),
             st.sampled_from([math.nan, math.inf, -math.inf]),
             st.booleans(),
             st.one_of(st.text(max_size=4), st.sampled_from(["inf", "8", "1e-10", "smooth"])),
             st.lists(SCALARS, max_size=3)]
    if key not in NO_NULL:
        kinds += [st.none(),
                  st.dictionaries(st.sampled_from(["kind", "name", "x0", "width", "value"]),
                                  SCALARS, max_size=2)]
    return st.one_of(kinds)


@st.composite
def fuzzed_configs(draw, command):
    base, paths = FUZZ[command]
    config = json.loads(json.dumps({"command": command, **base}))
    for path in [("seed",), *draw(st.lists(st.sampled_from(paths), max_size=4))]:
        parent = config
        for key in path[:-1]:
            if not isinstance(parent.get(key), dict):
                break
            parent = parent[key]
        else:
            parent[path[-1]] = draw(fuzzed_value(path[-1]))
    return config


class TestFuzzedConfigs:
    """No config crashes the CLI: every run returns 0-3 and writes a report
    whose ``exit_code`` is that return value."""

    @pytest.mark.parametrize("command", list(FUZZ))
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_exit_code_and_report(self, command, data):
        config = data.draw(fuzzed_configs(command))
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), "cfg.json", config)
            out = Path(tmp) / "out"
            code = main(["--config", cfg, "--output", str(out), "--quiet"])
            assert code in (0, 1, 2, 3)
            assert read_report(out)["exit_code"] == code
