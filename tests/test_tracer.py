"""The benchmark tracer finds every target it wraps.

``perfbench/tracer.py`` wraps package functions and dataclass fields by name;
a target that is renamed or removed makes its per-layer metric null in the
benchmark output.  This runs one small traced solve and checks that no target
is missing and no metric is null.
"""

import importlib.util
import json
from pathlib import Path

import parabolic_nonlocal.cli as cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_found_and_no_metric_null(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": "solve", "problem": {
        "preset": "heat_timevarying", "n_modes": 4, "n_steps": 64}}))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        tracer.command = 0
        assert cli.run(str(config), str(tmp_path / "out"), None, True) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == {}
    metrics = tracer.command_metrics(0)
    assert None not in metrics.values()
    assert metrics["stage_maps"] > 0 and metrics["nonlocal_solver.g_evals"] > 0
