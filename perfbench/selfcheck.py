"""Quick self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

* The tracer survives a refactor: a target that does not exist is reported
  missing, its metric reads None, and uninstalling restores every binding.
* Exact counts repeat: each workload runs traced three times (seed 1 twice,
  seed 2 once), and every count metric must be identical across the three.
  On the solves, the stage-map function's call count must equal the
  iterations the solver reports.
* The self times of each traced command add up to its span time.

Exits 0 when every check holds.
"""

import shutil
import sys

import run  # pins the BLAS thread pools before numpy is imported

import tracer as tracing  # noqa: E402

SEEDS = (1, 1, 2)


def check_missing_targets() -> list[str]:
    evolution = sys.modules["parabolic_nonlocal.evolution"]
    original = evolution.make_trajectory
    tracer = tracing.Tracer(
        function_spans=(("evolution.march", "evolution", "_renamed_march"),
                        ("evolution.trajectory", "evolution", "make_trajectory")),
        field_targets=(("galerkin.stiffness", "galerkin", "RenamedForm", "stiffness_at", True),),
    )
    tracer.install()
    patched = evolution.make_trajectory is not original
    tracer.uninstall()
    metrics = tracer.command_metrics(0)
    fails = []
    if not patched:
        fails.append("tracer did not wrap make_trajectory")
    if evolution.make_trajectory is not original:
        fails.append("uninstall did not restore make_trajectory")
    for metric in ("evolution.march_s", "galerkin.stiffness_s", "galerkin.stiffness_evals"):
        if metrics[metric] is not None:
            fails.append(f"{metric} should be missing, reads {metrics[metric]}")
    return fails


def check_counts(cli, workload: str) -> list[str]:
    seen = []
    fails = []
    for i, seed in enumerate(SEEDS):
        workdir = run.WORK / f"selfcheck-{workload}-{i}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        client = run.Client(cli, workload, seed, workdir)
        client.warm_up()
        _, metrics = run.traced_command(client, tracing.Tracer(), 0)
        fails += [f"seed {seed}: {m}" for m in client.messages]
        seen.append({k: metrics[k] for k in tracing.COUNT_METRICS})
    for other, seed in zip(seen[1:], SEEDS[1:]):
        for key, value in seen[0].items():
            if other[key] != value:
                fails.append(f"{key}: {value} at seed {SEEDS[0]}, {other[key]} at seed {seed}")
    if seen[0]["nonlocal_solver.stages"] != seen[0]["stage_maps"]:
        fails.append(f"stage-map calls {seen[0]['nonlocal_solver.stages']} != "
                     f"reported iterations {seen[0]['stage_maps']}")
    print(f"{workload}: " + ", ".join(f"{k} {v}" for k, v in seen[0].items()))
    return fails


def main() -> int:
    cli = run.import_program()
    fails = [f"tracer: {m}" for m in check_missing_targets()]
    for workload in run.WORKLOADS:
        fails += [f"{workload}: {m}" for m in check_counts(cli, workload)]
    for message in fails:
        print(f"FAIL {message}")
    print("self-check " + ("failed" if fails else "passed"))
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
