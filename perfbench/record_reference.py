"""Record the reference outputs that ``oracles.py`` compares against.

    python3 perfbench/record_reference.py

Runs the ``evi-huber`` and ``converge-reduction`` commands once and stores the
solution path and the reduction errors under ``perfbench/reference/``.  The
committed files were recorded at the commit that introduced the benchmark;
re-recording them moves the oracle and must be justified on its own.
"""

import json
import sys

import run  # pins the BLAS thread pools before numpy is imported

import numpy as np  # noqa: E402

import oracles  # noqa: E402


def record(cli, workload: str):
    workdir = run.WORK / f"reference-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    config = run.write_config(workload, 0, workdir)
    outdir = workdir / "out"
    code = cli.run(str(config), str(outdir), None, True)
    if code != 0:
        raise SystemExit(f"{workload} exited {code}")
    return outdir, json.loads((outdir / "report.json").read_text())


def main() -> int:
    cli = run.import_program()
    oracles.REFERENCE_DIR.mkdir(exist_ok=True)

    outdir, _ = record(cli, "evi-huber")
    n_modes = run.WORKLOADS["evi-huber"]["config"]["n_modes"]
    np.save(oracles.REFERENCE_DIR / "evi_huber_path.npy", oracles.read_path(outdir, n_modes))

    _, report = record(cli, "converge-reduction")
    study = report["results"]["study"]
    payload = {"m_list": [m for m, _ in study], "sup_errors": [e for _, e in study]}
    (oracles.REFERENCE_DIR / "converge_errors.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"references written to {oracles.REFERENCE_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
