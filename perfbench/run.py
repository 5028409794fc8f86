"""Layered benchmark of the parabolic-nonlocal command-line runner.

Run from the repository root::

    python3 perfbench/run.py --workload heat-mollified --seed 1 --seconds 50 --trace 0

One client in a closed loop: each command starts when the previous one has
returned.  Commands run in-process through ``parabolic_nonlocal.cli.run`` on a
config file generated from ``--seed``.  After one untimed warm-up, commands
repeat for ``--seconds`` seconds.  Every command's outputs are checked, and
the warm-up's outputs also go through an independent oracle (``oracles.py``)
after the timed region.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` alternates untraced and traced commands and reports the
per-layer breakdown (``tracer.py``).  The last line of standard output is one
JSON object; the lines before it are for people.  The exit code is 0 only
when every check passed.
"""

import os

# BLAS/OpenMP pools are pinned to one thread before numpy is first imported:
# unpinned OpenBLAS made the solves slower and noisier on small machines.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PARABOLIC_NONLOCAL_THREADS", None)

import argparse  # noqa: E402
import copy  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SPAWNS = 7

# Sizes are fixed once and never tuned; the seed reaches the program only
# through the config file.  Why each workload exists is in README.md.
WORKLOADS = {
    "heat-mollified": {
        "config": {
            "command": "solve",
            "problem": {"preset": "heat_timevarying", "n_modes": 8, "n_steps": 512},
            "solver": {"lambda_steps": 10, "damping": 0.5, "inner_tol": 1e-8,
                       "max_inner": 500, "secant_depth": 0},
        },
        "files": ("trajectory.csv",),
        "oracle": "check_heat",
    },
    "evi-huber": {
        "config": {
            "command": "evi", "n_modes": 8, "n_steps": 512, "phi": "pseudo_huber",
            "solver": {"inner_tol": 1e-10, "damping": 0.8},
        },
        "files": ("trajectory.csv",),
        "oracle": "check_evi",
    },
    "converge-reduction": {
        "config": {
            "command": "converge",
            "form": {"coefficient": "time_power_06", "n_modes": 32},
            "n_steps": 512, "m_list": [2, 4, 8, 16], "m_ref": 32, "x": "smooth",
        },
        "files": ("convergence.csv",),
        "oracle": "check_converge",
    },
}


def import_program():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "parabolic_nonlocal" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from parabolic_nonlocal import cli

    if Path(cli.__file__).resolve().parent != (SRC / "parabolic_nonlocal").resolve():
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the checkout's source")
    return cli


def write_config(workload: str, seed: int, workdir: Path) -> Path:
    config = copy.deepcopy(WORKLOADS[workload]["config"])
    config["seed"] = seed
    path = workdir / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


class Client:
    """Runs one workload's command and checks what it wrote."""

    def __init__(self, cli, workload: str, seed: int, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.files = WORKLOADS[workload]["files"]
        self.config = write_config(workload, seed, workdir)
        self.workdir = workdir
        self.attempted = 0
        self.failed_commands: set[int] = set()
        self.messages: list[str] = []
        self.expected = None

    @property
    def failed(self) -> int:
        return len(self.failed_commands)

    def run(self, outdir: Path) -> tuple[float, int]:
        gc.collect()
        start = time.perf_counter()
        code = self.cli.run(str(self.config), str(outdir), None, True)
        return time.perf_counter() - start, code

    def read(self, outdir: Path) -> tuple[dict, dict]:
        report = json.loads((outdir / "report.json").read_text())
        report.pop("timestamp_utc", None)
        return report, {name: (outdir / name).read_bytes() for name in self.files}

    def fail(self, message: str, command: int | None = None) -> None:
        """Record a failed check against a command (default: the latest one)."""
        self.failed_commands.add(self.attempted - 1 if command is None else command)
        self.messages.append(message)
        print(f"{self.workload}: FAIL {message}", file=sys.stderr)

    def warm_up(self) -> dict:
        """Untimed first command; its outputs are the ones later commands must repeat."""
        outdir = self.workdir / "warmup"
        _, code = self.run(outdir)
        self.attempted += 1
        try:
            self.expected = self.read(outdir)
        except (OSError, ValueError) as exc:
            self.fail(f"warm-up outputs unreadable: {exc}")
            return {}
        if code != 0:
            self.fail(f"warm-up exited {code}")
        return self.expected[0]

    def timed(self) -> float:
        """One timed command, then a check that it repeated the warm-up's outputs
        (the CLI promises bit-identical reports apart from the timestamp)."""
        outdir = self.workdir / "command"
        elapsed, code = self.run(outdir)
        self.attempted += 1
        try:
            same = self.read(outdir) == self.expected
        except (OSError, ValueError):
            same = False
        if code != 0 or not same:
            self.fail(f"command exited {code}; outputs repeat the warm-up: {same}")
        return elapsed

    def oracle(self) -> None:
        if self.expected is None:
            return
        check = getattr(oracles, WORKLOADS[self.workload]["oracle"])
        fails = check(self.workdir / "warmup", self.expected[0], WORKLOADS[self.workload])
        for message in fails:
            self.fail(f"oracle: {message}", command=0)


def measure_setup(spawns: int = SETUP_SPAWNS) -> list[float]:
    """Wall seconds from a fresh interpreter to an imported ``parabolic_nonlocal.cli``,
    after one untimed spawn that warms the file cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import parabolic_nonlocal.cli"]
    times = []
    for i in range(spawns + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.decode(errors='replace')}")
        if i:
            times.append(elapsed)
    return times


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n/a ({n} samples; a tail with 10 samples beyond it needs 11)"
    return f"p{100.0 * (n - 10) / n:.1f} = {sorted(samples)[n - 11]:.4f} s ({n} samples)"


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end(client: Client, seconds: float) -> tuple[dict, list[str]]:
    setup = measure_setup()
    client.warm_up()
    walls = []
    stop = time.perf_counter() + seconds
    while not walls or time.perf_counter() < stop:
        walls.append(client.timed())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    client.oracle()
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    lines = [
        f"wall_s {metrics['wall_s']['value']:.4f} s (median of {len(walls)}: "
        + ", ".join(f"{w:.3f}" for w in walls) + ")",
        f"wall_s.tail {tail(walls)}",
        f"fail_ratio {client.failed / client.attempted:.4f} ({client.failed}/{client.attempted})",
        f"peak_rss_mib {peak_rss_mib:.1f} MiB",
        f"setup_s {metrics['setup_s']['value']:.4f} s (median of {len(setup)}: "
        + ", ".join(f"{s:.3f}" for s in setup) + ")",
    ]
    return metrics, lines


def traced_command(client: Client, tracer, command: int) -> tuple[float, dict]:
    """One timed command under the tracer; returns its wall time and layer metrics.
    The self times of its spans must add up to the time of its root spans."""
    tracer.command = command
    tracer.install()
    try:
        elapsed = client.timed()
    finally:
        tracer.uninstall()
    summary = tracer.command_summary(command)
    unaccounted = sum(summary["self_s"].values()) - summary["root_s"]
    if abs(unaccounted) > 1e-6:
        client.fail(f"self times miss the command's span time by {unaccounted:.3e} s")
    return elapsed, tracer.command_metrics(command)


def per_layer(client: Client, seconds: float) -> tuple[dict, list[str]]:
    tracer = tracing.Tracer()
    client.warm_up()
    plain, traced, per_command = [], [], []
    stop = time.perf_counter() + seconds
    while not traced or time.perf_counter() < stop:
        if len(plain) == len(traced):
            plain.append(client.timed())
            continue
        elapsed, metrics = traced_command(client, tracer, len(traced))
        traced.append(elapsed)
        per_command.append(metrics)
    tracer.dump(client.workdir / "spans.json")
    client.oracle()

    values = {}
    for metric in tracing.LAYER_METRICS:
        seen = [m[metric] for m in per_command]
        if seen[0] is None:
            values[metric] = None
        elif metric in tracing.COUNT_METRICS:
            if len(set(seen)) != 1:
                client.fail(f"{metric} differs between repeated commands: {seen}")
            values[metric] = seen[0]
        else:
            values[metric] = statistics.median(seen)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)

    metrics, lines = {}, []
    for metric, value in values.items():
        unit = "s" if metric.endswith("_s") else "count"
        if value is None:
            metrics[metric] = {"value": None, "unit": unit, "missing": True}
            lines.append(f"{metric} missing ({tracer.missing[tracing.LAYER_METRICS[metric][1]]})")
        else:
            metrics[metric] = {"value": value, "unit": unit}
            lines.append(f"{metric} {value:.6f} {unit}" if unit == "s" else f"{metric} {value} {unit}")
    lines.append(f"traced commands {len(traced)}, untraced {len(plain)}; "
                 f"spans written to {client.workdir / 'spans.json'}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment(args.workload, args.seed)
    (workdir / "env.json").write_text(json.dumps(env, indent=2) + "\n")
    print("env " + json.dumps(env, sort_keys=True))

    client = Client(cli, args.workload, args.seed, workdir)
    measure = per_layer if args.trace else end_to_end
    metrics, lines = measure(client, args.seconds)
    for line in lines:
        print(f"{args.workload}: {line}")
    correct = not client.messages
    result = {"correct": correct, "attempted": client.attempted,
              "failed": client.failed, "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
