"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  desk           the strategy comparison at desk scale, 20 UEs, one
                 paired replica of all five arms per unit
  dense          the same harness with 2,000 UEs over 40 s
  control-plane  a seeded change/degradation/request stream through one
                 Ledger and `mitigate` per unit, no simulator

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
wraps each layer's entry points and reports the per-layer metrics, the
tracer's per-span cost and its overhead.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; `attempted` counts checked
outputs and `failed` the checks that failed, so error_rate is
failed / attempted.  A report with the host and provenance block goes
to .perfbench/ in the checkout.

The measuring happens in a child process (bench.py) with the BLAS and
OpenMP pools pinned to one thread; this parent only times set-up from
process start and assembles the result.  End-to-end times are divided
by the host's slowdown measured around each unit and each spawn (see
hostspeed.py); the report keeps the uncorrected medians too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy loads, here and in the workload process

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7      # set-up is timed this many times per run; the median is reported
CHILD_TIMEOUT_S = 170.0


def commit() -> str:
    """HEAD of the checkout's git repository, read from .git directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(cmd: list[str], env: dict, deadline: float) -> tuple[float, list[str]]:
    """Run the workload process; return its set-up time (spawn to `ready`)
    and the stdout lines after `ready`."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{cmd[2:]} timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise SystemExit(f"workload process failed (exit {proc.returncode})")
    return setup_s, rest.splitlines()


def setup_sample(cmd: list[str], env: dict, deadline: float) -> tuple[float, float]:
    """Set-up time of one process that exits once set up, and the host's
    slowdown measured before it started and after it ended."""
    before = hostspeed.slowdown()
    setup_s = spawn(cmd + ["--setup-only"], env, deadline)[0]
    return setup_s, (before + hostspeed.slowdown()) / 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "ric_cms" / "__init__.py").is_file():
        raise SystemExit("no src/ric_cms in this checkout, nothing to measure")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the workload process imports src/ of this checkout only
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]

    setup = [] if args.trace else [setup_sample(cmd, env, deadline) for _ in range(SETUP_SAMPLES)]
    lines = spawn(cmd, env, deadline)[1]
    raw = json.loads(lines[-1])

    measured = dict(raw["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(s / slow for s, slow in setup)
        measured["peak_rss_mib"] = raw["peak_rss_mib"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise SystemExit(f"workload process did not measure {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}
    attempted, failed = raw["checks"], raw["failed_checks"]

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": raw["host"]["sizes"],
        "commit": commit(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": raw["host"]["python"],
        "numpy": raw["host"]["numpy"],
        "threads": PINNED,
    }
    report = {
        "provenance": provenance,
        "metrics": metrics,
        "error_rate": failed / attempted,
        "checks": attempted,
        "failed_checks": raw["failed_labels"],
        "setup_samples": [{"s": s, "slowdown": slow} for s, slow in setup],
        "units": raw["metrics"].get("units"),
        "latency_samples": raw["metrics"].get("latency_samples"),
        "slowdown": raw["metrics"].get("slowdown"),
        "uncorrected": raw["metrics"].get("raw"),
    }
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")

    print("provenance " + json.dumps(provenance, sort_keys=True))
    if not args.trace:
        m = raw["metrics"]
        print(f"host slowdown, median over units: {m['slowdown']:.3f} ({m['units']} units, "
              f"{m['latency_samples']} latencies); uncorrected: {json.dumps(m['raw'])}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6f} {m['unit']}")
    print(f"{'error_rate':44s} {failed / attempted:>16.6f} fraction ({failed} of {attempted} checks failed)")
    for label in raw["failed_labels"]:
        print(f"failed check: {label}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
