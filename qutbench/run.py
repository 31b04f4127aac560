"""Benchmark for qut: verdict cost per test family, end to end and per layer.

Run from the root of a checkout:

    python3 qutbench/run.py --workload verdict-1e7 --seed 1 --seconds 10 --trace 0

`--trace 0` measures the end-to-end metrics for `--seconds` seconds of whole
rounds; `--trace 1` runs a fixed number of rounds untraced and then traced,
and reports the per-layer metrics.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Every run checks
qut's outputs against the reference computation in `reference.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from clock import Clock, nominal_duration

ROOT = Path.cwd()
OUT = ROOT / "qutbench" / "out"
# Chance that a correct program fails a statistical check in one run.
ALPHA = 1e-6
STARTUP_REPEATS = 3


# Runs in a fresh interpreter: qut's dependencies are imported first, so the
# timed import is the work qut itself adds to every `qut` invocation.
STARTUP_PROBE = """
import importlib, sys
sys.path[:0] = ["src", "qutbench"]
import numpy, scipy.stats
from clock import nominal_duration
print(nominal_duration(lambda: importlib.import_module("qut.cli")))
"""


def cli_startup_s() -> float:
    """Median nominal time, over fresh interpreters, to import qut's CLI once
    NumPy and SciPy are loaded."""
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", STARTUP_PROBE], cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(STARTUP_REPEATS))


def measure(workload, seed: int, seconds: float, work: Path) -> dict:
    """Whole rounds until `seconds` of operations have run."""
    rounds = []
    with Clock() as clock:
        while clock.wall_s < seconds:
            inputs = workload.build(seed, len(rounds), work / f"r{len(rounds)}")
            rounds.append((inputs, clock.time(workload.run, inputs)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = sum(o["attempted"] - o["failed"] for _, o in rounds)
    metrics = {
        "ops_per_s": (done / clock.nominal_s, "1/s"),
        "setup_s": (cli_startup_s(), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = {"wall_ops_per_s": done / clock.wall_s, "kernel_median_s": statistics.median(clock.samples),
           "rounds": [{"ops": o["attempted"] - o["failed"], "wall_s": w, "nominal_s": n}
                      for (_, o), (w, n) in zip(rounds, clock.sections)]}
    return {"rounds": rounds, "metrics": metrics, "raw": raw}


def traced(workload, seed: int, work: Path, trace_file: Path) -> dict:
    """A fixed number of rounds: once untraced to warm up, once untraced and
    once traced, both timed; their ratio gives the tracing overhead."""
    from tracing import Tracer

    inputs = [workload.build(seed, i, work / f"r{i}") for i in range(workload.trace_rounds)]
    rounds: list = []

    def run_all():
        return [(x, workload.run(x)) for x in inputs]

    run_all()
    untraced = nominal_duration(run_all)
    with Tracer() as tracer:
        traced_s = nominal_duration(lambda: rounds.extend(run_all()))
    tracer.write(trace_file)
    metrics = {k: (v, "s" if k.endswith("_s") else "count") for k, v in tracer.metrics().items()}
    metrics["trace.overhead_ratio"] = (traced_s / untraced - 1.0, "ratio")
    return {"rounds": rounds, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qut" / "__init__.py").is_file():
        print(f"error: no qut sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import qut

    if Path(qut.__file__).resolve().parent != (src / "qut").resolve():
        print(f"error: imported qut from {qut.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        if args.trace:
            result = traced(workload, args.seed, work, OUT / f"trace-{tag}.jsonl")
        else:
            result = measure(workload, args.seed, args.seconds, work)
        rounds = result["rounds"]
        errors = workload.check(rounds, ALPHA) + workload.recheck(rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in errors[:50]:
        print(f"check failed: {line}", file=sys.stderr)
    line = {
        "correct": not errors,
        "attempted": sum(o["attempted"] for _, o in rounds),
        "failed": sum(o["failed"] for _, o in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({**line, "raw": result.get("raw", {})}, indent=2) + "\n")
    print(json.dumps(line))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
