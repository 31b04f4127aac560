"""Paired benchmark runs of two commits, kept in one ledger file.

Run from the root of a checkout:

    python3 tools/ledger.py --parent c5c14e8 --change HEAD \\
        --workloads verdict-1e7 --seeds 2101 2102 --out BENCH_21.json

For every workload and seed, the benchmark command of `BENCHMARK.json` runs
once on each commit for `run_seconds` seconds, untraced.  Each run gets a
fresh `git archive` copy of its commit and runs without bytecode, so no run
reads what another wrote.  The pairs alternate which side runs first.  The
ledger keeps each run's result line, the last line the benchmark prints
(`{correct, attempted, failed, metrics}`), the machine, and per workload and
side the median and quartiles of every end-to-end metric, with the number of
pairs in which the change reads better and the answers of the acceptance rule:
`gain_met` and `within_bound` per metric.  It also states the line deltas of
`src/` and of `tests/` between the two commits, in total and per file
(`src_line_delta` and `tests_line_delta`): code moved from `src/` into the
tests shows in both.

Beside each result line, `inprocess_round_s` is the nominal time of one
round run in-process: in the run's own copy, round 0 is built at the run's
seed, run once to warm up, and then timed `INPROCESS_REPEATS` times; the
median is kept.  The summary gives its median and quartiles per side and its
`median_ratio`.  It times the same calls as `ops_per_s` without the rest of
the benchmark process, so a difference of a few percent in `ops_per_s` can
be checked against it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
MACHINE_PROBE = """
import json, os, platform, numpy, scipy
print(json.dumps({"cpu_count": os.cpu_count(), "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""
INPROCESS_REPEATS = 5
# argv: workload, seed, repeats, work directory; prints the median in seconds
INPROCESS_PROBE = """
import statistics, sys
from pathlib import Path
sys.path[:0] = ["src", "qutbench"]
from clock import nominal_duration
from workloads import WORKLOADS
workload = WORKLOADS[sys.argv[1]]
inputs = workload.build(int(sys.argv[2]), 0, Path(sys.argv[4]).resolve())
workload.run(inputs)
print(statistics.median(nominal_duration(lambda: workload.run(inputs))
                        for _ in range(int(sys.argv[3]))))
"""


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def run_side(archive: bytes, root: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """Unpack `archive` into the new directory `root`, run the benchmark
    there, and return its exit code, its result line (None if it printed
    none) and the in-process round time (None if the probe failed)."""
    root.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(root, filter="data")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    probe = subprocess.run(
        [command[0], "-c", INPROCESS_PROBE, workload, str(seed), str(INPROCESS_REPEATS),
         "inprocess-round"],
        cwd=root, env=env, capture_output=True, text=True)
    return {"exit": done.returncode, "stderr": done.stderr[-2000:],
            "result": json.loads(lines[-1]) if lines else None,
            "inprocess_round_s": float(probe.stdout) if probe.returncode == 0 else None}


def line_delta(numstat: str) -> dict:
    """Lines added, deleted and net over the output of `git diff --numstat`,
    and under "files" each file's lines added and deleted; a binary file,
    which numstat counts as "-", adds none."""
    files = {}
    for line in numstat.splitlines():
        if line:
            plus, minus, path = line.split("\t", 2)
            files[path] = {"added": int(plus) if plus != "-" else 0,
                           "deleted": int(minus) if minus != "-" else 0}
    added = sum(f["added"] for f in files.values())
    deleted = sum(f["deleted"] for f in files.values())
    return {"added": added, "deleted": deleted, "net": added - deleted, "files": files}


def line_deltas(parent: str, change: str) -> dict:
    """`src_line_delta` and `tests_line_delta`: the `line_delta` of each
    directory between the two commits."""
    return {f"{d}_line_delta": line_delta(
                git("diff", "--numstat", parent, change, "--", d).decode())
            for d in ("src", "tests")}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: each side's runs, failures and the median and quartiles
    of every end-to-end metric and of the in-process round time; per metric,
    the pairs the change wins (ties count for neither side), the ratio of
    the change's median to the parent's, whether a claimed gain would be met
    (the change wins at least 9 of 10 pairs and its median beats the
    parent's by more than the parent's quartile spread), and whether the
    change's median is within the metric's relative bound of the parent's.
    The in-process round time gets only its ratio."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["seed"], {})[run["side"]] = run
        complete = [p for p in pairs.values()
                    if all(p.get(side, {}).get("result") is not None for side in SIDES)]
        entry = {"pairs": len(complete)}
        for side in SIDES:
            results = [p[side]["result"] for p in complete]
            round_s = [p[side]["inprocess_round_s"] for p in complete
                       if p[side].get("inprocess_round_s") is not None]
            entry[side] = {
                "incorrect_runs": sum(not r["correct"] for r in results),
                "failed_share": (sum(r["failed"] for r in results)
                                 / max(1, sum(r["attempted"] for r in results))),
                **{m["name"]: _spread([r["metrics"][m["name"]]["value"] for r in results])
                   for m in end_to_end if results},
                **({"inprocess_round_s": _spread(round_s)} if round_s else {}),
            }
        for m in end_to_end if complete else ():
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            parent, change = entry["parent"][name], entry["change"][name]
            wins = sum(sign * (p["change"]["result"]["metrics"][name]["value"]
                               - p["parent"]["result"]["metrics"][name]["value"]) > 0
                       for p in complete)
            gain = sign * (change["median"] - parent["median"])
            entry.setdefault("change_wins", {})[name] = wins
            entry.setdefault("median_ratio", {})[name] = change["median"] / parent["median"]
            entry.setdefault("gain_met", {})[name] = (
                10 * wins >= 9 * len(complete) and gain > parent["q3"] - parent["q1"])
            entry.setdefault("within_bound", {})[name] = (
                gain >= -m["bound"] * abs(parent["median"]))
        if all("inprocess_round_s" in entry[side] for side in SIDES):
            entry["median_ratio"]["inprocess_round_s"] = (
                entry["change"]["inprocess_round_s"]["median"]
                / entry["parent"]["inprocess_round_s"]["median"])
        summary[workload] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit measured as the base")
    parser.add_argument("--change", required=True, help="commit measured against it")
    parser.add_argument("--workloads", nargs="+", help="default: every workload")
    parser.add_argument("--seeds", nargs="+", type=int, required=True,
                        help="one pair of runs per workload and seed")
    parser.add_argument("--out", required=True, help="the ledger file to write")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    commits = {"parent": git("rev-parse", args.parent).decode().strip(),
               "change": git("rev-parse", args.change).decode().strip()}
    archives = {side: git("archive", "--format=tar", sha) for side, sha in commits.items()}
    machine = json.loads(subprocess.run([bench["command"][0], "-c", MACHINE_PROBE],
                                        check=True, capture_output=True, text=True).stdout)
    runs = []
    with tempfile.TemporaryDirectory(prefix="ledger-") as tmp:
        for workload in workloads:
            for seed in args.seeds:
                order = SIDES if len(runs) // 2 % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = run_side(archives[side], Path(tmp) / f"{len(runs)}-{side}",
                                   bench["command"], workload, seed, bench["run_seconds"])
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "first": side == order[0], **run})
                    ops = (run["result"] or {}).get("metrics", {}).get("ops_per_s", {})
                    print(f"{workload} seed {seed} {side}: exit {run['exit']}, "
                          f"ops_per_s {ops.get('value')}, "
                          f"inprocess_round_s {run['inprocess_round_s']}", file=sys.stderr)
    ledger = {"commits": commits, **line_deltas(commits["parent"], commits["change"]),
              "run_seconds": bench["run_seconds"], "machine": machine,
              "summary": summarize(runs, bench["end_to_end"]), "runs": runs}
    Path(args.out).write_text(json.dumps(ledger, indent=2) + "\n")
    return 0 if all(run["exit"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
