"""tools/ledger.py on canned benchmark results: no benchmark runs here."""

import io
import json
import sys
import tarfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import ledger  # noqa: E402

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _result(ops, rss, setup, failed=0, correct=True):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"},
                        "setup_s": {"value": setup, "unit": "s"}}}


def _runs(rows):
    """Ledger runs holding the given result lines."""
    return [{"workload": workload, "seed": seed, "side": side, "result": result}
            for workload, seed, side, result in rows]


def test_summary_has_medians_quartiles_and_wins():
    parent_ops, change_ops = [100, 110, 120, 130, 140], [150, 105, 160, 170, 180]
    rows = []
    for seed, (p, c) in enumerate(zip(parent_ops, change_ops)):
        rows.append(("verdict-1e7", seed, "parent", _result(p, 120.0, 0.04)))
        rows.append(("verdict-1e7", seed, "change",
                     _result(c, 125.0, 0.04, failed=seed == 0, correct=seed != 1)))
    rows.append(("desk-bench", 7, "parent", _result(50, 140.0, 0.03)))
    rows.append(("desk-bench", 7, "change", None))  # the run wrote no result
    summary = ledger.summarize(_runs(rows), END_TO_END)

    verdict = summary["verdict-1e7"]
    assert verdict["pairs"] == 5
    assert verdict["parent"]["ops_per_s"] == {"median": 120, "q1": 110, "q3": 130}
    assert verdict["change"]["ops_per_s"] == {"median": 160, "q1": 150, "q3": 170}
    assert verdict["change_wins"] == {"ops_per_s": 4, "peak_rss_mb": 0, "setup_s": 0}
    assert verdict["median_ratio"]["ops_per_s"] == pytest.approx(160 / 120)
    assert verdict["median_ratio"]["peak_rss_mb"] == pytest.approx(125 / 120)
    assert verdict["change"]["failed_share"] == pytest.approx(1 / 500)
    assert verdict["change"]["incorrect_runs"] == 1
    assert verdict["parent"]["failed_share"] == verdict["parent"]["incorrect_runs"] == 0
    assert summary["desk-bench"] == {
        "pairs": 0, "parent": {"incorrect_runs": 0, "failed_share": 0.0},
        "change": {"incorrect_runs": 0, "failed_share": 0.0}}


def test_one_pair_reads_its_own_values_as_quartiles():
    rows = [("shot-planning", 3, "parent", _result(10, 100.0, 0.05)),
            ("shot-planning", 3, "change", _result(10, 90.0, 0.06))]
    entry = ledger.summarize(_runs(rows), END_TO_END)["shot-planning"]
    assert entry["change"]["peak_rss_mb"] == {"median": 90.0, "q1": 90.0, "q3": 90.0}
    assert entry["change_wins"] == {"ops_per_s": 0, "peak_rss_mb": 1, "setup_s": 0}


FAKE_RUN = """
import argparse, json, os, sys
from pathlib import Path
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
if a.workload == "unknown":
    print("error: unknown workload", file=sys.stderr)
    sys.exit(2)
out = Path("qutbench/out")
fresh = not out.exists()
out.mkdir(parents=True, exist_ok=True)
(out / "result.json").write_text(json.dumps({"raw": {"rounds": [1, 2, 3]}}))
print("check failed: canned", file=sys.stderr)
print("a line before the result line")
print(json.dumps({"seconds": a.seconds, "trace": a.trace, "fresh": fresh,
                  "no_bytecode": os.environ["PYTHONDONTWRITEBYTECODE"]}))
sys.exit(1)
"""


def test_run_side_unpacks_runs_and_copies_the_result(tmp_path):
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w") as tar:
        data = FAKE_RUN.encode()
        info = tarfile.TarInfo("qutbench/run.py")
        info.size = len(data)
        tar.addfile(info, io.BytesIO(data))
    for root in (tmp_path / "a", tmp_path / "b"):
        run = ledger.run_side(buffer.getvalue(), root, [sys.executable, "qutbench/run.py"],
                              "verdict-1e7", 5, 15)
        assert run == {"exit": 1, "stderr": "check failed: canned\n",
                       "result": {"seconds": "15", "trace": "0", "fresh": True,
                                  "no_bytecode": "1"}}
    # a run that printed no result line, as the benchmark does when it refuses
    run = ledger.run_side(buffer.getvalue(), tmp_path / "c",
                          [sys.executable, "qutbench/run.py"], "unknown", 5, 15)
    assert run == {"exit": 2, "stderr": "error: unknown workload\n", "result": None}
