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


def _runs(tmp_path, rows):
    """Ledger runs whose results are read back from result files as the
    benchmark writes them."""
    runs = []
    for workload, seed, side, result in rows:
        path = tmp_path / f"{side}-{seed}" / f"result-{workload}-s{seed}-t0.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(result, indent=2) + "\n")
        runs.append({"workload": workload, "seed": seed, "side": side,
                     "result": json.loads(path.read_text())})
    return runs


def test_summary_has_medians_quartiles_and_wins(tmp_path):
    parent_ops, change_ops = [100, 110, 120, 130, 140], [150, 105, 160, 170, 180]
    rows = []
    for seed, (p, c) in enumerate(zip(parent_ops, change_ops)):
        rows.append(("verdict-1e7", seed, "parent", _result(p, 120.0, 0.04)))
        rows.append(("verdict-1e7", seed, "change",
                     _result(c, 125.0, 0.04, failed=seed == 0, correct=seed != 1)))
    rows.append(("desk-bench", 7, "parent", _result(50, 140.0, 0.03)))
    rows.append(("desk-bench", 7, "change", None))  # the run wrote no result
    summary = ledger.summarize(_runs(tmp_path, rows), END_TO_END)

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


@pytest.mark.parametrize("runs", [[], [{"seed": 1, "result": None},
                                       {"seed": 2, "result": {"raw": {"rounds": [{"ops": 3}]}}}]])
def test_dump_reads_back_as_written(runs):
    ledger_ = {"commits": {"parent": "a", "change": "b"}, "summary": {"w": {"pairs": 0}},
               "runs": runs}
    text = ledger.dump(ledger_)
    assert json.loads(text) == ledger_
    lines = [line.rstrip(",") for line in text.splitlines()]
    assert all("    " + json.dumps(run) in lines for run in runs)


def test_one_pair_reads_its_own_values_as_quartiles(tmp_path):
    rows = [("shot-planning", 3, "parent", _result(10, 100.0, 0.05)),
            ("shot-planning", 3, "change", _result(10, 90.0, 0.06))]
    entry = ledger.summarize(_runs(tmp_path, rows), END_TO_END)["shot-planning"]
    assert entry["change"]["peak_rss_mb"] == {"median": 90.0, "q1": 90.0, "q3": 90.0}
    assert entry["change_wins"] == {"ops_per_s": 0, "peak_rss_mb": 1, "setup_s": 0}


FAKE_RUN = """
import argparse, json, os, sys
from pathlib import Path
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
out = Path("qutbench/out")
fresh = not out.exists()
out.mkdir(parents=True, exist_ok=True)
(out / f"result-{a.workload}-s{a.seed}-t{a.trace}.json").write_text(json.dumps(
    {"seconds": a.seconds, "fresh": fresh, "no_bytecode": os.environ["PYTHONDONTWRITEBYTECODE"]}))
print("check failed: canned", file=sys.stderr)
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
                       "result": {"seconds": "15", "fresh": True, "no_bytecode": "1"}}
