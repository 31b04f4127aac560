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


def _runs(rows, round_s=()):
    """Ledger runs holding the given result lines and, in order, the given
    in-process round times."""
    runs = [{"workload": workload, "seed": seed, "side": side, "result": result}
            for workload, seed, side, result in rows]
    for run, seconds in zip(runs, round_s):
        run["inprocess_round_s"] = seconds
    return runs


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


def test_summary_has_inprocess_round_medians_and_their_ratio():
    rows, round_s = [], []
    for seed in range(5):
        rows += [("verdict-1e7", seed, "parent", _result(100, 120.0, 0.04)),
                 ("verdict-1e7", seed, "change", _result(96, 120.0, 0.04))]
        round_s += [0.010 + 0.001 * seed, 0.011 + 0.001 * seed]
    # a pair without its change's result line counts on neither side
    rows += [("verdict-1e7", 9, "parent", _result(100, 120.0, 0.04)),
             ("verdict-1e7", 9, "change", None)]
    round_s += [1.0, 1.0]
    # a probe that failed leaves its side without a time, and the ratio out
    rows += [("desk-bench", 1, "parent", _result(50, 140.0, 0.03)),
             ("desk-bench", 1, "change", _result(50, 140.0, 0.03))]
    round_s += [0.5, None]
    summary = ledger.summarize(_runs(rows, round_s), END_TO_END)

    verdict = summary["verdict-1e7"]
    assert verdict["parent"]["inprocess_round_s"]["median"] == pytest.approx(0.012)
    assert verdict["change"]["inprocess_round_s"]["median"] == pytest.approx(0.013)
    assert verdict["change"]["inprocess_round_s"]["q1"] == pytest.approx(0.012)
    assert verdict["median_ratio"]["inprocess_round_s"] == pytest.approx(0.013 / 0.012)
    desk = summary["desk-bench"]
    assert "inprocess_round_s" in desk["parent"] and "inprocess_round_s" not in desk["change"]
    assert "inprocess_round_s" not in desk["median_ratio"]


def test_one_pair_reads_its_own_values_as_quartiles():
    rows = [("shot-planning", 3, "parent", _result(10, 100.0, 0.05)),
            ("shot-planning", 3, "change", _result(10, 90.0, 0.06))]
    entry = ledger.summarize(_runs(rows), END_TO_END)["shot-planning"]
    assert entry["change"]["peak_rss_mb"] == {"median": 90.0, "q1": 90.0, "q3": 90.0}
    assert entry["change_wins"] == {"ops_per_s": 0, "peak_rss_mb": 1, "setup_s": 0}


def _paired(parent_ops, change_ops, parent_rss=100.0, change_rss=100.0):
    rows = []
    for seed, (p, c) in enumerate(zip(parent_ops, change_ops)):
        rows.append(("wide-register", seed, "parent", _result(p, parent_rss, 0.04)))
        rows.append(("wide-register", seed, "change", _result(c, change_rss, 0.04)))
    return ledger.summarize(_runs(rows), END_TO_END)["wide-register"]


def test_a_tie_meets_no_gain_and_stays_within_bound():
    entry = _paired([30.0] * 10, [30.0] * 10)
    assert entry["change_wins"] == {"ops_per_s": 0, "peak_rss_mb": 0, "setup_s": 0}
    assert entry["gain_met"] == {"ops_per_s": False, "peak_rss_mb": False, "setup_s": False}
    assert entry["within_bound"] == {"ops_per_s": True, "peak_rss_mb": True, "setup_s": True}


def test_a_gain_needs_nine_of_ten_pairs_and_a_median_past_the_parents_spread():
    parent = [30.0 + i for i in range(10)]  # quartiles 32.25 and 36.75
    # 10/10 pairs, but a gain of 4 inside the parent's spread of 4.5
    assert not _paired(parent, [p + 4 for p in parent])["gain_met"]["ops_per_s"]
    # 10/10 pairs and a gain of 5 past it
    assert _paired(parent, [p + 5 for p in parent])["gain_met"]["ops_per_s"]
    # 9/10 pairs is enough, 8/10 is not
    nine = [p + 10 for p in parent[:9]] + [parent[9] - 1]
    assert _paired(parent, nine)["change_wins"]["ops_per_s"] == 9
    assert _paired(parent, nine)["gain_met"]["ops_per_s"]
    eight = [p + 10 for p in parent[:8]] + [parent[8], parent[9] - 1]
    assert _paired(parent, eight)["change_wins"]["ops_per_s"] == 8
    assert not _paired(parent, eight)["gain_met"]["ops_per_s"]


def test_a_loss_inside_the_bound_is_within_it_and_one_past_it_is_not():
    # ops_per_s may lose 25%, peak_rss_mb 15% (BENCHMARK.json)
    inside = _paired([40.0] * 10, [30.5] * 10, 100.0, 114.0)
    assert inside["within_bound"] == {"ops_per_s": True, "peak_rss_mb": True, "setup_s": True}
    assert inside["gain_met"] == {"ops_per_s": False, "peak_rss_mb": False, "setup_s": False}
    past = _paired([40.0] * 10, [29.5] * 10, 100.0, 116.0)
    assert past["within_bound"] == {"ops_per_s": False, "peak_rss_mb": False, "setup_s": True}


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
# `nominal_duration` reads the number of rounds run so far, so the probe's
# median says whether it warmed up with one round first
FAKE_CLOCK = """
import workloads
def nominal_duration(fn):
    fn()
    return float(workloads.RUNS)
"""
FAKE_WORKLOADS = """
RUNS = 0
class Workload:
    def build(self, seed, index, root):
        assert (seed, index) == (5, 0) and root.is_absolute()
        root.mkdir()
        return {"root": root}
    def run(self, inputs):
        global RUNS
        assert inputs["root"].is_dir()
        RUNS += 1
WORKLOADS = {"verdict-1e7": Workload()}
"""


def test_run_side_unpacks_runs_and_copies_the_result(tmp_path):
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w") as tar:
        for name, text in (("run", FAKE_RUN), ("clock", FAKE_CLOCK),
                           ("workloads", FAKE_WORKLOADS)):
            data = text.encode()
            info = tarfile.TarInfo(f"qutbench/{name}.py")
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    for root in (tmp_path / "a", tmp_path / "b"):
        run = ledger.run_side(buffer.getvalue(), root, [sys.executable, "qutbench/run.py"],
                              "verdict-1e7", 5, 15)
        # one warm-up round, then rounds 2 to 6 timed: their median is 4
        assert run == {"exit": 1, "stderr": "check failed: canned\n",
                       "result": {"seconds": "15", "trace": "0", "fresh": True,
                                  "no_bytecode": "1"},
                       "inprocess_round_s": 4.0}
    # a run that printed no result line, as the benchmark does when it
    # refuses, and whose in-process probe fails too
    run = ledger.run_side(buffer.getvalue(), tmp_path / "c",
                          [sys.executable, "qutbench/run.py"], "unknown", 5, 15)
    assert run == {"exit": 2, "stderr": "error: unknown workload\n", "result": None,
                   "inprocess_round_s": None}


def test_line_delta_sums_numstat_lines():
    numstat = ("10\t13\tsrc/qut/bench.py\n"
               "5\t16\tsrc/qut/circuit.py\n"
               "-\t-\tsrc/qut/logo.png\n"
               "0\t7\tsrc/qut/old name.py\n")
    assert ledger.line_delta(numstat) == {"added": 15, "deleted": 36, "net": -21}
    assert ledger.line_delta("") == {"added": 0, "deleted": 0, "net": 0}
