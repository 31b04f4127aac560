"""Tests of the benchmark itself: each workload at a tiny size, each checker
against a deliberately wrong output, the reference kernel against qut's, and
the tracer's determinism.  Run from the repository root:

    python3 -m pytest -q qutbench
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from qut.circuit import random_circuit  # noqa: E402
from qut.simulator import run_statevector  # noqa: E402

ALPHA = 1e-6


def tiny(name: str, **sizes):
    wl = copy.copy(workloads.WORKLOADS[name])
    for key, value in sizes.items():
        setattr(wl, key, value)
    return wl


def one_round(wl, tmp_path, seed=3):
    inputs = wl.build(seed, 0, tmp_path / "r0")
    return [(inputs, wl.run(inputs))]


@pytest.fixture
def verdict_round(tmp_path):
    wl = tiny("verdict-1e7", SHOTS=10**4)
    return wl, one_round(wl, tmp_path)


@pytest.fixture
def desk_round(tmp_path):
    wl = tiny("desk-bench", ORIGINALS=4, REPETITIONS=2)
    return wl, one_round(wl, tmp_path)


@pytest.fixture
def wide_round(tmp_path):
    wl = tiny("wide-register", WIDTHS=(6,))
    return wl, one_round(wl, tmp_path)


@pytest.fixture
def shots_round(tmp_path):
    wl = tiny("shot-planning", WIDTHS=(1, 3))
    return wl, one_round(wl, tmp_path)


# -- reference ---------------------------------------------------------------

def test_reference_evolution_matches_qut():
    for seed in range(40):
        c = random_circuit(1 + seed % 5, 1 + seed % 7, seed=seed)
        assert np.allclose(ref.evolve(c), run_statevector(c).amplitudes, atol=1e-12)


def test_shots_agree_tolerates_only_rounding():
    s11 = 0.5
    assert ref.shots_agree(5, s11, 0.05)
    assert not ref.shots_agree(4, s11, 0.05) and not ref.shots_agree(6, s11, 0.05)
    near_one = 1.0 - 2.3e-8  # about 1.3e8 shots; sigma11 rounding moves it by one
    want = ref.planned_shots(near_one, 0.05)
    assert ref.shots_agree(want - 1, near_one, 0.05)
    assert not ref.shots_agree(want - 100, near_one, 0.05)


def test_diagonal_exponent_matches_closed_form_for_two_points():
    # equal-weight two-point case: minimum at s = 1/2
    p, q = np.array([0.2, 0.8]), np.array([0.8, 0.2])
    assert math.isclose(ref.diagonal_qcb_exponent(p, q), -math.log(2 * math.sqrt(0.16)),
                        abs_tol=1e-12)


def test_detection_law_rejects_far_counts():
    assert ref.detections_within_law(50, [0.5] * 100, ALPHA)[0]
    assert not ref.detections_within_law(10, [0.5] * 100, ALPHA)[0]


# -- each workload at a tiny size, and its checker on wrong outputs ----------

def test_verdict_round_passes_its_checks(verdict_round):
    wl, rounds = verdict_round
    assert rounds[0][1]["failed"] == 0
    assert wl.check(rounds, ALPHA) == []


def test_verdict_checker_rejects_flipped_verdicts(verdict_round):
    wl, rounds = verdict_round
    inputs, outputs = rounds[0]
    for i, run in enumerate(inputs["runs"]):
        bad = copy.deepcopy(rounds)
        out = bad[0][1]["verdicts"][i]
        if run["test"] in ("swap", "inverse") and run["label"] == "correct":
            out.update(outcome="fail", code=1, first_failure_shot=1)
        elif run["test"] == "statevector":
            out.update(outcome="pass" if out["outcome"] == "fail" else "fail", code=1 - out["code"])
        elif run["test"] in ("chi2", "g"):
            out.update(outcome="pass" if out["outcome"] == "fail" else "fail")
        else:
            continue
        assert wl.check(bad, ALPHA), run


def test_desk_round_fails_exactly_the_near_equivalent_rows(desk_round):
    wl, rounds = desk_round
    inputs, outputs = rounds[0]
    errors = [r for r in outputs["rows"] if r["verdict"] == "error"]
    assert {r["pair_id"] for r in errors} == {n["pair_id"] for n in inputs["near"]}
    assert outputs["failed"] == len(errors) == len(wl.NEAR_EQUIVALENT) * len(wl.TESTS)
    assert wl.check(rounds, ALPHA) == []
    assert wl.recheck(rounds) == []


def _first_row(rounds, **match):
    return next(r for r in rounds[0][1]["rows"] if all(r[k] == v for k, v in match.items()))


def test_desk_checker_rejects_wrong_rows(desk_round):
    wl, rounds = desk_round
    for mutate in (
        lambda rows: _first_row(rows, test="inverse", verdict="fail").update(
            shot_estimate=str(int(_first_row(rows, test="inverse", verdict="fail")["shot_estimate"]) + 1)),
        lambda rows: _first_row(rows, test="statevector", verdict="fail").update(verdict="pass"),
        lambda rows: _first_row(rows, test="swap", verdict="not_detected").update(
            shots_used=str(int(_first_row(rows, test="swap", verdict="not_detected")["shots_used"]) - 1)),
        lambda rows: _first_row(rows, verdict="error").update(verdict="pass"),
        lambda rows: _first_row(rows, test="chi2", verdict="fail").update(rank="9"),
    ):
        bad = copy.deepcopy(rounds)
        mutate(bad)
        assert wl.check(bad, ALPHA)


def test_desk_checker_rejects_missing_detections(desk_round):
    wl, rounds = desk_round
    bad = copy.deepcopy(rounds)
    for row in bad[0][1]["rows"]:
        if row["test"] == "inverse" and row["verdict"] == "fail":
            cap = max(min(wl.SHOT_CAP, math.ceil(2.0 * int(row["shot_estimate"]))), 1)
            row.update(verdict="not_detected", shots_used=str(cap))
    assert any("bench inverse" in e for e in wl.check(bad, ALPHA))


def test_desk_recheck_rejects_a_changed_csv(desk_round):
    wl, rounds = desk_round
    bad = copy.deepcopy(rounds)
    bad[0][1]["csv"] += "\n"
    assert wl.recheck(bad)


def test_wide_round_passes_its_checks(wide_round):
    wl, rounds = wide_round
    assert rounds[0][1]["failed"] == 0
    assert wl.check(rounds, ALPHA) == []


def test_wide_checker_rejects_a_passing_buggy_program(wide_round):
    wl, rounds = wide_round
    inputs, outputs = rounds[0]
    i = next(i for i, r in enumerate(inputs["runs"])
             if not r["pair"]["equivalent"] and r["test"] == "inverse")
    bad = copy.deepcopy(rounds)
    bad[0][1]["verdicts"][i].update(outcome="pass", code=0)
    bad[0][1]["verdicts"][i].pop("first_failure_shot", None)
    assert wl.check(bad, ALPHA)


def test_shots_round_passes_its_checks(shots_round):
    wl, rounds = shots_round
    assert rounds[0][1]["failed"] == 0
    assert wl.check(rounds, ALPHA) == []


def test_shots_checker_rejects_off_by_one_and_perturbed_exponents(shots_round):
    wl, rounds = shots_round
    bad = copy.deepcopy(rounds)
    plan = next(p for p in bad[0][1]["plans"] if "shots" in p)
    plan["shots"] += 1
    assert wl.check(bad, ALPHA)
    for k in (0, len(rounds[0][0]["pure"])):  # a pure and a diagonal pair
        bad = copy.deepcopy(rounds)
        bad[0][1]["exponents"][k] += 1e-6
        assert wl.check(bad, ALPHA)


# -- tracing ------------------------------------------------------------------

def test_traced_counts_repeat_and_originals_come_back(tmp_path):
    import qut.bench
    import qut.simulator

    original = qut.bench.sample_from_probs
    wl = tiny("desk-bench", ORIGINALS=2, REPETITIONS=2)
    inputs = wl.build(5, 0, tmp_path / "r0")
    metrics = []
    for _ in range(2):
        with Tracer() as tracer:
            wl.run(inputs)
        metrics.append({k: v for k, v in tracer.metrics().items() if not k.endswith("_s")})
    assert metrics[0] == metrics[1]
    assert metrics[0]["bench.min_shots_statistical.calls"] > 0
    assert qut.bench.sample_from_probs is original is qut.simulator.sample_from_probs


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "qutbench", tmp_path / "qutbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "qutbench/run.py", "--workload", "verdict-1e7",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_result_line_has_the_metrics_benchmark_json_names(tmp_path, monkeypatch):
    import contextlib
    import io

    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "ROOT", ROOT)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads.WORKLOADS["shot-planning"], "WIDTHS", (1, 2))
    monkeypatch.setattr(workloads.WORKLOADS["shot-planning"], "trace_rounds", 1)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "shot-planning", "--seed", "2", "--seconds", "0.2",
                             "--trace", str(trace)])
        assert code == 0
        line = json.loads(out.getvalue().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            k: v["unit"] for k, v in line["metrics"].items()}
