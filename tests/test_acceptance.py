"""Acceptance suite.

Each test covers one release criterion and reports a single pass/fail line
in the terminal summary.  The heavy criteria (1, 3, 5) take a few minutes
each; everything is seeded and deterministic.
"""

import math
import statistics

import numpy as np
import pytest

from qut import bench, mutation
from qut.circuit import Circuit, GateApplication, random_circuit
from qut.cli import main as cli_main
from qut.core import StateVector, fidelity
from qut.jsonio import emit_json, parse_json
from qut.qasm import emit_qasm, parse_qasm
from qut.shots import estimate_shots, qcb_exponent
from qut.simulator import run_statevector, sample_from_probs
from qut.synth import synthesize_state_prep
from qut.testing import (
    inverse_test,
    statevector_test,
    statistical_test,
    swap_test,
)

from conftest import record_acceptance
from oracles import (
    density_from_pure,
    inverse_harness,
    marginal_sample,
    random_statevector,
    same_structure,
    swap_harness,
)

H_CIRCUIT = Circuit(1, (GateApplication("h", (0,)),))
EMPTY_1Q = Circuit(1)

# The published buggy state for the perturbed-Hadamard example.  The
# perturbed matrix itself is only printed to four digits; the state below is
# the printed output state, renormalized, and is the fixture used for both
# the detection and shot-estimate anchors.
_BUG = np.array([0.7066, 0.7077])
BUG_STATE = StateVector.from_amplitudes((_BUG / np.linalg.norm(_BUG)).astype(complex))
BUG_PREP = synthesize_state_prep(BUG_STATE)
BUG_SIGMA11 = fidelity(BUG_STATE, run_statevector(H_CIRCUIT))


def _seed(tag: str, rep: int) -> int:
    return bench.mix_seed(2026, tag, "acceptance", rep)


class TestCriterion1MotivationalExample:
    """Detection statistics of all four families on the perturbed Hadamard
    at 10^7 shots over 200 seeded repetitions."""

    SHOTS = 10 ** 7
    REPS = 200

    def test_motivational_example_reproduction(self):
        counts = {}
        for kind in ("chi2", "g_test"):
            tp = sum(
                not statistical_test(EMPTY_1Q, BUG_PREP, H_CIRCUIT,
                                     self.SHOTS, 0.05, kind,
                                     _seed(f"pos-{kind}", r)).passed
                for r in range(self.REPS)
            )
            fp = sum(
                not statistical_test(EMPTY_1Q, H_CIRCUIT, H_CIRCUIT,
                                     self.SHOTS, 0.05, kind,
                                     _seed(f"neg-{kind}", r)).passed
                for r in range(self.REPS)
            )
            counts[kind] = (tp, fp)
        swap_tp = sum(
            not swap_test(EMPTY_1Q, BUG_PREP, H_CIRCUIT, self.SHOTS,
                          _seed("pos-swap", r)).passed
            for r in range(self.REPS)
        )
        swap_fp = sum(
            not swap_test(EMPTY_1Q, H_CIRCUIT, H_CIRCUIT, self.SHOTS,
                          _seed("neg-swap", r)).passed
            for r in range(self.REPS)
        )
        inv_tp = sum(
            not inverse_test(EMPTY_1Q, BUG_PREP, H_CIRCUIT, self.SHOTS,
                             _seed("pos-inv", r)).passed
            for r in range(self.REPS)
        )
        inv_fp = sum(
            not inverse_test(EMPTY_1Q, H_CIRCUIT, H_CIRCUIT, self.SHOTS,
                             _seed("neg-inv", r)).passed
            for r in range(self.REPS)
        )
        sv_tp = sum(
            not statevector_test(EMPTY_1Q, BUG_PREP, H_CIRCUIT).passed
            for _ in range(self.REPS)
        )
        sv_fp = sum(
            not statevector_test(EMPTY_1Q, H_CIRCUIT, H_CIRCUIT).passed
            for _ in range(self.REPS)
        )

        checks = [
            sv_tp == 200 and sv_fp == 0,
            inv_fp == 0 and inv_tp >= 198,
            swap_fp == 0 and 180 <= swap_tp <= 200,
            counts["chi2"][0] >= 195 and counts["g_test"][0] >= 195,
            0.005 <= counts["chi2"][1] / self.REPS <= 0.30,
            0.005 <= counts["g_test"][1] / self.REPS <= 0.30,
        ]
        detail = (
            f"sv {sv_tp}/200 fp {sv_fp}; inverse {inv_tp}/200 fp {inv_fp}; "
            f"swap {swap_tp}/200 fp {swap_fp}; "
            f"chi2 tp {counts['chi2'][0]} fp {counts['chi2'][1]}; "
            f"g tp {counts['g_test'][0]} fp {counts['g_test'][1]}"
        )
        record_acceptance(1, all(checks), detail)
        assert all(checks), detail


class TestCriterion2ShotAnchors:
    def test_shot_estimator_anchors(self):
        s_05 = estimate_shots(BUG_SIGMA11, 0.05).shots
        s_01 = estimate_shots(BUG_SIGMA11, 0.01).shots
        half = estimate_shots(0.5, 0.05).shots
        orth = estimate_shots(0.0, 0.05).shots
        ok = (
            abs(s_05 - 5.4e6) / 5.4e6 <= 0.10
            and abs(s_01 - 8.3e6) / 8.3e6 <= 0.10
            and half == 5
            and orth == 1
        )
        detail = (f"bug anchors {s_05} (target 5.4e6) / {s_01} (target 8.3e6); "
                  f"sigma11=0.5 -> {half}; sigma11=0 -> {orth}")
        record_acceptance(2, ok, detail)
        assert ok, detail


class TestCriterion3ZeroFalsePositives:
    """Swap and Inverse never fail on equivalent pairs: 10^4 random circuits
    paired with an independently synthesized preparation of their own
    output state, at 100 shots each."""

    @pytest.mark.slow
    def test_zero_false_positive_law(self):
        trials = 10 ** 4
        passes = 0
        for i in range(trials):
            n = 1 + i % 4
            c = random_circuit(n, 1 + i % 6, seed=i)
            prep = synthesize_state_prep(run_statevector(c))
            w = Circuit(n)
            if (swap_test(w, c, prep, 100, seed=i).passed
                    and inverse_test(w, c, prep, 100, seed=i).passed):
                passes += 1
        ok = passes == trials
        detail = f"{passes}/{trials} equivalent pairs passed swap+inverse"
        record_acceptance(3, ok, detail)
        assert ok, detail


class TestCriterion4QcbOracle:
    @pytest.mark.slow
    def test_numeric_matches_closed_form(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for n in range(1, 6):
            rho_zero = density_from_pure(StateVector.zero(n))
            for _ in range(100):
                psi = random_statevector(n, rng)
                sigma11 = float(abs(psi.amplitudes[0]) ** 2)
                if sigma11 <= 1e-12:
                    continue
                xi = qcb_exponent(rho_zero, density_from_pure(psi))
                worst = max(worst, abs(xi + math.log(sigma11)))
        from qut.core import DensityMatrix
        from qut.shots import qcb_trace_minimum
        argmins = []
        for s11 in (0.2, 0.5, 0.8):
            dm = DensityMatrix(np.diag([s11, 1 - s11]).astype(complex))
            _, argmin = qcb_trace_minimum(
                density_from_pure(StateVector.zero(1)), dm)
            argmins.append(argmin)
        ok = worst < 1e-9 and all(a <= 0.01 for a in argmins)
        detail = (f"closed-form deviation {worst:.2e} (limit 1e-9); "
                  f"diagonal argmins {argmins}")
        record_acceptance(4, ok, detail)
        assert ok, detail


class TestCriterion5DeskBenchmark:
    """Scaled mutation benchmark: 100 random circuits, QGD and RGI mutants,
    20 repetitions, 10^4-shot cap."""

    @pytest.mark.slow
    def test_desk_benchmark(self):
        pairs = []
        for i in range(100):
            n = 1 + i % 4
            original = random_circuit(n, 1 + i % 10, seed=i)
            mutants = mutation.mutate_qgd(original)
            mutants += mutation.mutate_rgi(original, seed=i, count=3)
            for j, rec in enumerate(mutation.filter_equivalent(original, mutants)):
                pairs.append(bench.CorpusPair(f"c{i:03d}m{j:03d}",
                                              original, rec.circuit))
        config = bench.ExperimentConfig(
            tests=("chi2", "swap", "inverse", "statevector"),
            repetitions=20, shot_cap_absolute=10 ** 4, base_seed=11,
        )
        rows = bench.run_benchmark(pairs, config)
        metrics = bench.compute_metrics(rows)

        recall = {t: metrics[t]["recall"] for t in metrics}
        medians = {}
        for test in ("chi2", "swap", "inverse"):
            detected = [r.shots_used for r in rows
                        if r.test == test and r.verdict == "fail"]
            medians[test] = statistics.median(detected)

        rank1 = {t: 0 for t in ("chi2", "swap", "inverse")}
        for r in rows:
            if r.rank == 1 and r.test in rank1:
                rank1[r.test] += 1

        checks = [
            recall["statevector"] == 1.0,
            recall["statevector"] >= recall["inverse"] >= recall["swap"]
            >= recall["chi2"],
            medians["inverse"] < medians["swap"] < medians["chi2"],
            rank1["inverse"] >= max(rank1["chi2"], rank1["swap"]),
        ]
        detail = (
            f"{len(pairs)} pairs; recall sv {recall['statevector']:.3f} "
            f"inv {recall['inverse']:.3f} swap {recall['swap']:.3f} "
            f"chi2 {recall['chi2']:.3f}; median shots inv {medians['inverse']} "
            f"swap {medians['swap']} chi2 {medians['chi2']}; "
            f"rank-1 counts {rank1}"
        )
        record_acceptance(5, all(checks), detail)
        assert all(checks), detail


class TestCriterion6EmpiricalLaws:
    """Per-shot failure statistics match the analytic overlap laws on 50
    random pairs at 10^5 shots."""

    SHOTS = 10 ** 5

    def test_empirical_law_checks(self):
        rng = np.random.default_rng(6)
        inverse_ok = swap_ok = 0
        for i in range(50):
            n = 1 + i % 3
            u = random_circuit(n, 2 + i % 4, seed=1000 + i)
            expected = random_statevector(n, rng)
            f = fidelity(run_statevector(u), expected)
            prep = synthesize_state_prep(expected)

            harness = inverse_harness(Circuit(n), u, prep)
            probs = run_statevector(harness).probabilities()
            vals = sample_from_probs(probs, self.SHOTS, seed=i)
            p_fail = 1.0 - f
            sig = math.sqrt(max(p_fail * (1 - p_fail) / self.SHOTS, 1e-30))
            if abs((vals != 0).mean() - p_fail) <= 5 * sig + 1e-4:
                inverse_ok += 1

            sw = swap_harness(u, prep)
            ones = marginal_sample(sw, 0, self.SHOTS, seed=i).mean()
            p_one = 0.5 - 0.5 * f
            sig = math.sqrt(max(p_one * (1 - p_one) / self.SHOTS, 1e-30))
            if abs(ones - p_one) <= 5 * sig + 1e-4:
                swap_ok += 1
        ok = inverse_ok == 50 and swap_ok == 50
        detail = (f"inverse law {inverse_ok}/50 within 5 sigma; "
                  f"swap law {swap_ok}/50 within 5 sigma")
        record_acceptance(6, ok, detail)
        assert ok, detail


class TestCriterion7ShotCurve:
    def test_curve_shape(self):
        grid = np.linspace(0.001, 0.999, 200)
        by_pe = {p_e: [estimate_shots(s11, p_e).shots for s11 in grid]
                 for p_e in (0.001, 0.01, 0.05)}
        monotone_sigma = all(
            all(a <= b for a, b in zip(col, col[1:]))
            for col in by_pe.values()
        )
        monotone_pe = all(
            a >= b >= c
            for a, b, c in zip(by_pe[0.001], by_pe[0.01], by_pe[0.05])
        )
        ref = estimate_shots(0.5, 0.05).shots
        ok = monotone_sigma and monotone_pe and ref == 5
        detail = (f"N(0.5, 0.05) = {ref}; monotone in sigma11 "
                  f"{monotone_sigma}, in p_e {monotone_pe} over 200 points")
        record_acceptance(7, ok, detail)
        assert ok, detail


class TestCriterion8Infrastructure:
    def test_infrastructure_properties(self, tmp_path):
        # bit-exact serialization round trips
        qasm_ok = json_ok = 0
        for seed in range(1000):
            c = random_circuit(1 + seed % 5, 1 + seed % 8, seed=seed)
            q = parse_qasm(emit_qasm(c))
            j = parse_json(emit_json(c))
            if same_structure(q, c) and all(
                    a.params == b.params for a, b in zip(c.gates, q.gates)):
                qasm_ok += 1
            if same_structure(j, c) and all(
                    a.params == b.params for a, b in zip(c.gates, j.gates)):
                json_ok += 1

        # benchmark CSV determinism
        bell = Circuit(2, (GateApplication("h", (0,)),
                           GateApplication("cx", (0, 1))))
        broken = Circuit(2, (GateApplication("h", (0,)),))
        corpus = [bench.CorpusPair("p0", bell, broken)]
        cfg = bench.ExperimentConfig(repetitions=5)
        csv_a = bench.rows_to_csv(bench.run_benchmark(corpus, cfg))
        csv_b = bench.rows_to_csv(bench.run_benchmark(corpus, cfg))
        csv_ok = csv_a == csv_b

        # CLI exit-code contract
        good = tmp_path / "good.qasm"
        good.write_text(emit_qasm(bell))
        bad_prog = tmp_path / "bad.qasm"
        bad_prog.write_text("OPENQASM 2.0;\nqreg q[1];\nwat q[0];\n")
        codes = (
            cli_main(["run", "--program", str(good), "--expected", str(good),
                      "--test", "statevector"]),
            cli_main(["run", "--program", str(good),
                      "--expected", str(tmp_path / "other.qasm"),
                      "--test", "statevector"]),
            cli_main(["run", "--program", str(good)]),
            cli_main(["run", "--program", str(bad_prog),
                      "--expected", str(good), "--test", "statevector"]),
        )
        exit_ok = codes == (0, 3, 2, 3)

        ok = qasm_ok == 1000 and json_ok == 1000 and csv_ok and exit_ok
        detail = (f"qasm round-trip {qasm_ok}/1000, json {json_ok}/1000, "
                  f"csv deterministic {csv_ok}, exit codes {codes}")
        record_acceptance(8, ok, detail)
        assert ok, detail
