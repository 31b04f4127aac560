import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from qut.circuit import Circuit, GateApplication, random_circuit
from qut.core import StateVector, fidelity
from qut.simulator import run_statevector
from qut.synth import synthesize_state_prep
from qut.testing import (
    failure_probability,
    inverse_test,
    statevector_test,
    statevector_verdict,
    swap_test,
)

from oracles import inverse_harness, random_statevector, swap_harness

H_CIRCUIT = Circuit(1, (GateApplication("h", (0,)),))
X_CIRCUIT = Circuit(1, (GateApplication("x", (0,)),))
EMPTY_1Q = Circuit(1)
# Just outside the same-state predicate: 1 - F = sin^2(asin(1e-3)) = 1e-6.
NEAR_1Q = Circuit(1, (GateApplication("ry", (0,), (2 * math.asin(1e-3),)),))


class TestSwapTest:
    def test_identical_states_always_pass(self):
        for seed in range(50):
            v = swap_test(EMPTY_1Q, H_CIRCUIT, H_CIRCUIT, 200, seed=seed)
            assert v.passed

    def test_orthogonal_states_fail_quickly(self):
        # per-shot detection probability is 0.5; ten shots almost surely fail
        fails = sum(
            not swap_test(EMPTY_1Q, X_CIRCUIT, EMPTY_1Q, 10, seed=s).passed
            for s in range(200)
        )
        assert fails >= 190
        # a pair with 1 - F = 1e-6 still draws its shots: a verdict at 2e6
        # shots fails with chance 1 - (1 - (1 - F)/2)^shots, about 0.63, and
        # the failures over 100 seeds lie within that binomial's 1e-6 tails
        shots, seeds = 2 * 10 ** 6, 100
        p_one = (1.0 - fidelity(run_statevector(NEAR_1Q), StateVector.zero(1))) / 2
        alarms = stats.binom(seeds, -math.expm1(shots * math.log1p(-p_one)))
        fails = sum(
            not swap_test(EMPTY_1Q, NEAR_1Q, EMPTY_1Q, shots, seed=s).passed
            for s in range(seeds)
        )
        assert alarms.ppf(1e-6) <= fails <= alarms.isf(1e-6)

    def test_failure_records_first_shot(self):
        v = swap_test(EMPTY_1Q, X_CIRCUIT, EMPTY_1Q, 100, seed=1)
        assert not v.passed and v.first_failure_shot >= 1

    def test_statevector_expected_accepted(self):
        target = run_statevector(H_CIRCUIT)
        v = swap_test(EMPTY_1Q, H_CIRCUIT, target, 100, seed=0)
        assert v.passed

    def test_memory_bounded_at_1e8_shots(self):
        # the first failing shot is one geometric draw, never an array of
        # per-shot draws.  h passes the same-state predicate and draws
        # nothing; h; rz(2e-9) deviates by 1.4e-9, so it fails the predicate,
        # but its F rounds to 1, so q = 0 and it draws nothing either.
        # h; ry(2 asin(1e-6)) has 1 - F = 1e-12 and fails within 10^18 shots
        near = H_CIRCUIT.appended(GateApplication("rz", (0,), (2e-9,)))
        far = H_CIRCUIT.appended(
            GateApplication("ry", (0,), (2 * math.asin(1e-6),)))
        for program, shots in ((H_CIRCUIT, 10 ** 8), (near, 10 ** 8),
                               (far, 10 ** 18)):
            tracemalloc.start()
            try:
                v = swap_test(EMPTY_1Q, program, H_CIRCUIT, shots, seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert v.passed == (program is not far)
            assert peak < 16 * 2 ** 20
        assert v.failure_probability == pytest.approx(5e-13, rel=1e-6)
        assert 1 <= v.first_failure_shot <= 10 ** 18

    def test_no_false_positives_on_random_equivalent_pairs(self):
        for seed in range(100):
            c = random_circuit(3, 4, seed=seed)
            prep = synthesize_state_prep(run_statevector(c))
            v = swap_test(Circuit(3), c, prep, 100, seed=seed)
            assert v.passed, seed


class TestStatevectorTest:
    def test_correct_program_passes(self):
        v = statevector_test(EMPTY_1Q, H_CIRCUIT, H_CIRCUIT)
        assert v.passed and v.max_amplitude_deviation <= 1e-10

    def test_perturbed_hadamard_fails(self):
        bug = np.array([0.7066, 0.7077])
        bug = StateVector.from_amplitudes((bug / np.linalg.norm(bug)).astype(complex))
        v = statevector_test(EMPTY_1Q, H_CIRCUIT, bug)
        assert not v.passed
        assert v.max_amplitude_deviation == pytest.approx(6e-4, abs=3e-4)

    def test_global_phase_mode_vs_strict(self):
        target = run_statevector(H_CIRCUIT)
        phased = StateVector.from_amplitudes(target.amplitudes * np.exp(0.3j))
        assert statevector_test(EMPTY_1Q, H_CIRCUIT, phased,
                                mode="global_phase").passed
        assert not statevector_test(EMPTY_1Q, H_CIRCUIT, phased,
                                    mode="strict").passed

    def test_qubit_guard(self):
        with pytest.raises(ValueError):
            statevector_test(Circuit(30), Circuit(30), Circuit(30))

    def test_verdict_carries_the_pairs_fidelity(self):
        # bit for bit the value the mutant filter, the shot planner, the
        # bench and the swap and inverse verdicts read from it
        rng = np.random.default_rng(12)
        for n in (1, 2, 3):
            a, b = random_statevector(n, rng), random_statevector(n, rng)
            for actual, expected in ((a, b), (b, a), (a, a)):
                for mode in ("global_phase", "strict"):
                    v = statevector_verdict(actual, expected, mode=mode)
                    assert v.fidelity == fidelity(actual, expected)
        assert statevector_test(EMPTY_1Q, X_CIRCUIT, EMPTY_1Q).fidelity == 0.0

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            statevector_test(EMPTY_1Q, H_CIRCUIT, H_CIRCUIT, mode="fuzzy")


class TestInverseTest:
    def test_correct_program_always_passes(self):
        for seed in range(50):
            assert inverse_test(EMPTY_1Q, H_CIRCUIT, H_CIRCUIT, 500,
                                seed=seed).passed

    def test_orthogonal_fails_at_shot_one(self):
        v = inverse_test(EMPTY_1Q, X_CIRCUIT,
                         StateVector.zero(1), 10, seed=0)
        assert not v.passed and v.first_failure_shot == 1

    def test_statevector_expected(self):
        target = StateVector.from_amplitudes(np.array([0, 1], dtype=complex))
        assert inverse_test(EMPTY_1Q, X_CIRCUIT, target, 100, seed=0).passed

    def test_per_shot_failure_rate_matches_infidelity(self):
        # failure probability per shot is 1 - |<psi_E|psi_A>|^2
        rng = np.random.default_rng(21)
        shots = 10 ** 5
        for trial in range(10):
            n = int(rng.integers(1, 4))
            u = random_circuit(n, 3, seed=trial)
            expected = random_statevector(n, rng)
            from qut.simulator import sample_from_probs
            harness = inverse_harness(Circuit(n), u, synthesize_state_prep(expected))
            probs = run_statevector(harness).probabilities()
            vals = sample_from_probs(probs, shots, seed=trial)
            f = fidelity(run_statevector(u), expected)
            p_fail = 1.0 - f
            observed = (vals != 0).mean()
            sigma = math.sqrt(max(p_fail * (1 - p_fail) / shots, 1e-30))
            assert abs(observed - p_fail) <= 5 * sigma + 1e-4

    def test_monotone_detection_in_shots(self):
        bug = np.array([0.7066, 0.7077])
        bug_prep = synthesize_state_prep(
            StateVector.from_amplitudes((bug / np.linalg.norm(bug)).astype(complex)))
        rates = []
        for shots in (10 ** 3, 10 ** 5, 10 ** 7):
            fails = sum(
                not inverse_test(EMPTY_1Q, bug_prep, H_CIRCUIT, shots,
                                 seed=s).passed
                for s in range(50)
            )
            rates.append(fails)
        assert rates[0] <= rates[1] <= rates[2]


class TestHarnessOracle:
    """The per-shot laws the swap and inverse verdicts draw from are exactly
    the outcome laws of the circuits they stand for, the oracle's harnesses."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_harness_outcome_laws_are_failure_probability(self, n, depth, equal, seed):
        u = random_circuit(n, depth, seed)
        actual = run_statevector(u)
        expected = actual if equal else random_statevector(n, np.random.default_rng(seed))
        prep = synthesize_state_prep(expected)
        f = fidelity(actual, expected)
        swap_probs = run_statevector(swap_harness(u, prep)).probabilities()
        assert abs(swap_probs[1::2].sum() - failure_probability("swap", f)) <= 1e-12
        inverse_probs = run_statevector(inverse_harness(Circuit(n), u, prep)).probabilities()
        assert abs(1.0 - inverse_probs[0] - failure_probability("inverse", f)) <= 1e-12
