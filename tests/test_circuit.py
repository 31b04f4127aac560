import math

import numpy as np
import pytest

from qut.circuit import (
    Circuit,
    GateApplication,
    build_inverse_harness,
    build_swap_harness,
    compose,
    invert_circuit,
    random_circuit,
)
from qut.core import StateVector, fidelity
from qut.simulator import run_statevector


def bell():
    return Circuit(2, (GateApplication("h", (0,)),
                       GateApplication("cx", (0, 1))))


class TestGateApplication:
    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            GateApplication("cx", (0,))

    def test_duplicate_targets(self):
        with pytest.raises(ValueError):
            GateApplication("cx", (1, 1))

    def test_param_count(self):
        with pytest.raises(ValueError):
            GateApplication("rx", (0,))

    def test_custom_requires_unitary(self):
        with pytest.raises(ValueError):
            GateApplication("unitary", (0,),
                            matrix=np.array([[1, 0], [0, 0.5]], dtype=complex))

    def test_inverse_of_rx_negates(self):
        g = GateApplication("rx", (0,), (0.4,))
        assert g.inverse().params == (-0.4,)

    def test_inverse_of_s_is_sdg(self):
        assert GateApplication("s", (0,)).inverse().kind == "sdg"


class TestCircuit:
    def test_target_bound_check(self):
        with pytest.raises(IndexError):
            Circuit(1, (GateApplication("cx", (0, 1)),))
        with pytest.raises(IndexError, match="out of range"):
            GateApplication("x", (-1,))

    def test_appended_is_pure(self):
        c = bell()
        c2 = c.appended(GateApplication("x", (0,)))
        assert len(c.gates) == 2 and len(c2.gates) == 3

    def test_structural_equality(self):
        assert bell().structurally_equal(bell())
        assert not bell().structurally_equal(Circuit(2))


class TestInversion:
    def test_hadamard_self_inverse(self):
        c = Circuit(1, (GateApplication("h", (0,)),))
        inv = invert_circuit(c)
        assert inv.gates[0].kind == "h"

    def test_s_becomes_sdg(self):
        c = Circuit(1, (GateApplication("s", (0,)),))
        assert invert_circuit(c).gates[0].kind == "sdg"

    def test_order_reversed_and_params_negated(self):
        c = Circuit(2, (GateApplication("rx", (0,), (0.3,)),
                        GateApplication("cx", (0, 1))))
        inv = invert_circuit(c)
        assert [g.kind for g in inv.gates] == ["cx", "rx"]
        assert inv.gates[1].params == (-0.3,)

    def test_round_trip_identity_on_random_circuits(self):
        # c followed by invert(c) returns |0...0> for a large random family
        worst = 1.0
        for seed in range(200):
            n = 1 + seed % 5
            c = random_circuit(n, depth=1 + seed % 10, seed=seed)
            state = run_statevector(compose(c, invert_circuit(c)))
            worst = min(worst, fidelity(state, StateVector.zero(n)))
        assert worst >= 1.0 - 1e-10


class TestSwapHarness:
    def test_width_and_gate_count(self):
        a, e = bell(), bell()
        h = build_swap_harness(a, e)
        assert h.num_qubits == 2 * 2 + 1
        assert len(h.gates) == len(a.gates) + len(e.gates) + 2 + 2

    def test_single_qubit_tail_layout(self):
        h = build_swap_harness(Circuit(1, (GateApplication("h", (0,)),)),
                               Circuit(1))
        tail = h.gates[-3:]
        assert tail[0].kind == "h" and tail[0].targets == (0,)
        assert tail[1].kind == "cswap" and tail[1].targets == (0, 1, 2)
        assert tail[2].kind == "h" and tail[2].targets == (0,)

    def test_identical_preps_ancilla_zero(self):
        h = build_swap_harness(bell(), bell())
        state = run_statevector(h)
        p1 = sum(abs(a) ** 2 for i, a in enumerate(state.amplitudes) if i & 1)
        assert p1 < 1e-10

    def test_orthogonal_preps_ancilla_half(self):
        a = Circuit(1, (GateApplication("x", (0,)),))
        state = run_statevector(build_swap_harness(a, Circuit(1)))
        p1 = sum(abs(amp) ** 2 for i, amp in enumerate(state.amplitudes)
                 if i & 1)
        assert p1 == pytest.approx(0.5, abs=1e-10)

    def test_mismatched_width_rejected(self):
        with pytest.raises(ValueError):
            build_swap_harness(bell(), Circuit(1))


class TestInverseHarness:
    def test_correct_program_returns_all_zeros(self):
        h = build_inverse_harness(Circuit(1),
                                  Circuit(1, (GateApplication("h", (0,)),)),
                                  Circuit(1, (GateApplication("h", (0,)),)))
        state = run_statevector(h)
        assert fidelity(state, StateVector.zero(1)) >= 1.0 - 1e-10

    def test_statevector_expected_via_synthesis(self):
        target = StateVector.from_amplitudes(np.array([0, 1], dtype=complex))
        h = build_inverse_harness(Circuit(1),
                                  Circuit(1, (GateApplication("x", (0,)),)),
                                  target)
        state = run_statevector(h)
        assert fidelity(state, StateVector.zero(1)) >= 1.0 - 1e-10

    def test_buggy_program_leaks_probability(self):
        bug = np.array([[0.7066, 0.7076], [0.7076, -0.7066]])
        bug = bug / np.linalg.norm(bug[:, 0])
        u = Circuit(1, (GateApplication("unitary", (0,), matrix=bug),))
        h = build_inverse_harness(Circuit(1), u,
                                  Circuit(1, (GateApplication("h", (0,)),)))
        probs = run_statevector(h).probabilities()
        assert probs[1] > 0

    def test_mismatched_width_rejected_before_synthesis(self, monkeypatch):
        import qut.synth

        def refuse(*args, **kwargs):
            raise AssertionError("a state preparation was synthesized")

        monkeypatch.setattr(qut.synth, "synthesize_state_prep", refuse)
        with pytest.raises(ValueError):
            build_inverse_harness(Circuit(2), Circuit(2), StateVector.zero(3))
        with pytest.raises(ValueError):
            build_inverse_harness(Circuit(3), Circuit(2), StateVector.zero(2))
        with pytest.raises(ValueError):
            build_inverse_harness(Circuit(2), Circuit(2), Circuit(3))


class TestRandomCircuit:
    def test_deterministic(self):
        a = random_circuit(4, 6, seed=9)
        b = random_circuit(4, 6, seed=9)
        assert a.structurally_equal(b)

    def test_structurally_distinct_across_seeds(self):
        keys = {random_circuit(5, 10, seed=s).structural_key()
                for s in range(1000)}
        assert len(keys) == 1000

    def test_single_qubit_single_layer(self):
        c = random_circuit(1, 1, seed=0)
        assert len(c.gates) == 1
        assert c.gates[0].targets == (0,)

    def test_every_qubit_touched_once_per_layer(self):
        for seed in range(20):
            n, depth = 4, 3
            c = random_circuit(n, depth, seed=seed)
            used = [0] * n
            for g in c.gates:
                for t in g.targets:
                    used[t] += 1
            assert all(u == depth for u in used)

    def test_params_in_range(self):
        c = random_circuit(3, 10, seed=2)
        for g in c.gates:
            for p in g.params:
                assert 0.0 <= p < 2 * math.pi
