import numpy as np
import pytest

from qut.circuit import random_circuit
from qut.core import StateVector, fidelity, global_phase_aligned
from qut.simulator import run_statevector
from qut.synth import synthesize_state_prep

from oracles import random_statevector


def test_zero_state_gives_empty_circuit():
    c = synthesize_state_prep(StateVector.zero(3))
    assert len(c.gates) == 0


def test_one_state_equivalent_to_x():
    target = StateVector.from_amplitudes(np.array([0, 1], dtype=complex))
    c = synthesize_state_prep(target)
    out = run_statevector(c)
    assert fidelity(out, target) >= 1.0 - 1e-10


def test_plus_state():
    target = StateVector.from_amplitudes(
        np.array([1, 1], dtype=complex) / np.sqrt(2))
    out = run_statevector(synthesize_state_prep(target))
    assert fidelity(out, target) >= 1.0 - 1e-10


def _dense_counts(n):
    """(rotations, cx) in the preparation of a dense n-qubit state."""
    return 2 * (2**n - 1), max(2**(n + 1) - 4, 0)


def _assert_prepares(circuit, target):
    # fidelity alone would not catch phase errors on separable parts;
    # check amplitudes after global-phase alignment
    out = run_statevector(circuit)
    aligned = global_phase_aligned(out.amplitudes, target.amplitudes)
    np.testing.assert_allclose(aligned, target.amplitudes, rtol=0, atol=1e-12)


def _counts(circuit):
    cx = sum(g.kind == "cx" for g in circuit.gates)
    return len(circuit.gates) - cx, cx


def test_random_states_all_widths():
    # a uniformly controlled rotation with k controls costs 2^k cx; at 12
    # qubits that is 8,190 rotations and 8,188 cx
    rng = np.random.default_rng(0)
    for n in range(1, 13):
        for _ in range(100 if n <= 5 else 1):
            target = random_statevector(n, rng)
            c = synthesize_state_prep(target)
            assert c.name == "state_prep"
            assert _counts(c) == _dense_counts(n)
            _assert_prepares(c, target)


def test_relative_phases_preserved():
    rng = np.random.default_rng(4)
    for _ in range(20):
        target = random_statevector(3, rng)
        _assert_prepares(synthesize_state_prep(target), target)


def _sparse_states():
    for n in range(1, 5):
        for k in range(2**n):
            yield StateVector.from_amplitudes(np.eye(2**n, dtype=complex)[k])
    for n in range(1, 9):
        ghz = np.zeros(2**n, dtype=complex)
        ghz[[0, -1]] = 1 / np.sqrt(2)
        yield StateVector.from_amplitudes(ghz)
        w = np.zeros(2**n, dtype=complex)
        w[[1 << q for q in range(n)]] = 1 / np.sqrt(n)
        yield StateVector.from_amplitudes(w)
    # an all-zero half multiplexor inside a nonzero one is a lone cx,
    # not nothing: random_circuit(3, 4, seed=3) needs it
    yield run_statevector(random_circuit(3, 4, seed=3))
    for s in range(200):
        yield run_statevector(random_circuit(1 + s % 8, 1 + s % 6, seed=s))


def test_sparse_states_exact_and_no_larger_than_dense():
    for target in _sparse_states():
        c = synthesize_state_prep(target)
        _assert_prepares(c, target)
        rotations, cx = _dense_counts(target.num_qubits)
        assert len(c.gates) <= rotations + cx
        assert _counts(c)[1] <= cx


def test_bell_state_synthesis():
    target = StateVector.from_amplitudes(
        np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    out = run_statevector(synthesize_state_prep(target))
    assert fidelity(out, target) >= 1.0 - 1e-10
