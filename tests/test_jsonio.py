import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qut.circuit import Circuit, GateApplication, random_circuit
from qut.jsonio import (
    CircuitJsonError,
    circuit_to_dict,
    emit_json,
    nearest_unitary,
    parse_json,
)
from qut.qasm import emit_qasm, parse_qasm
from qut.simulator import run_statevector
from test_qasm import first_same_object, first_same_parameterless_gate, repeated_gate_circuits


def test_x_gate_round_trip():
    c = Circuit(1, (GateApplication("x", (0,)),))
    assert parse_json(emit_json(c)).structurally_equal(c)


def test_empty_gate_list():
    c = parse_json(json.dumps({"num_qubits": 2, "gates": []}))
    assert c.num_qubits == 2 and len(c.gates) == 0


def test_perturbed_hadamard_loads_after_reunitarization():
    doc = {
        "num_qubits": 1,
        "gates": [{
            "kind": "unitary",
            "targets": [0],
            "matrix": [[[0.7066, 0], [0.7076, 0]],
                       [[0.7076, 0], [-0.7066, 0]]],
        }],
    }
    c = parse_json(json.dumps(doc))
    m = c.gates[0].matrix
    np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)
    # still within the original's neighborhood
    np.testing.assert_allclose(m.real, [[0.7066, 0.7076], [0.7076, -0.7066]],
                               atol=1e-4)


def test_large_defect_rejected():
    doc = {"num_qubits": 1,
           "gates": [{"kind": "unitary", "targets": [0],
                      "matrix": [[[1, 0], [0, 0]], [[0, 0], [0.5, 0]]]}]}
    with pytest.raises(CircuitJsonError):
        parse_json(json.dumps(doc))


def test_unitarity_defect_past_the_bound_is_projected():
    # defect 2e-6: past GateApplication's 1e-10, within the 1e-3 projection
    doc = {"num_qubits": 1,
           "gates": [{"kind": "unitary", "targets": [0],
                      "matrix": [[[1 + 1e-6, 0], [0, 0]], [[0, 0], [1, 0]]]}]}
    c = parse_json(json.dumps(doc))
    assert np.abs(c.gates[0].matrix - np.eye(2)).max() < 1e-6
    assert run_statevector(c).amplitudes[0] == pytest.approx(1.0)


@pytest.mark.parametrize("targets", [[0], [0, 0], [-1], [5]])
def test_unknown_kind_message_whatever_the_targets(targets):
    doc = {"num_qubits": 1, "gates": [{"kind": "bogus", "targets": targets}]}
    with pytest.raises(CircuitJsonError, match="^unknown gate kind 'bogus'$"):
        parse_json(json.dumps(doc))


def test_schema_violations():
    with pytest.raises(CircuitJsonError):
        parse_json(json.dumps({"gates": []}))
    with pytest.raises(CircuitJsonError):
        parse_json(json.dumps({"num_qubits": 1,
                               "gates": [{"kind": "h"}]}))
    with pytest.raises(CircuitJsonError):
        parse_json("not json at all {")


def test_nearest_unitary_of_scaled_unitary():
    q = np.array([[0, 1], [1, 0]], dtype=complex)
    np.testing.assert_allclose(nearest_unitary(1.7 * q), q, atol=1e-12)


def test_custom_gate_round_trip_preserves_matrix():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(a)
    c = Circuit(2, (GateApplication("unitary", (0, 1), matrix=q),))
    again = parse_json(emit_json(c))
    np.testing.assert_array_equal(again.gates[0].matrix, q)


def test_round_trip_random_circuits_bit_exact():
    for seed in range(200):
        c = random_circuit(1 + seed % 4, 1 + seed % 6, seed=seed)
        again = parse_json(emit_json(c))
        assert again.structurally_equal(c)
        for g, g2 in zip(c.gates, again.gates):
            assert g.params == g2.params


def test_simulated_equivalence_after_round_trip():
    c = random_circuit(3, 5, seed=17)
    s1 = run_statevector(c)
    s2 = run_statevector(parse_json(emit_json(c)))
    np.testing.assert_array_equal(s1.amplitudes, s2.amplitudes)


@given(repeated_gate_circuits())
@settings(max_examples=100, deadline=None)
def test_both_readers_share_one_object_per_repeated_parameterless_gate(c):
    again = parse_json(emit_json(c))
    assert again.structurally_equal(c)
    assert [g.params for g in again.gates] == [g.params for g in c.gates]
    assert (first_same_object(again) == first_same_object(parse_qasm(emit_qasm(c)))
            == first_same_parameterless_gate(c))


def test_custom_gates_and_separate_reads_share_no_object():
    x = GateApplication("unitary", (0,), matrix=np.array([[0, 1], [1, 0]], dtype=complex))
    text = emit_json(Circuit(2, (x, x, GateApplication("cx", (0, 1)), GateApplication("cx", (0, 1)))))
    first, second = parse_json(text), parse_json(text)
    assert first_same_object(first) == [0, 1, 2, 2]
    assert first.structurally_equal(second)
    assert not {id(g) for g in first.gates} & {id(g) for g in second.gates}


@pytest.mark.parametrize("twin, message", [
    ({"kind": "cx", "targets": [1, 1]}, "duplicate targets in cx: (1, 1)"),
    ({"kind": "cx", "targets": [0, 1], "params": [0.5]}, "gate 'cx' takes 0 parameter(s)"),
    ({"kind": "cx", "targets": [0, 2]}, "gate cx targets (0, 2) exceed register of 2 qubits"),
])
def test_bad_gate_after_a_valid_twin_is_rejected(twin, message):
    doc = {"num_qubits": 2, "gates": [{"kind": "cx", "targets": [0, 1]}, twin]}
    with pytest.raises(CircuitJsonError, match=f"^{re.escape(message)}$"):
        parse_json(json.dumps(doc))


# Values of every JSON type, including the non-finite numbers json.dumps
# writes as Infinity and NaN, for one-value edits of a circuit's object.
JSON_VALUES = [
    None, True, False, 0, 1, 2, -1, 0.5, 2**70, 1e300, float("inf"),
    float("nan"), "h", "cx", "unitary", "", [], [0], [0, 1], [[1]], [[0, 0]],
    [[[1, 0]]], {}, {"kind": "h", "targets": [0]},
]


def _slots(value):
    """(container, key) of every value nested in `value`."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield value, key
        yield from _slots(child)


@st.composite
def edited_circuit_objects(draw):
    circuit = random_circuit(draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                             seed=draw(st.integers(0, 2**32 - 1)))
    hadamard = GateApplication("unitary", (0,), matrix=np.array(
        [[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))
    data = circuit_to_dict(circuit.appended(hadamard))
    # half the edits land in the custom gate, the only one with a matrix
    container, key = draw(st.one_of(st.sampled_from(list(_slots(data))),
                                    st.sampled_from(list(_slots(data["gates"][-1])))))
    if draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(st.sampled_from(JSON_VALUES))
    return json.dumps(data)


@given(edited_circuit_objects())
@settings(max_examples=400, deadline=None)
def test_structured_fuzz_rejects_with_json_error_or_round_trips(text):
    try:
        c = parse_json(text)
    except CircuitJsonError:
        return
    assert parse_json(emit_json(c)).structurally_equal(c)
