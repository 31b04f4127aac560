import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qut import gates
from qut.circuit import Circuit, GateApplication, random_circuit
from qut.qasm import MAX_EXPR_DEPTH, QasmError, emit_qasm, parse_qasm

HEADER = "OPENQASM 2.0;\n"


def test_minimal_program():
    c = parse_qasm(HEADER + "qreg q[1];\nh q[0];\n")
    assert c.num_qubits == 1
    assert [g.kind for g in c.gates] == ["h"]


def test_include_line_ignored():
    c = parse_qasm(HEADER + 'include "qelib1.inc";\nqreg q[2];\ncx q[0], q[1];\n')
    assert c.gates[0].kind == "cx"


def test_parameter_expression_pi_over_180():
    c = parse_qasm(HEADER + "qreg q[3];\nrx(pi/180) q[2];\n")
    g = c.gates[0]
    assert g.kind == "rx" and g.targets == (2,)
    assert g.params[0] == pytest.approx(0.0174533, abs=1e-6)
    assert g.params[0] == math.pi / 180


def test_expression_precedence_and_unary():
    c = parse_qasm(HEADER + "qreg q[1];\nr(-pi/2 + 1*0.5, 2*(pi - 3)) q[0];\n")
    assert c.gates[0].params[0] == pytest.approx(-math.pi / 2 + 0.5)
    assert c.gates[0].params[1] == pytest.approx(2 * (math.pi - 3))


def test_expression_nesting_up_to_the_depth_limit():
    # each parenthesis and unary sign is one level; one past the limit is a
    # parse error, not a RecursionError
    def nested(opener, closer, depth):
        return f"{HEADER}qreg q[1];\nrz({opener * depth}1{closer * depth}) q[0];\n"

    for opener, closer in (("(", ")"), ("-", "")):
        assert parse_qasm(nested(opener, closer, MAX_EXPR_DEPTH)).gates[0].params == (1.0,)
        with pytest.raises(QasmError, match="nested deeper"):
            parse_qasm(nested(opener, closer, MAX_EXPR_DEPTH + 1))


def test_measurement_stripped_with_warning():
    src = HEADER + "qreg q[1];\ncreg c[1];\nh q[0];\nmeasure q -> c;\n"
    diags = []
    c = parse_qasm(src, diagnostics=diags)
    bare = parse_qasm(HEADER + "qreg q[1];\nh q[0];\n")
    assert c.structurally_equal(bare)
    assert any(d.severity == "warning" for d in diags)


def test_barrier_ignored():
    c = parse_qasm(HEADER + "qreg q[2];\nh q[0];\nbarrier q;\ncx q[0],q[1];\n")
    assert [g.kind for g in c.gates] == ["h", "cx"]


class TestErrors:
    def test_missing_header(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q[1];\nh q[0];\n")

    def test_unknown_gate(self):
        with pytest.raises(QasmError) as exc:
            parse_qasm(HEADER + "qreg q[1];\nfrobnicate q[0];\n")
        assert exc.value.diagnostic.line == 3

    def test_index_out_of_range(self):
        with pytest.raises(QasmError):
            parse_qasm(HEADER + "qreg q[2];\nh q[2];\n")

    def test_register_redeclaration(self):
        with pytest.raises(QasmError):
            parse_qasm(HEADER + "qreg q[1];\nqreg r[1];\n")

    def test_malformed_expression(self):
        with pytest.raises(QasmError):
            parse_qasm(HEADER + "qreg q[1];\nrx(pi//2) q[0];\n")

    def test_wrong_argument_count(self):
        with pytest.raises(QasmError):
            parse_qasm(HEADER + "qreg q[2];\ncx q[0];\n")

    @given(st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_never_crashes_on_garbage(self, data):
        try:
            parse_qasm(data.decode("utf-8", errors="replace"))
        except QasmError:
            pass


class TestEmit:
    def test_empty_circuit(self):
        out = emit_qasm(Circuit(2))
        assert "qreg q[2];" in out
        assert out.count(";") == 3  # header, include, qreg

    def test_statement_order(self):
        c = Circuit(2, (GateApplication("h", (0,)),
                        GateApplication("cx", (0, 1))))
        lines = [l for l in emit_qasm(c).splitlines() if l and "q[" in l]
        assert lines[-2].startswith("h ") and lines[-1].startswith("cx ")

    def test_custom_gate_rejected(self):
        m = np.eye(2, dtype=complex)
        c = Circuit(1, (GateApplication("unitary", (0,), matrix=m),))
        with pytest.raises(ValueError):
            emit_qasm(c)

    def test_parameter_bits_survive_round_trip(self):
        c = Circuit(1, (GateApplication("rx", (0,), (math.pi / 180,)),))
        again = parse_qasm(emit_qasm(c))
        assert again.gates[0].params[0] == math.pi / 180


def test_round_trip_1000_random_circuits():
    for seed in range(1000):
        c = random_circuit(1 + seed % 5, 1 + seed % 8, seed=seed)
        again = parse_qasm(emit_qasm(c))
        assert again.structurally_equal(c), seed
        for g, g2 in zip(c.gates, again.gates):
            assert g.params == g2.params  # exact bits


# The grammar's own tokens, so that programs built from them and one-token
# edits of emitted circuits reach every statement rule, not only the
# tokenizer that random bytes stop at.
GRAMMAR_TOKENS = [
    "OPENQASM", "2.0", "include", '"qelib1.inc"', "qreg", "creg", "measure",
    "barrier", *gates.CATALOG, "q[0]", "q[1]", "q[2]", "c[0]", "q", "c", "[",
    "]", "0", "1", "2", "0.5", ".5", "1e-3", "1e999", "pi", "+", "-", "*",
    "/", "(", ")", ",", ";", "->", "//", "\n",
]
_SEPARATORS = ["", " ", "\n"]


@st.composite
def token_programs(draw):
    prefix = draw(st.sampled_from(["", HEADER, HEADER + "qreg q[3];\n"]))
    parts = draw(st.lists(st.tuples(st.sampled_from(GRAMMAR_TOKENS),
                                    st.sampled_from(_SEPARATORS)), max_size=30))
    return prefix + "".join(tok + sep for tok, sep in parts)


@st.composite
def edited_programs(draw):
    circuit = random_circuit(draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                             seed=draw(st.integers(0, 2**32 - 1)))
    pieces = [p for p in re.split(r"(\s+|[;,()\[\]])", emit_qasm(circuit)) if p]
    at = draw(st.integers(0, len(pieces)))
    token = draw(st.sampled_from(GRAMMAR_TOKENS))
    edit = draw(st.sampled_from(["delete", "insert", "replace"]))
    if edit == "insert" or at == len(pieces):
        pieces.insert(at, token)
    else:
        pieces[at:at + 1] = [] if edit == "delete" else [token]
    return "".join(pieces)


@given(st.one_of(token_programs(), edited_programs()))
@settings(max_examples=400, deadline=None)
def test_structured_fuzz_rejects_with_qasm_error_or_round_trips(source):
    try:
        c = parse_qasm(source)
    except QasmError:
        return
    again = parse_qasm(emit_qasm(c))
    assert again.structurally_equal(c)
    assert [g.params for g in again.gates] == [g.params for g in c.gates]
