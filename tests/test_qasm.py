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


@pytest.mark.parametrize("include", ['include\n"qelib1.inc";',
                                     'include\r\n"qe\nlib1.inc"\r;'])
def test_lines_after_a_multiline_include_keep_their_numbers(include):
    # the include's line breaks must survive its removal, or the error is
    # reported lines early
    frob_line = len(f"{HEADER}{include}".splitlines()) + 2
    with pytest.raises(QasmError, match=rf"^line {frob_line}, col 1: unknown gate"):
        parse_qasm(f"{HEADER}{include}\nqreg q[1];\nfrob q[0];")


def test_a_lone_carriage_return_before_an_include_stays_a_line_break():
    # dropping the include must not join the "\r" before it and the "\n"
    # after it into one CRLF line break
    source = 'OPENQASM 2.0;\n\rinclude "qelib1.inc";\nqreg q[1];\nfrob q[0];\n'
    assert len(source[:source.index("frob")].splitlines()) + 1 == 5
    with pytest.raises(QasmError, match=r"^line 5, col 1: unknown gate"):
        parse_qasm(source)


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


# Each malformed program's exact diagnostic (line, column, message), recorded
# from the whole-file tokenizer that preceded the statement-at-a-time parser.
_DEEP = MAX_EXPR_DEPTH + 1
REJECTED = [
    ("unknown gate", HEADER + "qreg q[1];\nfrobnicate q[0];\n",
     3, 1, "unknown gate name 'frobnicate'"),
    ("register without index", HEADER + "qreg q[1];\nh q;\n",
     3, 1, "expected argument of the form name[index]"),
    ("index out of range", HEADER + "qreg q[2];\nh q[2];\n",
     3, 1, "qubit index 2 >= register size 2"),
    ("unterminated statement", HEADER + "qreg q[1];\nh q[0]\n",
     3, 1, "statement not terminated by ';'"),
    ("unterminated after blank lines", HEADER + "qreg q[1];\nh q[0];\nx q[0]\n\n",
     4, 1, "statement not terminated by ';'"),
    ("unterminated reported before an earlier error", HEADER + "qreg q[1];\nfrob q[0];\nh q[0]",
     4, 1, "statement not terminated by ';'"),
    ("bad character", HEADER + "qreg q[1];\nh q[0]; $x\n",
     3, 9, "unexpected character '$'"),
    ("bad character in parameters", HEADER + "qreg q[1];\n  rz(0.5 & 1) q[0];\n",
     3, 10, "unexpected character '&'"),
    ("bad character reported before an earlier error", HEADER + "qreg q[1];\nfrob q[0];\nh q[0]; >\n",
     4, 9, "unexpected character '>'"),
    ("bad character in a skipped statement", HEADER + "qreg q[1];\nbarrier q @;\n",
     3, 11, "unexpected character '@'"),
    ("qreg redeclared", HEADER + "qreg q[1];\nqreg r[1];\n",
     3, 1, "register 'r' redeclared (single qreg supported)"),
    ("parentheses past the depth limit",
     HEADER + "qreg q[1];\nrz(" + "(" * _DEEP + "1" + ")" * _DEEP + ") q[0];\n",
     3, 1, "parameter expression nested deeper than 100"),
    ("unary signs past the depth limit", HEADER + "qreg q[1];\nrz(" + "-" * _DEEP + "1) q[0];\n",
     3, 1, "parameter expression nested deeper than 100"),
    ("division by zero", HEADER + "qreg q[1];\nrz(pi/0) q[0];\n",
     3, 1, "division by zero in parameter expression"),
    ("overflowing literal", HEADER + "qreg q[1];\nrz(1e400) q[0];\n",
     3, 1, "parameter expression evaluates to inf"),
    ("overflowing product", HEADER + "qreg q[1];\nrz(1e300*-1e300) q[0];\n",
     3, 1, "parameter expression evaluates to -inf"),
    ("two decimal points", HEADER + "qreg q[1];\nrz(1.5.5) q[0];\n",
     3, 1, "unexpected token '.5' in gate parameters"),
    ("gate before qreg", HEADER + "h q[0];\nqreg q[1];\n",
     2, 1, "gate application before qreg declaration"),
    ("measure before qreg", HEADER + "measure q[0] -> c[0];\nqreg q[1];\n",
     2, 1, "measure before qreg declaration"),
    ("missing header", "qreg q[1];\nh q[0];\n", 1, 1, "missing 'OPENQASM 2.0;' header"),
    ("wrong version", "\n\nOPENQASM 3.0;\nqreg q[1];\n", 1, 1, "missing 'OPENQASM 2.0;' header"),
    ("empty program", "", 1, 1, "missing 'OPENQASM 2.0;' header"),
    ("no qreg", HEADER + "creg c[1];\n", 1, 1, "program declares no qreg"),
    ("qreg of size 0", HEADER + "qreg q[0];\n", 2, 1, "qreg size must be >= 1"),
    ("trailing tokens after qreg", HEADER + "qreg q[1] q;\n",
     2, 1, "trailing tokens after qreg declaration"),
    ("unknown register", HEADER + "qreg q[1];\nh r[0];\n", 3, 1, "unknown register 'r'"),
    ("missing comma", HEADER + "qreg q[2];\ncx q[0] q[1];\n",
     3, 1, "expected ',' between gate arguments"),
    ("negative index", HEADER + "qreg q[2];\nh q[-1];\n",
     3, 1, "expected argument of the form name[index]"),
    ("wrong arity", HEADER + "qreg q[2];\ncx q[0];\n", 3, 1, "gate 'cx' has arity 2, got 1 targets"),
    ("duplicate targets", HEADER + "qreg q[2];\ncx q[1],q[1];\n",
     3, 1, "duplicate targets in cx: (1, 1)"),
    ("missing parameter", HEADER + "qreg q[1];\nrz q[0];\n", 3, 1, "gate 'rz' takes 1 parameter(s)"),
    ("extra parameter", HEADER + "qreg q[1];\nh(0.5) q[0];\n", 3, 1, "gate 'h' takes 0 parameter(s)"),
    ("unclosed parameter list", HEADER + "qreg q[1];\nrz(0.5 q[0];\n",
     3, 1, "unexpected token 'q' in gate parameters"),
    ("unclosed parenthesis", HEADER + "qreg q[1];\nrz((0.5) q[0];\n",
     3, 1, "unexpected token 'q' in gate parameters"),
    ("incomplete expression", HEADER + "qreg q[1];\nrz(0.5+) q[0];\n",
     3, 1, "malformed parameter token ')'"),
    ("identifier parameter", HEADER + "qreg q[1];\nrx(theta) q[0];\n",
     3, 1, "malformed parameter token 'theta'"),
    ("comment inside the parameters", HEADER + "qreg q[1];\nrx(pi//2) q[0];\n",
     3, 1, "statement not terminated by ';'"),
    ("empty statement", HEADER + "qreg q[1];\n;\n", 3, 1, "unknown gate name ';'"),
    ("statement split over lines", HEADER + "qreg q[2];\ncx q[0],\n  q[5];\n",
     3, 1, "qubit index 5 >= register size 2"),
    ("CRLF line ends", "OPENQASM 2.0;\r\nqreg q[1];\r\n\r\nfrob q[0];\r\n",
     4, 1, "unknown gate name 'frob'"),
    ("after comment lines", HEADER + "// one\n// two\nqreg q[1];\nh q[0]; // ok\nfrob q[0];\n",
     6, 1, "unknown gate name 'frob'"),
]


@pytest.mark.parametrize("source, line, column, message",
                         [case[1:] for case in REJECTED], ids=[case[0] for case in REJECTED])
def test_rejected_program_diagnostic_is_pinned(source, line, column, message):
    with pytest.raises(QasmError) as exc:
        parse_qasm(source)
    d = exc.value.diagnostic
    assert (d.line, d.column, d.message) == (line, column, message)
    assert str(exc.value) == f"line {line}, col {column}: {message}"


# Accepted spellings and the circuit (width, (kind, targets, params) per gate)
# and warning lines each gives, recorded like the table above.
ACCEPTED = [
    ("CRLF line ends",
     'OPENQASM 2.0;\r\ninclude "qelib1.inc";\r\nqreg q[2];\r\nh q[0];\r\ncx q[0],q[1];\r\n',
     2, (("h", (0,), ()), ("cx", (0, 1), ())), ()),
    ("statement split across lines",
     HEADER + "qreg\nq[2];\ncx\n  q[0] ,\n  q[1]\n;\nrz(\n0.5\n)\nq[1];\n",
     2, (("cx", (0, 1), ()), ("rz", (1,), (0.5,))), ()),
    ("comments",
     "// leading\nOPENQASM 2.0; // header\nqreg q[1]; // one qubit\n// h q[0];\nx q[0];// no space\n",
     1, (("x", (0,), ()),), ()),
    ("multi-line include", HEADER + 'include\n"qelib1.inc"\n;\nqreg q[1];\nh q[0];\n',
     1, (("h", (0,), ()),), ()),
    ("empty parameter list", HEADER + "qreg q[1];\nh() q[0];\nh ( ) q[0];\n",
     1, (("h", (0,), ()), ("h", (0,), ())), ()),
    ("measurements",
     HEADER + "qreg q[1];\ncreg c[1];\nh q[0];\nmeasure q[0];\nmeasure\n  q[0] -> c[0];\n",
     1, (("h", (0,), ()),), (5, 6)),
    ("literal forms",
     HEADER + "qreg q[1];\nrz(1.) q[0];\nrz(.5) q[0];\nrz(1e-3) q[0];\nrz(-pi) q[0];\n"
     "rz(+2) q[0];\nrz(2.5E+2) q[0];\n",
     1, (("rz", (0,), (1.0,)), ("rz", (0,), (0.5,)), ("rz", (0,), (0.001,)),
         ("rz", (0,), (-3.141592653589793,)), ("rz", (0,), (2.0,)), ("rz", (0,), (250.0,))), ()),
    ("expressions",
     HEADER + "qreg q[2];\nr(-pi/2 + 1*0.5, 2*(pi - 3)) q[0];\ncrz(--1) q[1],q[0];\n"
     "rx(((pi))/4) q[1];\n",
     2, (("r", (0,), (-1.0707963267948966, 0.28318530717958623)), ("crz", (1, 0), (1.0,)),
         ("rx", (1,), (0.7853981633974483,))), ()),
    ("spacing",
     "\n\n  OPENQASM   2.0 ;qreg q [ 3 ] ;cx q[2],q[0];barrier q[0],q[1];"
     "  ccx q[0] , q[1] , q[2] ;\n\n",
     3, (("cx", (2, 0), ()), ("ccx", (0, 1, 2), ())), ()),
    ("index with leading zeros", HEADER + "qreg q[3];\nh q[002];\n", 3, (("h", (2,), ()),), ()),
    ("index past the statement count", HEADER + "qreg q[100];\nh q[99];\ncx q[99],q[0];\n",
     100, (("h", (99,), ()), ("cx", (99, 0), ())), ()),
    ("non-ASCII digits", HEADER + "qreg q[4];\nh q[\u0663];\ncx q[3],q[\u0660];\n",
     4, (("h", (3,), ()), ("cx", (3, 0), ())), ()),
    ("creg before qreg", HEADER + "creg c[2];\nqreg q[1];\ny q[0];\n", 1, (("y", (0,), ()),), ()),
]


@pytest.mark.parametrize("source, num_qubits, gate_list, warning_lines",
                         [case[1:] for case in ACCEPTED], ids=[case[0] for case in ACCEPTED])
def test_accepted_program_circuit_is_pinned(source, num_qubits, gate_list, warning_lines):
    diagnostics = []
    c = parse_qasm(source, diagnostics)
    assert c.num_qubits == num_qubits
    assert tuple((g.kind, g.targets, g.params) for g in c.gates) == gate_list
    assert [(d.line, d.column, d.message, d.severity) for d in diagnostics] == [
        (line, 1, "measurement stripped", "warning") for line in warning_lines]


_SPACES = st.sampled_from(["", " ", "\t", "\n", " \r\n  "])


def spaced_text(draw, c: Circuit) -> str:
    """`c`'s program with drawn whitespace wherever the grammar allows it, an
    empty parameter list on some gates without parameters and leading zeros
    on some indices (twelve of them make an index too long for the
    statement match to read)."""
    def space(required=False):
        return draw(_SPACES) or (" " if required else "")

    def argument(index):
        zeros = "0" * draw(st.sampled_from([0, 0, 1, 12]))
        return f"{space()}q{space()}[{space()}{zeros}{index}{space()}]{space()}"

    statements = [f"{space()}OPENQASM {space()}2.0{space()};",
                  f"{space()}qreg {argument(c.num_qubits)};"]
    for g in c.gates:
        if g.params:
            head = f"{g.kind}{space()}({','.join(space() + repr(p) + space() for p in g.params)})"
        elif draw(st.booleans()):
            head = f"{g.kind}{space()}({space()})"
        else:
            head = g.kind + space(required=True)
        statements.append(f"{space()}{head}{','.join(argument(t) for t in g.targets)};")
    return "".join(statements) + space()


@st.composite
def spaced_programs(draw):
    """A random circuit's canonical text, and its `spaced_text`."""
    c = random_circuit(draw(st.integers(1, 4)), draw(st.integers(1, 5)),
                       seed=draw(st.integers(0, 2**32 - 1)))
    return emit_qasm(c), spaced_text(draw, c)


@given(spaced_programs())
@settings(max_examples=200, deadline=None)
def test_spacing_variants_parse_as_the_canonical_text(programs):
    canonical, spaced = programs
    c = parse_qasm(canonical)
    again = parse_qasm(spaced)
    assert again.structurally_equal(c)
    assert [g.params for g in again.gates] == [g.params for g in c.gates]


_ARITY = {"cx": 2, "swap": 2, "ccx": 3, "cswap": 3}


@st.composite
def repeated_gate_circuits(draw):
    """cx, swap, ccx and cswap gates drawn mostly from a few (kind, targets)
    pairs, so that they repeat on the same targets and on others, with an rz
    after some of them."""
    n = draw(st.integers(3, 5))

    def key():
        kind = draw(st.sampled_from(sorted(_ARITY)))
        return kind, draw(st.permutations(range(n)))[:_ARITY[kind]]

    pool = [key() for _ in range(draw(st.integers(1, 3)))]
    body = []
    for _ in range(draw(st.integers(1, 12))):
        kind, targets = draw(st.sampled_from(pool)) if draw(st.integers(0, 3)) else key()
        body.append(GateApplication(kind, targets))
        if draw(st.booleans()):
            body.append(GateApplication("rz", targets[:1], (draw(st.floats(-4, 4)),)))
    return Circuit(n, tuple(body))


def first_same_object(c: Circuit) -> list[int]:
    """For each gate of `c`, the position of the first gate that is it."""
    first: dict[int, int] = {}
    return [first.setdefault(id(g), i) for i, g in enumerate(c.gates)]


def first_same_parameterless_gate(c: Circuit) -> list[int]:
    """For each gate of `c`, the position of the first parameterless gate of
    its kind and targets, or its own position when it has parameters."""
    first: dict[tuple, int] = {}
    return [i if g.params else first.setdefault((g.kind, g.targets), i)
            for i, g in enumerate(c.gates)]


@pytest.mark.slow
@given(repeated_gate_circuits(), st.data())
@settings(max_examples=200, deadline=None)
def test_a_repeated_parameterless_gate_is_one_object(c, data):
    for text in (emit_qasm(c), spaced_text(data.draw, c)):
        again = parse_qasm(text)
        assert again.structurally_equal(c)
        assert [g.params for g in again.gates] == [g.params for g in c.gates]
        assert first_same_object(again) == first_same_parameterless_gate(c)


def test_parses_share_no_gate_object():
    text = emit_qasm(Circuit(2, (GateApplication("cx", (0, 1)),) * 3))
    first, second = parse_qasm(text), parse_qasm(text)
    assert first.structurally_equal(second)
    assert len({id(g) for g in first.gates}) == 1
    assert not {id(g) for g in first.gates} & {id(g) for g in second.gates}


# A bad statement after an identical valid one, whose gate object the parser
# would reuse, fails on its own, with the diagnostic the REJECTED table's
# rules give it.
AFTER_A_VALID_TWIN = [
    ("unknown register", "qreg q[2];\ncx q[0],q[1];\ncx q[0],r[1];\n",
     4, "unknown register 'r'"),
    ("register before index", "qreg q[2];\ncx q[0],q[1];\ncx r[0],q[5];\n",
     4, "unknown register 'r'"),
    ("index out of range", "qreg q[2];\ncx q[0],q[1];\ncx q[0],q[2];\n",
     4, "qubit index 2 >= register size 2"),
    ("first index out of range first", "qreg q[2];\ncx q[0],q[1];\ncx q[7],r[1];\n",
     4, "qubit index 7 >= register size 2"),
    ("long index out of range", "qreg q[3];\nccx q[0],q[1],q[2];\nccx q[0],q[1],q[0000000000002];\n"
     "ccx q[0],q[1],q[0000000000003];\n", 5, "qubit index 3 >= register size 3"),
    ("missing comma", "qreg q[2];\ncx q[0],q[1];\ncx q[0] q[1];\n",
     4, "expected ',' between gate arguments"),
    ("extra parameter", "qreg q[1];\nh q[0];\nh(0.5) q[0];\n", 4, "gate 'h' takes 0 parameter(s)"),
    ("wrong arity", "qreg q[3];\nccx q[0],q[1],q[2];\nccx q[0],q[1];\n",
     4, "gate 'ccx' has arity 3, got 2 targets"),
    ("duplicate targets", "qreg q[2];\nswap q[0],q[1];\nswap q[1],q[1];\n",
     4, "duplicate targets in swap: (1, 1)"),
]


@pytest.mark.parametrize("body, line, message", [case[1:] for case in AFTER_A_VALID_TWIN],
                         ids=[case[0] for case in AFTER_A_VALID_TWIN])
def test_bad_statement_after_a_valid_twin_keeps_its_diagnostic(body, line, message):
    with pytest.raises(QasmError) as exc:
        parse_qasm(HEADER + body)
    d = exc.value.diagnostic
    assert (d.line, d.column, d.message) == (line, 1, message)


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
