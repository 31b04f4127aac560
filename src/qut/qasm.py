"""OpenQASM-2.0 subset parser and emitter.

Supported: the version header, an optional include, one qreg, cregs,
catalog gate statements with parameter expressions (decimal literals, pi,
+ - * /, unary minus, parentheses), and measure statements.  Measurements
are accepted but stripped with a warning, since all tests consume
measurement-free circuits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import isfinite, pi

from . import gates
from .circuit import Circuit, GateApplication


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str
    severity: str = "error"  # "error" | "warning"


class QasmError(ValueError):
    """Parse failure; carries the offending position."""

    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(
            f"line {diagnostic.line}, col {diagnostic.column}: {diagnostic.message}"
        )
        self.diagnostic = diagnostic


_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|->|[()\[\],;+\-*/])")


# Parentheses and unary signs open nested calls; past this depth the parser
# reports an error instead of exhausting Python's recursion limit.
MAX_EXPR_DEPTH = 100


class _ExprParser:
    """Left-associative precedence-climbing evaluator for parameter expressions."""

    def __init__(self, tokens: list[str], line: int, col: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.col = col
        self.depth = 0

    def _fail(self, msg: str):
        raise QasmError(ParseDiagnostic(self.line, self.col, msg))

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        if self.pos >= len(self.tokens):
            self._fail("unexpected end of parameter expression")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> float:
        value = self.expr()
        if self.peek() is not None:
            self._fail(f"trailing token '{self.peek()}' in parameter expression")
        if not isfinite(value):
            self._fail(f"parameter expression evaluates to {value}")
        return value

    def expr(self) -> float:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> float:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "/":
                if rhs == 0.0:
                    self._fail("division by zero in parameter expression")
                value = value / rhs
            else:
                value = value * rhs
        return value

    def factor(self) -> float:
        tok = self.take()
        if tok in ("-", "+", "("):
            self.depth += 1
            if self.depth > MAX_EXPR_DEPTH:
                self._fail(f"parameter expression nested deeper than {MAX_EXPR_DEPTH}")
            value = self.expr() if tok == "(" else self.factor()
            if tok == "(" and self.take() != ")":
                self._fail("expected ')' in parameter expression")
            self.depth -= 1
            return -value if tok == "-" else value
        if tok == "pi":
            return pi
        try:
            return float(tok)
        except ValueError:
            self._fail(f"malformed parameter token '{tok}'")


def _tokenize_line(text: str, line_no: int) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.start(1) != pos:
            raise QasmError(
                ParseDiagnostic(line_no, pos + 1, f"unexpected character {text[pos]!r}")
            )
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _strip_comments(line: str) -> str:
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def parse_qasm(
    source: str, diagnostics: list[ParseDiagnostic] | None = None
) -> Circuit:
    """Parse a QASM subset program into a Circuit.

    Warnings (e.g. stripped measurements) are appended to `diagnostics` when
    a list is supplied.  Errors raise QasmError.
    """
    if diagnostics is None:
        diagnostics = []
    if not isinstance(source, str):
        try:
            source = bytes(source).decode("utf-8", errors="replace")
        except (TypeError, ValueError) as exc:
            raise QasmError(ParseDiagnostic(1, 1, f"undecodable input: {exc}"))

    # includes carry string literals the tokenizer has no use for; drop them
    source = re.sub(r'include\s+"[^"]*"\s*;', "", source)

    # split on ';' while tracking line numbers
    statements: list[tuple[int, list[str]]] = []
    pending: list[str] = []
    pending_line = 1
    for line_no, raw in enumerate(source.splitlines() or [""], start=1):
        for tok in _tokenize_line(_strip_comments(raw), line_no):
            if not pending:
                pending_line = line_no
            if tok == ";":
                statements.append((pending_line, pending))
                pending = []
            else:
                pending.append(tok)
    if pending:
        raise QasmError(
            ParseDiagnostic(pending_line, 1, "statement not terminated by ';'")
        )

    if not statements or statements[0][1] != ["OPENQASM", "2", ".", "0"]:
        # the float tokenizer may glue "2.0" into one token
        if not statements or statements[0][1] not in (["OPENQASM", "2.0"],):
            raise QasmError(ParseDiagnostic(1, 1, "missing 'OPENQASM 2.0;' header"))

    qreg_name: str | None = None
    num_qubits = 0
    cregs: set[str] = set()
    built: list[GateApplication] = []

    def fail(line, msg):
        raise QasmError(ParseDiagnostic(line, 1, msg))

    def parse_arg(line, toks, start):
        # IDENT [ INT ]
        if (
            start + 3 > len(toks)
            or not toks[start].isidentifier()
            or toks[start + 1] != "["
            or toks[start + 3] != "]"
        ):
            fail(line, "expected argument of the form name[index]")
        name, idx = toks[start], toks[start + 2]
        if not idx.isdigit():
            fail(line, f"malformed qubit index '{idx}'")
        return name, int(idx), start + 4

    for line_no, toks in statements[1:]:
        head = toks[0]
        if head in ("qreg", "creg"):
            name, size, end = parse_arg(line_no, toks, 1)
            if end != len(toks):
                fail(line_no, f"trailing tokens after {head} declaration")
            if head == "creg":
                cregs.add(name)
                continue
            if qreg_name is not None:
                fail(line_no, f"register '{name}' redeclared (single qreg supported)")
            if size < 1:
                fail(line_no, "qreg size must be >= 1")
            qreg_name, num_qubits = name, size
            continue
        if head == "measure":
            if qreg_name is None:
                fail(line_no, "measure before qreg declaration")
            diagnostics.append(
                ParseDiagnostic(line_no, 1, "measurement stripped", "warning")
            )
            continue
        if head == "barrier":
            continue

        # gate application
        if head not in gates.CATALOG:
            fail(line_no, f"unknown gate name '{head}'")
        if qreg_name is None:
            fail(line_no, "gate application before qreg declaration")
        spec = gates.CATALOG[head]
        pos = 1
        params: tuple[float, ...] = ()
        if pos < len(toks) and toks[pos] == "(":
            depth, close = 1, pos + 1
            while close < len(toks) and depth:
                if toks[close] == "(":
                    depth += 1
                elif toks[close] == ")":
                    depth -= 1
                close += 1
            if depth:
                fail(line_no, "unbalanced parentheses in gate parameters")
            inner = toks[pos + 1 : close - 1]
            exprs: list[list[str]] = [[]]
            d = 0
            for tok in inner:
                d += tok == "("
                d -= tok == ")"
                if tok == "," and d == 0:
                    exprs.append([])
                else:
                    exprs[-1].append(tok)
            params = tuple(
                _ExprParser(e, line_no, 1).parse() for e in exprs if inner
            )
            pos = close
        if len(params) != spec.num_params:
            fail(line_no, f"gate '{head}' takes {spec.num_params} parameter(s)")

        targets: list[int] = []
        while pos < len(toks):
            name, idx, pos = parse_arg(line_no, toks, pos)
            if name != qreg_name:
                fail(line_no, f"unknown register '{name}'")
            if idx >= num_qubits:
                fail(line_no, f"qubit index {idx} >= register size {num_qubits}")
            targets.append(idx)
            if pos < len(toks):
                if toks[pos] != ",":
                    fail(line_no, "expected ',' between gate arguments")
                pos += 1
        if len(targets) != spec.arity:
            fail(line_no, f"gate '{head}' expects {spec.arity} qubit argument(s)")
        try:
            built.append(GateApplication(head, tuple(targets), params))
        except ValueError as exc:
            fail(line_no, str(exc))

    if qreg_name is None:
        raise QasmError(ParseDiagnostic(1, 1, "program declares no qreg"))
    return Circuit(num_qubits, tuple(built))


def _format_param(value: float) -> str:
    return format(value, ".17g")


def emit_qasm(c: Circuit) -> str:
    """Deterministic QASM text; parameters keep full 64-bit precision."""
    lines = ["OPENQASM 2.0;", "include \"qelib1.inc\";", f"qreg q[{c.num_qubits}];"]
    for g in c.gates:
        if g.kind == gates.CUSTOM:
            raise ValueError("custom-matrix gates are not expressible in QASM")
        param_txt = ""
        if g.params:
            param_txt = "(" + ",".join(_format_param(p) for p in g.params) + ")"
        args = ",".join(f"q[{t}]" for t in g.targets)
        lines.append(f"{g.kind}{param_txt} {args};")
    return "\n".join(lines) + "\n"
