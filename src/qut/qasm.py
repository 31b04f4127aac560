"""OpenQASM-2.0 subset parser and emitter.

Supported: the version header, an optional include, one qreg, cregs,
catalog gate statements with parameter expressions (decimal literals, pi,
+ - * /, unary minus, parentheses), and measure statements.  Measurements
are accepted but stripped with a warning, since all tests consume
measurement-free circuits.

The parser checks syntax and register bounds; `GateApplication` is the one
check of a gate's arity, parameters and targets.  Every error is a
`QasmError` with a line and a column, which the CLI maps to exit 3.
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


_TOKEN = r"[A-Za-z_][A-Za-z0-9_]*|\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|->|[()\[\],;+\-*/]"
_TOKEN_ONLY_RE = re.compile(_TOKEN)
# The catch-all takes the rest of the line from a character that starts no
# token, so a bad character is always the last match of its line.
_TOKEN_RE = re.compile(rf"\s*({_TOKEN}|\S.*)")


# Parentheses and unary signs open nested calls; past this depth the parser
# reports an error instead of exhausting Python's recursion limit.
MAX_EXPR_DEPTH = 100


class _Cursor:
    """Reads a program's tokens statement by statement and evaluates parameter
    expressions by left-associative precedence climbing.  No rule consumes a
    statement's closing ';' except as a terminator, so no read runs past the
    last token."""

    def __init__(self, tokens: list[str], lines: list[int]):
        self.tokens = tokens
        self.lines = lines
        self.pos = 0
        self.line = 1
        self.depth = 0

    def fail(self, msg: str):
        raise QasmError(ParseDiagnostic(self.line, 1, msg))

    def take(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, tok: str) -> bool:
        if self.tokens[self.pos] == tok:
            self.pos += 1
            return True
        return False

    def program(self, diagnostics: list[ParseDiagnostic]) -> Circuit:
        qreg_name: str | None = None
        num_qubits = 0
        built: list[GateApplication] = []
        while self.pos < len(self.tokens):
            self.line = self.lines[self.pos]
            head = self.take()
            if head in ("qreg", "creg"):
                name, size = self.arg()
                if not self.accept(";"):
                    self.fail(f"trailing tokens after {head} declaration")
                if head == "creg":
                    continue
                if qreg_name is not None:
                    self.fail(f"register '{name}' redeclared (single qreg supported)")
                if size < 1:
                    self.fail("qreg size must be >= 1")
                qreg_name, num_qubits = name, size
                continue
            if head in ("measure", "barrier"):
                if head == "measure":
                    if qreg_name is None:
                        self.fail("measure before qreg declaration")
                    diagnostics.append(
                        ParseDiagnostic(self.line, 1, "measurement stripped", "warning")
                    )
                self.pos = self.tokens.index(";", self.pos) + 1
                continue

            if head not in gates.CATALOG:
                self.fail(f"unknown gate name '{head}'")
            if qreg_name is None:
                self.fail("gate application before qreg declaration")
            params = self.params()
            targets = [self.target(qreg_name, num_qubits)]
            while self.accept(","):
                targets.append(self.target(qreg_name, num_qubits))
            if not self.accept(";"):
                self.fail("expected ',' between gate arguments")
            try:
                built.append(GateApplication(head, tuple(targets), params))
            except ValueError as exc:
                self.fail(str(exc))
        if qreg_name is None:
            raise QasmError(ParseDiagnostic(1, 1, "program declares no qreg"))
        return Circuit(num_qubits, tuple(built))

    def arg(self) -> tuple[str, int]:
        name = self.take()
        if name.isidentifier() and self.take() == "[":
            index = self.take()
            if index.isdigit() and self.take() == "]":
                try:
                    return name, int(index)
                except ValueError:  # past int()'s digit limit
                    pass
        self.fail("expected argument of the form name[index]")

    def target(self, register: str, size: int) -> int:
        name, index = self.arg()
        if name != register:
            self.fail(f"unknown register '{name}'")
        if index >= size:
            self.fail(f"qubit index {index} >= register size {size}")
        return index

    def params(self) -> tuple[float, ...]:
        if not self.accept("(") or self.accept(")"):
            return ()
        values = [self.value()]
        while self.accept(","):
            values.append(self.value())
        if not self.accept(")"):
            self.fail(f"unexpected token '{self.tokens[self.pos]}' in gate parameters")
        return tuple(values)

    def value(self) -> float:
        value = self.expr()
        if not isfinite(value):
            self.fail(f"parameter expression evaluates to {value}")
        return value

    def expr(self) -> float:
        value = self.term()
        while self.tokens[self.pos] in ("+", "-"):
            value = value + self.term() if self.take() == "+" else value - self.term()
        return value

    def term(self) -> float:
        value = self.factor()
        while self.tokens[self.pos] in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "/":
                if rhs == 0.0:
                    self.fail("division by zero in parameter expression")
                value = value / rhs
            else:
                value = value * rhs
        return value

    def factor(self) -> float:
        tok = self.take()
        if tok in ("-", "+", "("):
            self.depth += 1
            if self.depth > MAX_EXPR_DEPTH:
                self.fail(f"parameter expression nested deeper than {MAX_EXPR_DEPTH}")
            value = self.expr() if tok == "(" else self.factor()
            if tok == "(" and self.take() != ")":
                self.fail("expected ')' in parameter expression")
            self.depth -= 1
            return -value if tok == "-" else value
        if tok == "pi":
            return pi
        try:
            return float(tok)
        except ValueError:
            self.fail(f"malformed parameter token '{tok}'")


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

    # includes carry string literals the tokenizer has no use for; drop them,
    # keeping their line breaks so that later lines keep their numbers
    source = re.sub(r'include\s+"[^"]*"\s*;',
                    lambda m: "\n" * (len(m[0].splitlines()) - 1), source)

    tokens: list[str] = []
    lines: list[int] = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        text = raw.partition("//")[0]
        found = _TOKEN_RE.findall(text)
        if found and not _TOKEN_ONLY_RE.fullmatch(found[-1]):
            raise QasmError(ParseDiagnostic(
                line_no, len(text) - len(found[-1]) + 1,
                f"unexpected character {found[-1][0]!r}",
            ))
        tokens += found
        lines += [line_no] * len(found)

    if tokens and tokens[-1] != ";":
        last = len(tokens) - tokens[::-1].index(";") if ";" in tokens else 0
        raise QasmError(ParseDiagnostic(lines[last], 1, "statement not terminated by ';'"))
    if tokens[:3] != ["OPENQASM", "2.0", ";"]:
        raise QasmError(ParseDiagnostic(1, 1, "missing 'OPENQASM 2.0;' header"))
    cursor = _Cursor(tokens, lines)
    cursor.pos = 3
    return cursor.program(diagnostics)


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
