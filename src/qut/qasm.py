"""OpenQASM-2.0 subset parser and emitter.

Supported: the version header, an optional include, one qreg, cregs,
catalog gate statements with parameter expressions (decimal literals, pi,
+ - * /, unary minus, parentheses), and measure statements.  Measurements
are accepted but stripped with a warning, since all tests consume
measurement-free circuits.

The parser reads one statement at a time and checks syntax and register
bounds; `GateApplication` is the one check of a gate's arity, parameters and
targets.  Every error is a `QasmError` with a line and a column, which the
CLI maps to exit 3.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from math import isfinite, pi
from typing import NoReturn

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


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NUMBER = rf"[+-]?{_UNSIGNED}"
_TOKEN = rf"{_NAME}|{_UNSIGNED}|->|[()\[\],;+\-*/]"
# The catch-all takes the rest of the line from a character that starts no
# token, so a bad character is always the last match of its line.  Only
# non-literal parameters, skipped statements and diagnostics read tokens, so
# these patterns are compiled on first use, through re's cache.
_TOKENS = rf"\s*({_TOKEN}|\S.*)"

# An argument whose index has few enough digits for int() to read without
# reaching its digit limit.
_PLAIN_ARGUMENT = rf"\s*({_NAME})\s*\[\s*(\d{{1,9}})\s*\]\s*"

# A statement's head; its parameter text, when that holds no parentheses,
# either as one signed numeric literal, which float() reads exactly as the
# evaluator would, or as any other text; and the rest: one to three plain
# arguments, as name and index pairs, when that is all it holds, else as
# text, which may also be a parameter list with nested parentheses.  It
# takes nearly 1 ms to compile, so `parse_qasm` compiles it on first use,
# through re's cache, and importing qut does not pay for it.
_STATEMENT = (rf"\s*({_NAME})\s*(?:\((?:\s*({_NUMBER})\s*|([^()]*))\))?"
              rf"(?:{_PLAIN_ARGUMENT}(?:,{_PLAIN_ARGUMENT}(?:,{_PLAIN_ARGUMENT})?)?\Z|(.*))")
_ARGUMENT_RE = re.compile(rf"\s*({_NAME})\s*\[\s*(\d+)\s*\]\s*")


# Parentheses and unary signs open nested calls; past this depth the parser
# reports an error instead of exhausting Python's recursion limit.
MAX_EXPR_DEPTH = 100


class _StatementError(Exception):
    """A statement's error message; `parse_qasm` adds the statement's line."""


class _Expression:
    """Evaluates a parameter list from its tokens by left-associative
    precedence climbing.  The last token is the one that follows the list in
    the statement (')' or ';'); no rule consumes it except as the list's
    terminator, so no read runs past it."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def take(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def values(self) -> tuple[float, ...]:
        values = [self.value()]
        while self.tokens[self.pos] == ",":
            self.pos += 1
            values.append(self.value())
        if self.tokens[self.pos] != ")":
            raise _StatementError(f"unexpected token '{self.tokens[self.pos]}' in gate parameters")
        return tuple(values)

    def value(self) -> float:
        value = self.expr()
        if not isfinite(value):
            raise _StatementError(f"parameter expression evaluates to {value}")
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
                    raise _StatementError("division by zero in parameter expression")
                value = value / rhs
            else:
                value = value * rhs
        return value

    def factor(self) -> float:
        tok = self.take()
        if tok in ("-", "+", "("):
            self.depth += 1
            if self.depth > MAX_EXPR_DEPTH:
                raise _StatementError(f"parameter expression nested deeper than {MAX_EXPR_DEPTH}")
            value = self.expr() if tok == "(" else self.factor()
            if tok == "(" and self.take() != ")":
                raise _StatementError("expected ')' in parameter expression")
            self.depth -= 1
            return -value if tok == "-" else value
        if tok == "pi":
            return pi
        try:
            return float(tok)
        except ValueError:
            raise _StatementError(f"malformed parameter token '{tok}'") from None


def _ends_in_a_bad_character(tokens: list[str]) -> bool:
    """Whether a `_TOKENS` match list ends in the catch-all."""
    return bool(tokens) and re.fullmatch(_TOKEN, tokens[-1]) is None


def _parameters(text: str, closer: str) -> tuple[float, ...]:
    """The values of a parameter list's text; `closer` is the token after it.
    A character that starts no token fails as a malformed token, and
    `parse_qasm` then reports the character itself."""
    tokens = re.findall(_TOKENS, text)
    if not tokens and closer == ")":
        return ()
    return _Expression(tokens + [closer]).values()


def _nested_parameters(rest: str) -> tuple[tuple[float, ...], str]:
    """Parameters of a list with nested parentheses, which `rest` opens, and
    the argument text after its closing ')'.  Without one, the list runs to
    the statement's end and is always an error."""
    depth = 0
    for i, ch in enumerate(rest):
        depth += (ch == "(") - (ch == ")")
        if depth == 0:
            return _parameters(rest[1:i], ")"), rest[i + 1:]
    return _parameters(rest[1:], ";"), ""


def _argument(text: str) -> tuple[str, int, int]:
    """The register name and index of the argument `text` starts with, and
    where that argument ends."""
    m = _ARGUMENT_RE.match(text)
    if m is not None:
        try:
            return m[1], int(m[2]), m.end()
        except ValueError:  # past int()'s digit limit
            pass
    raise _StatementError("expected argument of the form name[index]")


def _arguments(text: str):
    """The register name and index of each ','-separated argument of `text`,
    read one at a time: the caller checks an argument's name and index
    before anything after them in that argument, or in the next, is read."""
    for arg in text.split(","):
        name, index, end = _argument(arg)
        yield name, index
        if end != len(arg):
            raise _StatementError("expected ',' between gate arguments")


def _reject(text: str, statements: list[str], line: int, message: str) -> NoReturn:
    """Raise the first error of the program `text`, split at ';' into
    `statements`: the first character that starts no token, else a last
    statement without its ';', else `message` at `line`."""
    for line_no, raw in enumerate(text.split("\n"), start=1):
        found = re.findall(_TOKENS, raw)
        if _ends_in_a_bad_character(found):
            raise QasmError(ParseDiagnostic(
                line_no, len(raw) - len(found[-1]) + 1,
                f"unexpected character {found[-1][0]!r}",
            ))
    if statements[-1].strip():
        tail_line = next(_statement_lines(statements, [len(statements) - 1]))
        raise QasmError(ParseDiagnostic(tail_line, 1, "statement not terminated by ';'"))
    raise QasmError(ParseDiagnostic(line, 1, message))


def _statement_lines(statements: list[str], indices: list[int]):
    """The line of the first token (of the ';' when there is none) of each
    of the `statements` at `indices`."""
    breaks_before = [0, *accumulate(stmt.count("\n") for stmt in statements)]
    for at in indices:
        stmt = statements[at]
        yield 1 + breaks_before[at] + stmt[:len(stmt) - len(stmt.lstrip())].count("\n")


def parse_qasm(
    source: str, diagnostics: list[ParseDiagnostic] | None = None
) -> Circuit:
    """Parse a QASM subset program into a Circuit.

    Reads one ';'-terminated statement at a time: one regex splits it into
    head, parameter text and arguments; a parameter that is a numeric
    literal goes to float(), any other to the expression evaluator.  A line
    number is worked out only for a diagnostic.  Warnings (e.g. stripped
    measurements) are appended to `diagnostics` when a list is supplied.
    Errors raise QasmError: of several, a character that starts no token is
    reported first, then an unterminated last statement, then the first
    statement that fails.
    """
    if diagnostics is None:
        diagnostics = []
    if not isinstance(source, str):
        try:
            source = bytes(source).decode("utf-8", errors="replace")
        except (TypeError, ValueError) as exc:
            raise QasmError(ParseDiagnostic(1, 1, f"undecodable input: {exc}"))

    # one "\n" per line break that str.splitlines counts, so that a line is
    # the count of "\n" before a statement
    text = "\n".join(source.splitlines())
    # includes carry string literals no token reads; drop them, keeping their
    # line breaks so that later lines keep their numbers
    text = re.sub(r'include\s+"[^"]*"\s*;', lambda m: "\n" * m[0].count("\n"), text)
    text = re.sub(r"//[^\n]*", "", text)
    statements = text.split(";")
    if statements[-1].strip() or len(statements) < 2 or statements[0].split() != ["OPENQASM", "2.0"]:
        _reject(text, statements, 1, "missing 'OPENQASM 2.0;' header")

    statement = re.compile(_STATEMENT, re.S).match
    qreg_name: str | None = None
    num_qubits = 0
    built: list[GateApplication] = []
    measured: list[int] = []
    try:
        for at, stmt in enumerate(statements[1:-1], start=1):
            m = statement(stmt)
            if m is None:
                head = re.match(_TOKENS, stmt)
                raise _StatementError(f"unknown gate name '{head[1] if head else ';'}'")
            (head, literal, param_text,
             name0, index0, name1, index1, name2, index2, args) = m.groups()
            if head not in gates.CATALOG:
                if head == "qreg" or head == "creg":
                    rest = stmt[m.end(1):]
                    name, size, end = _argument(rest)
                    if end != len(rest):
                        raise _StatementError(f"trailing tokens after {head} declaration")
                    if head == "creg":
                        continue
                    if qreg_name is not None:
                        raise _StatementError(f"register '{name}' redeclared (single qreg supported)")
                    if size < 1:
                        raise _StatementError("qreg size must be >= 1")
                    qreg_name, num_qubits = name, size
                elif head == "measure" or head == "barrier":
                    if _ends_in_a_bad_character(re.findall(_TOKENS, stmt)):
                        raise _StatementError("unexpected character")  # reported with its column
                    if head == "measure":
                        if qreg_name is None:
                            raise _StatementError("measure before qreg declaration")
                        measured.append(at)
                else:
                    raise _StatementError(f"unknown gate name '{head}'")
                continue

            if qreg_name is None:
                raise _StatementError("gate application before qreg declaration")
            if literal is not None:
                params = (float(literal),)
                if not isfinite(params[0]):
                    raise _StatementError(f"parameter expression evaluates to {params[0]}")
            elif param_text is not None:
                params = _parameters(param_text, ")")
            elif args is not None and args.startswith("("):
                params, args = _nested_parameters(args)
            else:
                params = ()
            if args is None:  # plain arguments, read by the match
                arguments = [(name0, int(index0))]
                if name1 is not None:
                    arguments.append((name1, int(index1)))
                    if name2 is not None:
                        arguments.append((name2, int(index2)))
            else:
                arguments = _arguments(args)
            targets = []
            for name, index in arguments:
                if name != qreg_name:
                    raise _StatementError(f"unknown register '{name}'")
                if index >= num_qubits:
                    raise _StatementError(f"qubit index {index} >= register size {num_qubits}")
                targets.append(index)
            try:
                built.append(GateApplication(head, targets, params))
            except ValueError as exc:
                raise _StatementError(str(exc)) from None
    except _StatementError as exc:
        _reject(text, statements, next(_statement_lines(statements, [at])), str(exc))
    if qreg_name is None:
        raise QasmError(ParseDiagnostic(1, 1, "program declares no qreg"))
    if measured:
        diagnostics += (ParseDiagnostic(line, 1, "measurement stripped", "warning")
                        for line in _statement_lines(statements, measured))
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
