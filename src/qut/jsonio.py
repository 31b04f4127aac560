"""JSON interchange format for circuits and expected statevectors, and the
one loader of circuit files in either format.

Schema:
    { "num_qubits": int, "name": str,
      "gates": [ { "kind": str, "targets": [int], "params": [float],
                   "matrix": [[[re, im], ...], ...]   # custom gates only
                 } ] }
    { "amplitudes": [[re, im], ...] }                 # expected states only

Custom matrices with a small unitarity defect (<= 1e-3) are projected to the
nearest unitary (polar projection via SVD); larger defects are rejected.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from . import gates
from .circuit import Circuit, GateApplication
from .core import StateVector
from .qasm import ParseDiagnostic, parse_qasm

REUNITARIZE_MAX_DEFECT = 1e-3


class CircuitJsonError(ValueError):
    """Schema violation or non-unitary custom matrix."""


def nearest_unitary(matrix: np.ndarray) -> np.ndarray:
    """Polar projection: the unitary factor of the SVD."""
    u, _, vh = np.linalg.svd(np.asarray(matrix, dtype=complex))
    return u @ vh


def _unitarity_defect(m: np.ndarray) -> float:
    return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())


def _matrix_from_json(raw, num_targets: int) -> np.ndarray:
    dim = 1 << num_targets
    if not isinstance(raw, list):
        raise CircuitJsonError("'matrix' must be a list of rows")
    rows = [_complex_entries(row, "each matrix row") for row in raw]
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise CircuitJsonError(f"matrix is not {dim} x {dim} for {num_targets} target(s)")
    m = np.array(rows)
    defect = _unitarity_defect(m)
    if defect > REUNITARIZE_MAX_DEFECT:
        raise CircuitJsonError(
            f"matrix unitarity defect {defect:.3g} exceeds {REUNITARIZE_MAX_DEFECT}"
        )
    if defect > 1e-10:
        m = nearest_unitary(m)
    return m


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # finite, and an int that float() can hold
    return ((_is_int(value) or isinstance(value, float))
            and abs(value) <= sys.float_info.max)


def _list_of(entry: dict, key: str, accepts, what: str) -> list:
    values = entry.get(key, [])
    if not isinstance(values, list) or not all(accepts(v) for v in values):
        raise CircuitJsonError(f"'{key}' must be a list of {what}")
    return values


def _complex_entries(raw, what: str) -> list[complex]:
    # No entry past magnitude 2 fits a unitary within the projection's
    # defect bound or a normalized state; refusing them before any
    # arithmetic keeps numpy's overflow warnings out of the output.
    if not isinstance(raw, list) or not all(
        isinstance(pair, list) and len(pair) == 2
        and all(_is_real(v) and abs(v) <= 2 for v in pair)
        for pair in raw
    ):
        raise CircuitJsonError(
            f"{what} must be a list of [re, im] pairs of real numbers of magnitude <= 2"
        )
    return [complex(re, im) for re, im in raw]


def circuit_from_dict(data: dict) -> Circuit:
    """Circuit of a decoded JSON object; any schema violation, including an
    integer field given as a float or bool, raises CircuitJsonError."""
    if not isinstance(data, dict):
        raise CircuitJsonError("top-level JSON value must be an object")
    num_qubits = data.get("num_qubits")
    if not _is_int(num_qubits):
        raise CircuitJsonError(f"'num_qubits' must be an integer, got {num_qubits!r}")
    name = str(data.get("name", ""))
    built = []
    for entry in _list_of(data, "gates", lambda g: isinstance(g, dict), "objects"):
        kind = entry.get("kind")
        if not isinstance(kind, str):
            raise CircuitJsonError("each gate must be an object with a string 'kind'")
        targets = _list_of(entry, "targets", _is_int, "integers")
        params = _list_of(entry, "params", _is_real, "real numbers")
        matrix = None
        if kind == gates.CUSTOM:
            if "matrix" not in entry:
                raise CircuitJsonError("custom gate requires a 'matrix'")
            matrix = _matrix_from_json(entry["matrix"], len(targets))
        elif kind not in gates.CATALOG:
            raise CircuitJsonError(f"unknown gate kind '{kind}'")
        try:
            built.append(GateApplication(kind, tuple(targets), tuple(params), matrix))
        except (ValueError, IndexError) as exc:
            raise CircuitJsonError(str(exc))
    try:
        return Circuit(num_qubits, tuple(built), name)
    except (ValueError, IndexError) as exc:
        raise CircuitJsonError(str(exc))


def circuit_to_dict(c: Circuit) -> dict:
    out_gates = []
    for g in c.gates:
        entry: dict = {"kind": g.kind, "targets": list(g.targets),
                       "params": list(g.params)}
        if g.matrix is not None:
            entry["matrix"] = _matrix_to_json(g.matrix)
        out_gates.append(entry)
    return {"num_qubits": c.num_qubits, "name": c.name, "gates": out_gates}


def _decode(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep
        raise CircuitJsonError(f"invalid JSON: {exc}")


def parse_json(text: str) -> Circuit:
    return circuit_from_dict(_decode(text))


def emit_json(c: Circuit) -> str:
    """The circuit as JSON with one gate object per line.  Each object is
    written whole by json's C encoder, which an `indent` would bypass."""
    gate_lines = ",\n".join(json.dumps(g) for g in circuit_to_dict(c)["gates"])
    head = f'{{"num_qubits": {json.dumps(c.num_qubits)}, "name": {json.dumps(c.name)}'
    return f'{head}, "gates": [\n{gate_lines}\n]}}'


def load_circuit(path: str | Path, diagnostics: list[ParseDiagnostic] | None = None,
                 states: bool = False) -> Circuit | StateVector:
    """The circuit in a file: JSON for a `.json` suffix, QASM otherwise, with
    QASM warnings appended to `diagnostics`.  With `states`, a JSON object
    {"amplitudes": ...} loads as a StateVector.  Bytes that are not UTF-8
    read as U+FFFD, as in `parse_qasm`.  Raises OSError, QasmError or
    CircuitJsonError."""
    path = Path(path)
    text = path.read_bytes().decode("utf-8", errors="replace")
    if path.suffix != ".json":
        return parse_qasm(text, diagnostics)
    data = _decode(text)
    if states and isinstance(data, dict) and "amplitudes" in data:
        amplitudes = _complex_entries(data["amplitudes"], "amplitudes")
        try:
            return StateVector.from_amplitudes(np.array(amplitudes, dtype=complex))
        except ValueError as exc:
            raise CircuitJsonError(f"bad statevector: {exc}")
    return circuit_from_dict(data)
