"""JSON interchange format for circuits.

Schema:
    { "num_qubits": int, "name": str,
      "gates": [ { "kind": str, "targets": [int], "params": [float],
                   "matrix": [[[re, im], ...], ...]   # custom gates only
                 } ] }

Custom matrices with a small unitarity defect (<= 1e-3) are projected to the
nearest unitary (polar projection via SVD); larger defects are rejected.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from . import gates
from .circuit import Circuit, GateApplication

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
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in raw])
    except (TypeError, ValueError) as exc:
        raise CircuitJsonError(f"malformed matrix entry: {exc}")
    dim = 1 << num_targets
    if m.shape != (dim, dim):
        raise CircuitJsonError(
            f"matrix shape {m.shape} does not match {num_targets} target(s)"
        )
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


def parse_json(text: str) -> Circuit:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitJsonError(f"invalid JSON: {exc}")
    return circuit_from_dict(data)


def emit_json(c: Circuit) -> str:
    return json.dumps(circuit_to_dict(c), indent=2)
