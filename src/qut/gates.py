"""Gate catalog: matrices, arities, inverses, and syntactic-equivalence classes.

Matrix convention: for a k-qubit gate applied to targets (t_0, ..., t_{k-1}),
bit j (with j = 0 the least significant bit) of the matrix row/column index
corresponds to target t_j.  Controlled gates list their control qubits first.
"""

from __future__ import annotations

from cmath import exp
from dataclasses import dataclass
from math import cos, sin
from typing import Callable

import numpy as np

SQRT2_INV = 1.0 / np.sqrt(2.0)

# Kind of a gate backed by an explicit unitary matrix (not part of the
# named catalog; producible only through the JSON interchange format).
CUSTOM = "unitary"


def _rx(theta: float) -> np.ndarray:
    c, s = cos(theta / 2), sin(theta / 2)
    return np.array((c, -1j * s, -1j * s, c), dtype=complex).reshape(2, 2)


def _ry(theta: float) -> np.ndarray:
    c, s = cos(theta / 2), sin(theta / 2)
    return np.array((c, -s, s, c), dtype=complex).reshape(2, 2)


def _rz(theta: float) -> np.ndarray:
    return np.array((exp(-0.5j * theta), 0, 0, exp(0.5j * theta)),
                    dtype=complex).reshape(2, 2)


def _p(theta: float) -> np.ndarray:
    return np.array((1, 0, 0, exp(1j * theta)), dtype=complex).reshape(2, 2)


def _r(theta: float, phi: float) -> np.ndarray:
    # exp[-i theta/2 (cos(phi) X + sin(phi) Y)]
    c, s = cos(theta / 2), sin(theta / 2)
    return np.array(
        (c, -1j * s * exp(-1j * phi), -1j * s * exp(1j * phi), c), dtype=complex
    ).reshape(2, 2)


def controlled(base: np.ndarray, num_controls: int = 1) -> np.ndarray:
    """Control `base` on `num_controls` qubits; controls occupy the low index bits."""
    mask = (1 << num_controls) - 1
    out = np.eye(base.shape[0] << num_controls, dtype=complex)
    # the indices whose control bits are all set: mask, mask + 2^c, ...
    out[mask::mask + 1, mask::mask + 1] = base
    return out


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT2_INV
_S = np.diag([1, 1j]).astype(complex)
_T = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


@dataclass(frozen=True)
class GateSpec:
    """Static description of one catalog gate kind."""

    name: str
    arity: int
    num_params: int
    matrix_fn: Callable[..., np.ndarray]
    # inverse: (kind name, parameter sign vector); self-inverse gates map to
    # themselves with empty signs, rotations negate their angle(s).
    inverse_name: str
    param_signs: tuple[int, ...] = ()


def _fixed(m: np.ndarray) -> Callable[..., np.ndarray]:
    # every application shares this one matrix, so nothing may write to it
    m.flags.writeable = False
    return lambda: m


CATALOG: dict[str, GateSpec] = {}


def _add(name, arity, num_params, matrix_fn, inverse_name=None, param_signs=()):
    CATALOG[name] = GateSpec(
        name, arity, num_params, matrix_fn, inverse_name or name, param_signs
    )


_add("id", 1, 0, _fixed(np.eye(2, dtype=complex)))
_add("x", 1, 0, _fixed(_X))
_add("y", 1, 0, _fixed(_Y))
_add("z", 1, 0, _fixed(_Z))
_add("h", 1, 0, _fixed(_H))
_add("s", 1, 0, _fixed(_S), "sdg")
_add("sdg", 1, 0, _fixed(_S.conj().T), "s")
_add("t", 1, 0, _fixed(_T), "tdg")
_add("tdg", 1, 0, _fixed(_T.conj().T), "t")
_add("rx", 1, 1, _rx, param_signs=(-1,))
_add("ry", 1, 1, _ry, param_signs=(-1,))
_add("rz", 1, 1, _rz, param_signs=(-1,))
_add("p", 1, 1, _p, param_signs=(-1,))
_add("r", 1, 2, _r, param_signs=(-1, 1))
_add("cx", 2, 0, _fixed(controlled(_X)))
_add("cy", 2, 0, _fixed(controlled(_Y)))
_add("cz", 2, 0, _fixed(controlled(_Z)))
_add("swap", 2, 0, _fixed(_SWAP))
_add("crx", 2, 1, lambda t: controlled(_rx(t)), param_signs=(-1,))
_add("cry", 2, 1, lambda t: controlled(_ry(t)), param_signs=(-1,))
_add("crz", 2, 1, lambda t: controlled(_rz(t)), param_signs=(-1,))
_add("cp", 2, 1, lambda t: controlled(_p(t)), param_signs=(-1,))
_add("ccx", 3, 0, _fixed(controlled(_X, 2)))
_add("cswap", 3, 0, _fixed(controlled(_SWAP, 1)))


# Syntactic-equivalence classes: gates interchangeable without breaking the
# call signature (same arity and parameter count).  `r` is alone in its class.
EQUIVALENCE_CLASSES: tuple[frozenset[str], ...] = (
    frozenset({"id", "x", "y", "z", "h", "s", "sdg", "t", "tdg"}),
    frozenset({"rx", "ry", "rz", "p"}),
    frozenset({"r"}),
    frozenset({"cx", "cy", "cz", "swap"}),
    frozenset({"crx", "cry", "crz", "cp"}),
    frozenset({"ccx", "cswap"}),
)

_CLASS_OF: dict[str, frozenset[str]] = {
    name: cls for cls in EQUIVALENCE_CLASSES for name in cls
}


def equivalence_class(kind: str) -> frozenset[str]:
    """Return the syntactic-equivalence class containing `kind`."""
    return _CLASS_OF[kind]


def _exchanges(m: np.ndarray) -> tuple[tuple[int, int], ...] | None:
    """Index pairs that `m` exchanges when it is a 0/1 permutation matrix and
    its own inverse; None for any other matrix."""
    source = np.abs(m).argmax(axis=1)  # (m @ v)[i] = v[source[i]]
    if (not np.array_equal(m, np.eye(len(m))[source])
            or (source[source] != np.arange(len(m))).any()):
        return None
    return tuple((i, int(j)) for i, j in enumerate(source) if j > i)


# Fixed catalog gates whose matrix is a self-inverse 0/1 permutation, with
# the basis-index pairs each exchanges: applying such a gate moves amplitudes
# and multiplies none, so `circuit.evolve` exchanges them in place.
EXCHANGES: dict[str, tuple[tuple[int, int], ...]] = {
    name: pairs for name, spec in CATALOG.items()
    if spec.num_params == 0 and (pairs := _exchanges(spec.matrix_fn())) is not None
}


def gate_matrix(kind: str, params: tuple[float, ...] = ()) -> np.ndarray:
    spec = CATALOG[kind]
    if len(params) != spec.num_params:
        raise ValueError(
            f"gate '{kind}' takes {spec.num_params} parameter(s), got {len(params)}"
        )
    return spec.matrix_fn(*params)


def is_unitary(matrix: np.ndarray, atol: float = 1e-10) -> bool:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=atol))
