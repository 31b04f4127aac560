"""State-preparation synthesis via recursive disentangling.

The disentangling direction maps the target state to |0...0> with uniformly
controlled rz/ry rotations on successive qubits; the emitted circuit is its
inverse.  A rotation with k controls costs 2^k rotations and 2^k cx
(Mottonen, Vartiainen, Bergholm & Salomaa, "Transformation of quantum states
using uniformly controlled rotations", QIC 5, 2005; Shende, Bullock & Markov,
"Synthesis of quantum-logic circuits", IEEE TCAD 25, 2006), so a dense
n-qubit state takes exactly 2(2^n - 1) rotations and 2^(n+1) - 4 cx: 16,378
gates, 8,188 of them cx, at 12 qubits.  Zero rotations are dropped, so a
sparse state takes fewer.  The result matches the target up to one global
phase.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, GateApplication
from .core import StateVector

_ANGLE_EPS = 1e-14


def _bloch_angles(pair: np.ndarray) -> tuple[complex, float, float]:
    """Decompose (alpha, beta) = r e^{it} (cos(th/2) e^{-i ph/2}, sin(th/2) e^{i ph/2})."""
    alpha, beta = pair
    mag = np.hypot(abs(alpha), abs(beta))
    if mag < 1e-300:
        return 0.0, 0.0, 0.0
    theta = 2.0 * np.arctan2(abs(beta), abs(alpha))
    phi_a = np.angle(alpha) if abs(alpha) > 0 else 0.0
    phi_b = np.angle(beta) if abs(beta) > 0 else phi_a
    phi = phi_b - phi_a
    t = 0.5 * (phi_a + phi_b)
    return mag * np.exp(1j * t), theta, phi


def _multiplexed_rotation(
    kind: str, angles: list[float], controls: list[int], target: int,
    closed: bool = True,
) -> list[GateApplication]:
    """Uniformly controlled ry or rz on `target`: angles[i] when the controls
    read i (controls[-1] the most significant bit), with 2^k cx for k controls.

    Mirrored sum/difference recursion: the plus half, cx(top, target), the
    minus half in reverse, cx(top, target).  Reversing a whole multiplexor
    leaves it unchanged (X R(theta) X = R(-theta), and every control flips
    the target an even number of times), and the halves' final cx, which
    would meet around cx(top, target), cancel because cx gates on one target
    commute; so each half is emitted open.  `closed=False` drops the final cx.
    """
    if all(abs(a) < _ANGLE_EPS for a in angles):
        if closed or not controls:
            return []
        return [GateApplication("cx", (controls[-1], target))]  # an open identity
    if not controls:
        return [GateApplication(kind, (target,), (angles[0],))]
    half = len(angles) // 2
    low, high = angles[:half], angles[half:]
    plus = [(a + b) / 2 for a, b in zip(low, high)]
    minus = [(a - b) / 2 for a, b in zip(low, high)]
    top = controls[-1]
    inner = controls[:-1]
    out = _multiplexed_rotation(kind, plus, inner, target, closed=False)
    out.append(GateApplication("cx", (top, target)))
    out += reversed(_multiplexed_rotation(kind, minus, inner, target, closed=False))
    if closed:
        out.append(GateApplication("cx", (top, target)))
    return out


def synthesize_state_prep(target: StateVector) -> Circuit:
    """Circuit preparing `target` from |0...0>, exact up to a global phase.

    The disentangler, which maps `target` to e^{i phase}|0...0>, applies
    rz(-phi) and ry(-theta) multiplexors; its adjoint, emitted here, is the
    same gates with the angles not negated, in reverse order.
    """
    n = target.num_qubits
    vec = target.amplitudes.copy()
    ops: list[GateApplication] = []
    for q in range(n):
        pairs = vec.reshape(-1, 2)  # qubit q is the LSB of the current vector
        reduced = np.empty(pairs.shape[0], dtype=complex)
        thetas = np.empty(pairs.shape[0])
        phis = np.empty(pairs.shape[0])
        for i, pair in enumerate(pairs):
            reduced[i], thetas[i], phis[i] = _bloch_angles(pair)
        controls = list(range(q + 1, n))
        ops += _multiplexed_rotation("rz", list(phis), controls, q)
        ops += _multiplexed_rotation("ry", list(thetas), controls, q)
        vec = reduced
    return Circuit(n, tuple(reversed(ops)), "state_prep")
