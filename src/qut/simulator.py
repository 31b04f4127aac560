"""Noise-free statevector evolution and seeded measurement sampling.

The generator is numpy's default PCG64 seeded explicitly, so a (circuit,
shots, seed) triple fully determines every sample.  Three samplers draw from
it:

- `multinomial_counts`: the statistical verdicts' histogram, one multinomial
  draw of the shot count over the output distribution, so its cost grows with
  the number of outcomes and not with the shot count.
- `first_failing_shot`: the swap and inverse laws, where every shot fails
  independently with one probability q, so the first failing shot is
  Geometric(q): one draw, whatever the shot count.
- `sample_from_probs`: a realized sequence of basis indices by inverse-CDF,
  for callers that read its prefixes (the bench's min-shot search).
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, evolve
from .core import StateVector

PROB_FLOOR = 1e-16
# Widest register `run_statevector` evolves: 2^24 amplitudes are 256 MiB.
MAX_QUBITS = 24
# Largest shot count the samplers hold: numpy draws counts as int64.
MAX_SHOTS = 2 ** 63 - 1


def run_statevector(c: Circuit) -> StateVector:
    """Apply the circuit's gates to |0...0> in order.

    Raises ValueError, before allocating, for more than MAX_QUBITS qubits.
    """
    if c.num_qubits > MAX_QUBITS:
        raise ValueError(f"register of {c.num_qubits} qubits exceeds the "
                         f"{MAX_QUBITS}-qubit simulation guard")
    amps = np.zeros(1 << c.num_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(c.num_qubits, evolve(amps, c.gates))


def _floored(probs: np.ndarray) -> np.ndarray:
    return np.where(probs < PROB_FLOOR, 0.0, probs)


def sample_from_probs(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Inverse-CDF sampling of `shots` basis indices from `probs`."""
    cdf = np.cumsum(_floored(probs))
    rng = np.random.default_rng(seed)
    u = rng.random(shots) * cdf[-1]
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def multinomial_counts(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Counts per basis state of `shots` seeded measurements of `probs`.

    One `default_rng(seed).multinomial` draw over the outcomes at or above
    PROB_FLOOR, renormalized; outcomes below the floor are never counted.
    """
    p = _floored(probs)
    support = np.flatnonzero(p)
    counts = np.zeros(len(probs), dtype=np.int64)
    counts[support] = np.random.default_rng(seed).multinomial(
        shots, p[support] / p[support].sum())
    return counts


def first_failing_shot(q: float, shots: int, seed: int) -> int | None:
    """1-based index of the first failing shot of `shots`, each failing
    independently with probability q, or None if none fails.

    One `default_rng(seed).geometric(q)` draw; nothing is drawn for q <= 0.
    numpy clamps the draw to 2^63 - 1, so it never overflows.
    """
    if q <= 0.0:
        return None
    k = np.random.default_rng(seed).geometric(q)
    return int(k) if k <= shots else None


def marginal_probability_one(state: StateVector, qubit: int) -> float:
    """P(qubit = 1) in the given state."""
    if qubit < 0 or qubit >= state.num_qubits:
        raise IndexError("qubit index out of range")
    idx = np.arange(1 << state.num_qubits)
    mask = (idx >> qubit) & 1
    return float(state.probabilities()[mask == 1].sum())


def marginal_sample(c: Circuit, qubit: int, shots: int, seed: int) -> np.ndarray:
    """S seeded measurements (int64 bits, in shot order) of a single qubit's
    marginal distribution."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p1 = marginal_probability_one(run_statevector(c), qubit)
    if p1 < PROB_FLOOR:
        p1 = 0.0
    rng = np.random.default_rng(seed)
    return (rng.random(shots) < p1).astype(np.int64)
