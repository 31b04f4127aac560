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

Outcomes below PROB_FLOOR are never drawn: `_support` is that rule for
every sampler here, and `testing.statistical_p_value` and the bench's
min-shot search read it too.
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


def _support(probs: np.ndarray) -> np.ndarray:
    return probs >= PROB_FLOOR  # the outcomes the samplers can draw


def _floored(probs: np.ndarray) -> np.ndarray:
    return np.where(_support(probs), probs, 0.0)


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
