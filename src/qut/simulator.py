"""Noise-free statevector evolution and seeded measurement sampling.

Sampling draws from the exact output distribution by inverse-CDF over the
cumulative probability array; two-outcome laws (a shot fails or not) are
sampled as a stream of uniform draws.  The generator is numpy's default PCG64
seeded explicitly, so a (circuit, shots, seed) triple fully determines the
stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .circuit import Circuit, apply_gate
from .core import StateVector

PROB_FLOOR = 1e-16
# Uniform draws held at once by `first_failing_shot`: 512 KiB of doubles.
_DRAW_CHUNK = 1 << 16


@dataclass(frozen=True)
class ShotStream:
    """Ordered measurement outcomes as basis-state indices (qubit 0 = LSB)."""

    num_qubits: int
    values: np.ndarray = field(repr=False)
    seed: int = 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.int64).copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def bitstrings(self) -> list[str]:
        return [format(v, f"0{self.num_qubits}b") for v in self.values]

    def first_nonzero(self) -> int | None:
        """1-based index of the first nonzero outcome, or None."""
        nz = np.flatnonzero(self.values)
        return int(nz[0]) + 1 if nz.size else None


def run_statevector(c: Circuit) -> StateVector:
    """Apply the circuit's gates to |0...0> in order."""
    state = StateVector.zero(c.num_qubits)
    for g in c.gates:
        state = apply_gate(state, g)
    return state


def _cdf(probs: np.ndarray) -> np.ndarray:
    p = np.where(probs < PROB_FLOOR, 0.0, probs)
    return np.cumsum(p)


def sample_from_probs(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Inverse-CDF sampling of `shots` basis indices from `probs`."""
    cdf = _cdf(probs)
    rng = np.random.default_rng(seed)
    u = rng.random(shots) * cdf[-1]
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def first_failing_shot(
    fails: Callable[[np.ndarray], np.ndarray], shots: int, seed: int
) -> int | None:
    """1-based index of the first of `shots` seeded uniform draws in [0, 1)
    for which `fails` holds, or None.

    The draws are the stream of `rng.random(shots)`, taken in chunks, so
    memory stays bounded by the chunk size whatever the shot count.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, shots, _DRAW_CHUNK):
        hit = np.flatnonzero(fails(rng.random(min(_DRAW_CHUNK, shots - start))))
        if hit.size:
            return start + int(hit[0]) + 1
    return None


def marginal_probability_one(state: StateVector, qubit: int) -> float:
    """P(qubit = 1) in the given state."""
    if qubit < 0 or qubit >= state.num_qubits:
        raise IndexError("qubit index out of range")
    idx = np.arange(1 << state.num_qubits)
    mask = (idx >> qubit) & 1
    return float(state.probabilities()[mask == 1].sum())


def marginal_sample(c: Circuit, qubit: int, shots: int, seed: int) -> ShotStream:
    """S seeded measurements of a single qubit's marginal distribution."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p1 = marginal_probability_one(run_statevector(c), qubit)
    if p1 < PROB_FLOOR:
        p1 = 0.0
    rng = np.random.default_rng(seed)
    bits = (rng.random(shots) < p1).astype(np.int64)
    return ShotStream(1, bits, seed)
