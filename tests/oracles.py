"""Helpers that only the tests call: random states, pure-state density
matrices and single-qubit marginal sampling, the oracles that the acceptance
criteria and unit tests check qut's laws against.

Each draws only from the generator or seed it is given, so the criteria
that use them draw fixed streams.
"""

from __future__ import annotations

import numpy as np

from qut.circuit import Circuit
from qut.core import DensityMatrix, StateVector
from qut.simulator import _support, run_statevector


def density_from_pure(state: StateVector) -> DensityMatrix:
    """Rank-1 projector |psi><psi|."""
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()))


def random_statevector(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-ish random pure state (Gaussian amplitudes, normalized)."""
    dim = 1 << num_qubits
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


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
    if not _support(p1):
        p1 = 0.0
    rng = np.random.default_rng(seed)
    return (rng.random(shots) < p1).astype(np.int64)
