"""Pure-state and density-matrix linear algebra.

Amplitude storage is a flat complex128 array indexed by the integer value of
the measured bitstring, with qubit 0 as the least significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NORM_ATOL = 1e-10
HERMITIAN_ATOL = 1e-10
EIGENVALUE_FLOOR = 1e-12


class DimensionMismatchError(ValueError):
    """Operands describe registers of different sizes."""


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of `num_qubits` qubits (2^n complex amplitudes)."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if amps.size != 1 << self.num_qubits:
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, got {amps.size}"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_ATOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        amps = np.zeros(1 << num_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(num_qubits, amps)

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "StateVector":
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = amps.size.bit_length() - 1
        if amps.size < 2 or 1 << n != amps.size:
            raise ValueError("amplitude count must be a power of two, >= 2")
        return cls(n, amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, trace-1 matrix on a 2^n-dimensional space."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex).copy()
        dim = m.shape[0]
        if m.ndim != 2 or m.shape[1] != dim or dim & (dim - 1) or dim < 2:
            raise ValueError("entries must be a square 2^n x 2^n matrix")
        if not np.allclose(m, m.conj().T, atol=HERMITIAN_ATOL):
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > HERMITIAN_ATOL or abs(np.trace(m).imag) > HERMITIAN_ATOL:
            raise ValueError("density matrix must have unit trace")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise ValueError("density matrix must be positive semidefinite")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def check_same_width(a: StateVector, b: StateVector) -> None:
    """Raise DimensionMismatchError unless a and b have the same qubit count."""
    if a.num_qubits != b.num_qubits:
        raise DimensionMismatchError(
            f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}"
        )


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> = sum_i conj(a_i) b_i."""
    check_same_width(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, clamped to [0, 1] against rounding."""
    overlap = abs(inner_product(a, b)) ** 2
    return min(max(overlap, 0.0), 1.0)


def density_from_pure(state: StateVector) -> DensityMatrix:
    """Rank-1 projector |psi><psi|."""
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()))


def fractional_power(dm: DensityMatrix, p: float) -> np.ndarray:
    """dm^p for p in [0, 1] via Hermitian eigendecomposition.

    Eigenvalues below EIGENVALUE_FLOOR are treated as exactly 0, with the
    convention 0^0 = 0, so p = 0 yields the support projector.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("exponent must lie in [0, 1]")
    evals, evecs = np.linalg.eigh(dm.entries)
    evals = np.where(evals < EIGENVALUE_FLOOR, 0.0, evals)
    powered = np.zeros_like(evals)
    support = evals > 0
    powered[support] = evals[support] ** p
    return (evecs * powered) @ evecs.conj().T


def global_phase_aligned(actual: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Rotate `actual` so its largest-magnitude amplitude matches `expected`'s phase."""
    idx = int(np.argmax(np.abs(actual)))
    if abs(actual[idx]) == 0.0:
        return actual
    phase = np.angle(expected[idx]) - np.angle(actual[idx])
    return actual * np.exp(1j * phase)


def random_statevector(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-ish random pure state (Gaussian amplitudes, normalized)."""
    dim = 1 << num_qubits
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))
