"""Helpers that only the tests call: random states, pure-state density
matrices, marginal sampling, a Chernoff-bound minimum, and circuit inversion,
the swap and inverse harnesses and structural equality, which check no input:
the oracles that the acceptance criteria and unit tests check qut against.

Each draws only from the generator or seed it is given, so the criteria
that use them draw fixed streams.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar

from qut.circuit import Circuit, GateApplication, compose
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


def qcb_minimum(rho: DensityMatrix, sigma: DensityMatrix) -> tuple[float, float]:
    """(min_s Tr(rho^s sigma^(1-s)), argmin s) over s in [0, 1] for full-rank
    rho and sigma, from one eigendecomposition of each: the trace is
    sum_ij a_i^s b_j^(1-s) |<u_i|v_j>|^2.  SciPy's bounded scalar search
    gives the interior minimum, which is compared with both endpoints."""
    a, u = np.linalg.eigh(rho.entries)
    b, v = np.linalg.eigh(sigma.entries)
    overlap = np.abs(u.conj().T @ v) ** 2

    def trace(s: float) -> float:
        return float(a ** s @ overlap @ b ** (1.0 - s))

    found = minimize_scalar(trace, bounds=(0.0, 1.0), method="bounded",
                            options={"xatol": 1e-10})
    return min((trace(0.0), 0.0), (trace(1.0), 1.0), (float(found.fun), float(found.x)))


def inverse_gate(g: GateApplication) -> GateApplication:
    """Adjoint gate: U -> U^dagger, s <-> sdg, t <-> tdg, first parameter negated."""
    if g.matrix is not None:
        return GateApplication(g.kind, g.targets, (), g.matrix.conj().T)
    kind = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}.get(g.kind, g.kind)
    return GateApplication(kind, g.targets, [-p for p in g.params[:1]] + list(g.params[1:]))


def inverse_circuit(c: Circuit) -> Circuit:
    """The adjoint circuit: gate order reversed, each gate inverted."""
    return Circuit(c.num_qubits, [inverse_gate(g) for g in reversed(c.gates)])


def swap_harness(prep_a: Circuit, prep_e: Circuit) -> Circuit:
    """Ancilla on qubit 0, the preparations on qubits 1..n and n+1..2n, then
    H, n cswaps and H: the ancilla reads 1 with probability (1 - F) / 2."""
    n, h = prep_a.num_qubits, GateApplication("h", (0,))
    body = [GateApplication(g.kind, [q + offset for q in g.targets], g.params, g.matrix)
            for offset, prep in ((1, prep_a), (1 + n, prep_e)) for g in prep.gates]
    return Circuit(2 * n + 1, [*body, h, *(GateApplication("cswap", (0, i, n + i))
                                           for i in range(1, n + 1)), h])


def inverse_harness(w: Circuit, u: Circuit, expected: Circuit) -> Circuit:
    """W.U.E^dagger, E preparing the expected state: nonzero w.p. 1 - F."""
    return compose(w, u, inverse_circuit(expected))


def same_structure(a: Circuit, b: Circuit) -> bool:
    """Same width and gates, custom matrices compared to 15 digits."""
    keys = [[c.num_qubits] + [(g.kind, g.targets, g.params, None if g.matrix is None
                               else g.matrix.round(15).tolist()) for g in c.gates] for c in (a, b)]
    return keys[0] == keys[1]
