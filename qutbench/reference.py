"""Reference computations the benchmark checks qut's outputs against.

Nothing here calls qut's `core`, `simulator` or `testing` modules: states are
evolved by a separate tensordot kernel, and only the gate matrices are taken
from the catalog in `qut.gates` (read straight from `CATALOG`, so a traced
run does not count these look-ups as calls into the program).

Detection counts are checked against the exact distribution of a sum of
independent Bernoulli variables, so a correct program trips a check with
probability at most the `alpha` it is given.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from qut import gates

# The statevector test's documented amplitude tolerance.
AMPLITUDE_TOLERANCE = 1e-10
# Shot planning calls a pair equivalent at sigma_11 >= 1 - 1e-15.
EQUIVALENT_SIGMA11 = 1.0 - 1e-15


def gate_unitary(gate) -> np.ndarray:
    if gate.kind == gates.CUSTOM:
        return np.asarray(gate.matrix, dtype=complex)
    return np.asarray(gates.CATALOG[gate.kind].matrix_fn(*gate.params), dtype=complex)


def evolve(circuit, state: np.ndarray | None = None) -> np.ndarray:
    """Amplitudes of `circuit` applied to `state` (default |0...0>).

    Index bit q is qubit q; matrix index bit j acts on targets[j].
    """
    n = circuit.num_qubits
    if state is None:
        state = np.zeros(1 << n, dtype=complex)
        state[0] = 1.0
    psi = np.asarray(state, dtype=complex).reshape((2,) * n)  # axis i = qubit n-1-i
    for g in circuit.gates:
        k = len(g.targets)
        m = gate_unitary(g).reshape((2,) * (2 * k))  # row bits k-1..0, then column bits
        axes = [n - 1 - g.targets[k - 1 - i] for i in range(k)]
        psi = np.moveaxis(np.tensordot(m, psi, axes=(range(k, 2 * k), axes)), range(k), axes)
    return psi.reshape(-1)


def overlap(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for unit vectors."""
    return float(min(abs(np.vdot(a, b)) ** 2, 1.0))


def phase_aligned_deviation(actual: np.ndarray, expected: np.ndarray) -> float:
    """Largest amplitude difference after rotating `actual` so its largest
    amplitude carries the phase of `expected`'s amplitude at that index."""
    idx = int(np.argmax(np.abs(actual)))
    rotated = actual * np.exp(1j * (np.angle(expected[idx]) - np.angle(actual[idx])))
    return float(np.abs(rotated - expected).max())


def planned_shots(sigma11: float, p_e: float) -> int:
    """max(ceil(ln p_e / ln sigma_11), 1); one shot for orthogonal states."""
    if sigma11 <= 0.0:
        return 1
    return max(math.ceil(math.log(p_e) / math.log(sigma11)), 1)


def shots_agree(reported: int, sigma11: float, p_e: float) -> bool:
    """The reported plan is max(ceil(r), 1) for some r within rounding of
    r = ln p_e / ln sigma_11.  sigma_11 computed two ways may differ by about
    1e-15, which moves r by r * 1e-15 / (sigma_11 |ln sigma_11|): up to a few
    shots when sigma_11 is within 1e-8 of 1."""
    if not 0.0 < sigma11 < 1.0:
        return reported == planned_shots(sigma11, p_e)
    ratio = math.log(p_e) / math.log(sigma11)
    slack = ratio * (1e-15 / (sigma11 * abs(math.log(sigma11))) + 1e-12)
    return max(math.ceil(ratio - slack), 1) <= reported <= max(math.ceil(ratio + slack), 1)


def diagonal_qcb_exponent(p: np.ndarray, q: np.ndarray) -> float:
    """-ln min_{s in [0,1]} sum_i p_i^s q_i^(1-s) for full-support distributions.

    The sum is convex in s, so a bounded scalar minimization finds the minimum.
    """
    lp, lq = np.log(p), np.log(q)

    def f(s: float) -> float:
        return float(np.exp(s * lp + (1.0 - s) * lq).sum())

    best = optimize.minimize_scalar(f, bounds=(0.0, 1.0), method="bounded",
                                    options={"xatol": 1e-10})
    value = min(float(best.fun), f(0.0), f(1.0))
    return -math.log(value)


def detection_count_pmf(probs) -> np.ndarray:
    """Distribution of the number of successes of independent trials with
    success probabilities `probs` (Poisson-binomial), by dynamic programming."""
    pmf = np.ones(1)
    for p in probs:
        pmf = np.append(pmf * (1.0 - p), 0.0) + np.append(0.0, pmf * p)
    return pmf


def detections_within_law(detected: int, probs, alpha: float) -> tuple[bool, str]:
    """Whether `detected` successes are consistent with independent trials of
    success probabilities `probs`: both tails of the exact count distribution
    at `detected` must hold at least alpha / 2."""
    pmf = detection_count_pmf(probs)
    low, high = float(pmf[:detected + 1].sum()), float(pmf[detected:].sum())
    mean = float(np.dot(np.arange(len(pmf)), pmf))
    return min(low, high) >= alpha / 2, (
        f"{detected} detections, law expects {mean:.2f} (tails {low:.2g} / {high:.2g})")
