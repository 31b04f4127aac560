"""Quantum-Chernoff-Bound shot planning.

The error exponent for discriminating the all-zeros reference state from a
buggy reversed state is -ln min_s Tr(rho^s sigma^(1-s)).  For the pure states
produced by noise-free simulation this collapses to -ln sigma_11, giving the
closed-form shot estimate max(ceil(ln P_e / ln sigma_11), 1).  For pure
states sigma_11, the weight of |0...0> in the reversed state Z U |0...0>,
equals the overlap |<psi_E|psi_A>|^2 of the expected and actual states, so
it is the fidelity of the two n-qubit states, read from their "same state?"
verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .circuit import Circuit
from .core import DensityMatrix, DimensionMismatchError, fractional_power
from .simulator import run_statevector
from .testing import ExpectedSpec, TestVerdict, expected_state, statevector_verdict

# Past this sigma_11, ln sigma_11 has no significant digits: no finite plan.
EQUIVALENT_THRESHOLD = 1.0 - 1e-15
_GRID_POINTS = 101
_GOLDEN_TOL = 1e-6
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class EquivalentStatesError(ValueError):
    """The states pass `statevector_verdict`, or sigma_11 is too near 1 to plan."""


@dataclass(frozen=True)
class ShotEstimate:
    shots: int
    sigma11: float
    p_e: float

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")


def _qcb_trace(rho: DensityMatrix, sigma: DensityMatrix, s: float) -> float:
    value = np.trace(fractional_power(rho, s) @ fractional_power(sigma, 1.0 - s))
    return float(value.real)


def qcb_trace_minimum(rho: DensityMatrix, sigma: DensityMatrix) -> tuple[float, float]:
    """(min_s Tr(rho^s sigma^(1-s)), argmin s) over s in [0, 1].

    101-point grid refined with golden-section search to 1e-6 resolution in s.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError("density matrices differ in dimension")
    grid = np.linspace(0.0, 1.0, _GRID_POINTS)
    values = np.array([_qcb_trace(rho, sigma, s) for s in grid])
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, _GRID_POINTS - 1)]

    # golden-section refinement inside the bracketing grid cell
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = _qcb_trace(rho, sigma, c), _qcb_trace(rho, sigma, d)
    while b - a > _GOLDEN_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = _qcb_trace(rho, sigma, c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = _qcb_trace(rho, sigma, d)
    s_star = 0.5 * (a + b)
    refined = _qcb_trace(rho, sigma, s_star)
    if values[best] <= refined:
        return float(values[best]), float(grid[best])
    return refined, s_star


def qcb_exponent(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """-ln min_s Tr(rho^s sigma^(1-s)); infinite for orthogonal supports."""
    minimum, _ = qcb_trace_minimum(rho, sigma)
    if minimum <= 0.0:
        return math.inf
    return max(-math.log(minimum), 0.0)


def _check_error_probability(p_e: float) -> None:
    if not 0.0 < p_e < 1.0:  # nan too
        raise ValueError("error probability must lie in (0, 1)")


def estimate_shots(fidelity_to_zero: float, p_e: float) -> ShotEstimate:
    """Closed-form shot estimate for a pure reversed state.

    `fidelity_to_zero` is sigma_11, the overlap of the reversed output with
    |0...0>.  Orthogonal states need a single shot.
    """
    if not 0.0 <= fidelity_to_zero <= 1.0:
        raise ValueError("fidelity must lie in [0, 1]")
    _check_error_probability(p_e)
    if fidelity_to_zero >= EQUIVALENT_THRESHOLD:
        raise EquivalentStatesError("sigma_11 is within 1e-15 of 1, so ln sigma_11 "
                                    "has no significant digits; no shot plan")
    if fidelity_to_zero == 0.0:
        return ShotEstimate(1, 0.0, p_e)
    shots = max(math.ceil(math.log(p_e) / math.log(fidelity_to_zero)), 1)
    return ShotEstimate(shots, fidelity_to_zero, p_e)


def plan_shots(same: TestVerdict, p_e: float) -> ShotEstimate:
    """A pair's shot plan at the fidelity its "same state?" verdict carries;
    EquivalentStatesError for states that pass it."""
    if same.passed:
        raise EquivalentStatesError("states pass the statevector test; no shot plan")
    return estimate_shots(same.fidelity, p_e)


def estimate_shots_for_pair(
    expected: ExpectedSpec, mutant: Circuit, p_e: float = 0.05
) -> ShotEstimate:
    """Shot estimate for detecting `mutant` against the expected state, given
    as a preparation circuit (such as the original program) or as the state.

    sigma_11 is |<0...0| Z U |0...0>|^2, where U is the mutant and Z inverts
    a preparation of the expected state.  For pure states that is the
    overlap |<psi_E|U|0...0>|^2, the fidelity of the two n-qubit states.
    """
    _check_error_probability(p_e)  # before anything is simulated
    return plan_shots(statevector_verdict(run_statevector(mutant),
                                          expected_state(expected)), p_e)


def shot_curve(
    sigma11_range: Iterable[float], p_e_set: Iterable[float]
) -> list[tuple[float, float, int]]:
    """Tabulate (sigma_11, p_e, shots) over the requested grids."""
    rows = []
    for p_e in p_e_set:
        for s11 in sigma11_range:
            if not 0.0 < s11 < 1.0:
                raise ValueError("sigma11 range must lie in (0, 1)")
            rows.append((float(s11), float(p_e), estimate_shots(s11, p_e).shots))
    return rows
