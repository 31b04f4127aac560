"""The four quantum unit-test families: Statistical (plus Monte Carlo
variants), Swap, Statevector, and Inverse.

Each test runs the input preparation W and the program under test U on the
embedded simulator and asserts on the outcome against the expected state.
The statistical tests sample the measured distribution of W.U.  The swap and
inverse tests sample their per-shot outcome law, a function of the fidelity
F = |<psi_E|psi_A>|^2 alone (`first_failure_under_law`); the harness circuits
that realize those laws on hardware are built by `circuit.build_swap_harness`
and `circuit.build_inverse_harness`.

`statevector_verdict(actual, expected).passed` at its defaults is the one
"same state?" predicate: the mutant filter, the shot planner, the bench and
the swap and inverse verdicts all ask it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .circuit import Circuit, compose
from .core import StateVector, check_same_width, fidelity, global_phase_aligned
from .simulator import (
    MAX_SHOTS,
    PROB_FLOOR,
    first_failing_shot,
    multinomial_counts,
    run_statevector,
)

STAT_KINDS = ("chi2", "g_test", "multinomial")
MC_KINDS = ("mc_chi2", "mc_g", "mc_multinomial")

PEARSON_MIN_SHOTS = 13
DEFAULT_TOLERANCE = 1e-10
MULTINOMIAL_ENUM_LIMIT = 10**6

# ExpectedSpec: either a preparation circuit for |psi_E> or the vector itself.
ExpectedSpec = Circuit | StateVector


class MultinomialIntractableError(ValueError):
    """Exact multinomial enumeration too large; use the MC variant."""


@dataclass(frozen=True)
class TestVerdict:
    outcome: str  # "pass" | "fail"
    p_value: float | None = None
    first_failure_shot: int | None = None
    max_amplitude_deviation: float | None = None
    warnings: tuple[str, ...] = ()
    # swap and inverse only: F, and the per-shot failure probability drawn
    # from (0.0 when the states pass the "same state?" predicate)
    fidelity: float | None = None
    failure_probability: float | None = None

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"


def expected_state(expected: ExpectedSpec) -> StateVector:
    if isinstance(expected, StateVector):
        return expected
    return run_statevector(expected)


def gof_statistic(counts: np.ndarray, expected_counts: np.ndarray, kind: str) -> np.ndarray:
    """Goodness-of-fit statistic of each row (the last axis) of `counts`:
    Pearson's sum (c - e)^2 / e for the chi2 kinds, and G = 2 sum c ln(c/e),
    with 0 ln 0 = 0, for the G kinds."""
    if kind in ("chi2", "mc_chi2"):
        return ((counts - expected_counts) ** 2 / expected_counts).sum(axis=-1)
    ratio = np.divide(counts, expected_counts,
                      out=np.ones_like(counts, dtype=float), where=counts > 0)
    return 2.0 * (counts * np.log(ratio)).sum(axis=-1)


def _multinomial_logpmf(x: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """log Multinomial(n, p) pmf of each row of x, in SciPy's own formula."""
    from scipy.special import gammaln, xlogy

    return gammaln(n + 1) + np.sum(xlogy(x, p) - gammaln(x + 1), axis=-1)


def exact_multinomial_p_value(observed: np.ndarray, probs: np.ndarray) -> float:
    """p = sum of probabilities of count vectors no more likely than observed.

    Enumerates every composition of S into k categories; guarded by
    MULTINOMIAL_ENUM_LIMIT.
    """
    k = len(probs)
    shots = int(observed.sum())
    if comb(shots + k - 1, k - 1) > MULTINOMIAL_ENUM_LIMIT:
        raise MultinomialIntractableError(
            f"{comb(shots + k - 1, k - 1)} count vectors exceed enumeration "
            f"limit {MULTINOMIAL_ENUM_LIMIT}; use the Monte Carlo variant"
        )
    log_obs = _multinomial_logpmf(observed, shots, probs)
    total = 0.0
    vec = np.zeros(k, dtype=np.int64)

    def rec(idx: int, remaining: int):
        nonlocal total
        if idx == k - 1:
            vec[idx] = remaining
            lp = _multinomial_logpmf(vec, shots, probs)
            if lp <= log_obs + 1e-9:
                total += np.exp(lp)
            return
        for c in range(remaining + 1):
            vec[idx] = c
            rec(idx + 1, remaining - c)

    rec(0, shots)
    return float(min(total, 1.0))


def _support(probs: np.ndarray) -> np.ndarray:
    return probs >= PROB_FLOOR  # the outcomes `multinomial_counts` can draw


def _on_support(counts: np.ndarray, probs: np.ndarray):
    """The support rule of every goodness-of-fit p-value: p = 0.0 for a count
    outside the expected support, p = 1.0 for a one-outcome support, else the
    float counts on the support and the probabilities renormalized over it."""
    support = _support(probs)
    if counts[~support].sum() > 0:
        return 0.0
    if support.sum() == 1:
        return 1.0
    return counts[support].astype(float), probs[support] / probs[support].sum()


def statistical_p_value(
    counts: np.ndarray, probs: np.ndarray, kind: str
) -> float:
    """Goodness-of-fit p-value of observed counts against expected probabilities.

    Counts and probs are indexed by basis state; `_on_support` decides the
    out-of-support and single-category cases.  The chi2 and G tails are
    `chdtrc(K - 1, stat)`, with a statistic that rounds below zero read as 0.
    """
    from scipy.special import chdtrc

    reduced = _on_support(counts, probs)
    if isinstance(reduced, float):
        return reduced
    obs, p = reduced
    if kind in ("chi2", "g_test"):
        stat = gof_statistic(obs, int(counts.sum()) * p, kind)
        return float(chdtrc(len(p) - 1, max(stat, 0.0)))
    if kind == "multinomial":
        return exact_multinomial_p_value(obs.astype(np.int64), p)
    raise ValueError(f"unknown statistical kind '{kind}'")


def _check_shots(shots: int) -> None:
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must lie in [1, {MAX_SHOTS}], got {shots}")


def _check_statistical_args(shots: int, p_threshold: float, kind: str,
                            kinds: tuple[str, ...]) -> None:
    _check_shots(shots)
    if not 0.0 < p_threshold < 1.0:
        raise ValueError("p threshold must lie in (0, 1)")
    if kind not in kinds:
        raise ValueError(f"kind must be one of {kinds}")


def _sampled_counts(
    w: Circuit, u: Circuit, expected: ExpectedSpec, shots: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of `shots` seeded measurements of W.U, and |psi_E>'s
    distribution, both by basis state; widths are checked before any draw."""
    actual = run_statevector(compose(w, u))
    target = expected_state(expected)
    check_same_width(actual, target)
    return multinomial_counts(actual.probabilities(), shots, seed), target.probabilities()


def statistical_test(
    w: Circuit,
    u: Circuit,
    expected: ExpectedSpec,
    shots: int,
    p_threshold: float,
    kind: str,
    seed: int,
) -> TestVerdict:
    """Sample W.U and compare the histogram with |psi_E>'s distribution."""
    _check_statistical_args(shots, p_threshold, kind, STAT_KINDS)
    counts, probs = _sampled_counts(w, u, expected, shots, seed)
    p = statistical_p_value(counts, probs, kind)
    warns = ()
    if shots < PEARSON_MIN_SHOTS:
        warns = (f"fewer than {PEARSON_MIN_SHOTS} observations; "
                 "the asymptotic p-value is unreliable",)
    return TestVerdict("pass" if p >= p_threshold else "fail", p_value=p,
                       warnings=warns)


def _discrepancy_scores(
    synthetic: np.ndarray, expected_counts: np.ndarray, probs: np.ndarray, kind: str
) -> np.ndarray:
    """Per-row score for MC comparison; lower = more extreme."""
    from scipy.special import chdtrc

    if kind in ("mc_chi2", "mc_g"):
        stat = gof_statistic(synthetic, expected_counts, kind)
        return chdtrc(len(probs) - 1, np.maximum(stat, 0.0))
    if kind == "mc_multinomial":
        return _multinomial_logpmf(synthetic, int(synthetic[0].sum()), probs)
    raise ValueError(f"unknown Monte Carlo kind '{kind}'")


def mc_p_value(
    counts: np.ndarray,
    probs: np.ndarray,
    kind: str,
    repetitions: int,
    rng: np.random.Generator,
) -> float:
    """Empirical p-value of observed counts against expected probabilities.

    p is (number of `repetitions` synthetic count vectors, drawn from `probs`
    with `rng`, at least as extreme as observed) / repetitions, with no
    continuity correction.  The support rule `_on_support` applies.
    """
    reduced = _on_support(counts, probs)
    if isinstance(reduced, float):
        return reduced
    obs, p_sup = reduced
    shots = int(counts.sum())
    expected_counts = shots * p_sup
    observed = _discrepancy_scores(obs[None, :], expected_counts, p_sup, kind)[0]
    synthetic = rng.multinomial(shots, p_sup, size=repetitions).astype(float)
    scores = _discrepancy_scores(synthetic, expected_counts, p_sup, kind)
    return float((scores <= observed + 1e-12).sum() / repetitions)


def mc_statistical_test(
    w: Circuit,
    u: Circuit,
    expected: ExpectedSpec,
    shots: int,
    p_threshold: float,
    kind: str,
    repetitions: int,
    seed: int,
) -> TestVerdict:
    """Monte Carlo statistical test: `mc_p_value` of W.U's sampled histogram."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    _check_statistical_args(shots, p_threshold, kind, MC_KINDS)
    counts, probs = _sampled_counts(w, u, expected, shots, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4D43]))  # "MC"
    p = mc_p_value(counts, probs, kind, repetitions, rng)
    return TestVerdict("pass" if p >= p_threshold else "fail", p_value=p)


def failure_probability(test: str, f: float) -> float:
    """Per-shot failure probability q of the swap or inverse test at
    fidelity F: (1 - F)/2 that the swap ancilla reads 1, and 1 - F that
    W.U.Z measures a nonzero bitstring."""
    if test == "swap":
        return (1.0 - f) / 2.0
    if test == "inverse":
        return 1.0 - f
    raise ValueError(f"no per-shot law for test '{test}'")


def first_failure_under_law(test: str, f: float, shots: int, seed: int) -> int | None:
    """First failing shot of the swap or inverse test at fidelity F, or None.

    Shots fail independently with probability q = `failure_probability`, so
    the first failure is one seeded Geometric(q) draw (`first_failing_shot`),
    None when it lies past `shots`; nothing is drawn when q is 0.
    """
    return first_failing_shot(failure_probability(test, f), shots, seed)


def _law_verdict(
    test: str, w: Circuit, u: Circuit, expected: ExpectedSpec, shots: int, seed: int
) -> TestVerdict:
    _check_shots(shots)
    actual, target = run_statevector(compose(w, u)), expected_state(expected)
    f = fidelity(actual, target)
    if statevector_verdict(actual, target).passed:
        return TestVerdict("pass", fidelity=f, failure_probability=0.0)
    first = first_failure_under_law(test, f, shots, seed)
    return TestVerdict("pass" if first is None else "fail", first_failure_shot=first,
                       fidelity=f, failure_probability=failure_probability(test, f))


def swap_test(
    w: Circuit, u: Circuit, expected: ExpectedSpec, shots: int, seed: int
) -> TestVerdict:
    """Pass iff the swap-harness ancilla reads 0 on every shot."""
    return _law_verdict("swap", w, u, expected, shots, seed)


def statevector_verdict(
    actual: StateVector,
    expected: StateVector,
    tolerance: float = DEFAULT_TOLERANCE,
    mode: str = "global_phase",
) -> TestVerdict:
    """Pass iff the largest element-wise |actual - expected| is at most
    `tolerance`.

    In global_phase mode (the default) the actual state is first rotated so
    its largest-magnitude amplitude agrees in phase with the expected one;
    strict mode compares the amplitudes as they are.  Raises ValueError for a
    negative or NaN tolerance and DimensionMismatchError for states of
    different widths.
    """
    if mode not in ("strict", "global_phase"):
        raise ValueError("mode must be 'strict' or 'global_phase'")
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    check_same_width(actual, expected)
    amps = actual.amplitudes
    if mode == "global_phase":
        amps = global_phase_aligned(amps, expected.amplitudes)
    deviation = float(np.abs(amps - expected.amplitudes).max())
    return TestVerdict("pass" if deviation <= tolerance else "fail",
                       max_amplitude_deviation=deviation)


def statevector_test(
    w: Circuit,
    u: Circuit,
    expected: ExpectedSpec,
    tolerance: float = DEFAULT_TOLERANCE,
    mode: str = "global_phase",
) -> TestVerdict:
    """`statevector_verdict` of W.U's output against |psi_E>."""
    return statevector_verdict(run_statevector(compose(w, u)),
                               expected_state(expected), tolerance, mode)


def inverse_test(
    w: Circuit, u: Circuit, expected: ExpectedSpec, shots: int, seed: int
) -> TestVerdict:
    """Pass iff every measured bitstring of W.U.Z is all-zeros."""
    return _law_verdict("inverse", w, u, expected, shots, seed)
