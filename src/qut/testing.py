"""The four quantum unit-test families: Statistical (plus Monte Carlo
variants), Swap, Statevector, and Inverse.

Each test runs the input preparation W and the program under test U on the
embedded simulator and asserts on the outcome against the expected state.
The statistical tests sample the measured distribution of W.U: one verdict,
`statistical_test`, and one p-value, `statistical_p_value`, serve all six
kinds (`STAT_KINDS` and the Monte Carlo `MC_KINDS`), and the bench's
min-shot scan decides every prefix with the same p-value.  Their support,
the outcomes that can occur, is `simulator`'s floor, and every Monte Carlo
seed sequence ends in `MC_SEED_TAG`.  The swap and inverse tests sample
their per-shot outcome law, a function of the fidelity F = |<psi_E|psi_A>|^2
alone (`first_failure_under_law`); the harness circuits that realize those
laws on hardware are built by `circuit.build_swap_harness` and
`circuit.build_inverse_harness`.

`statevector_verdict(actual, expected).passed` at its defaults is the one
"same state?" predicate: the mutant filter, the shot planner, the bench and
the swap and inverse verdicts all ask it, and read the pair's fidelity from
the same verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .circuit import Circuit, compose
from .core import StateVector, check_same_width, fidelity, global_phase_aligned
from .simulator import (
    MAX_SHOTS,
    _support,
    first_failing_shot,
    multinomial_counts,
    run_statevector,
)

STAT_KINDS = ("chi2", "g_test", "multinomial")
MC_KINDS = ("mc_chi2", "mc_g", "mc_multinomial")

PEARSON_MIN_SHOTS = 13
DEFAULT_TOLERANCE = 1e-10
MULTINOMIAL_ENUM_LIMIT = 10**6
_ENUM_CHUNK = 1 << 18  # counts per array of the exact and Monte Carlo multinomial p-values
MC_SEED_TAG = 0x4D43  # "MC": the last entry of every Monte Carlo seed sequence

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
    # F = |<psi_E|psi_A>|^2 (statevector, swap and inverse), and the swap and
    # inverse per-shot failure probability drawn from (0.0 when the states
    # pass the "same state?" predicate)
    fidelity: float | None = None
    failure_probability: float | None = None
    warnings: tuple[str, ...] = ()

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

    Enumerates every composition of S into k categories.  A composition is
    k - 1 bar positions among S + k - 1 slots (stars and bars);
    `itertools.combinations` lists them in the lexicographic order of the
    counts, and about `_ENUM_CHUNK` counts go through one
    `_multinomial_logpmf` call at a time, so memory stays bounded.  The
    probabilities are added one at a time in that order.  The work is about
    vectors x k counts, so the guard bounds vectors x max(k, 16) by
    16 x MULTINOMIAL_ENUM_LIMIT: up to k = 16 (a 4-qubit register) that is
    MULTINOMIAL_ENUM_LIMIT vectors, and past it the same number of counts.
    With at least one shot and two outcomes there are at least S + k - 1
    vectors, so a refusal that this settles computes no binomial coefficient,
    which alone takes about 33 s (2 vCPU) for 10^6 shots over 2^20 outcomes.
    """
    k = len(probs)
    shots = int(observed.sum())
    limit = 16 * MULTINOMIAL_ENUM_LIMIT // max(k, 16)
    if ((shots >= 1 and k >= 2 and shots + k - 1 > limit)
            or (vectors := comb(shots + k - 1, k - 1)) > limit):
        raise MultinomialIntractableError(
            f"count vectors of {shots} shots over {k} outcomes exceed enumeration "
            f"limit {limit}; use the Monte Carlo variant"
        )
    log_obs = _multinomial_logpmf(observed, shots, probs)
    bars = combinations(range(shots + k - 1), k - 1)
    rows = max(1, _ENUM_CHUNK // k)
    total = 0.0
    for start in range(0, vectors, rows):
        n = min(rows, vectors - start)
        edges = np.empty((n, k + 1), dtype=np.int64)
        edges[:, 0], edges[:, k] = -1, shots + k - 1
        edges[:, 1:k] = np.fromiter(chain.from_iterable(islice(bars, n)), np.int64,
                                    n * (k - 1)).reshape(n, k - 1)
        lp = _multinomial_logpmf(np.diff(edges) - 1, shots, probs)
        # add.accumulate adds left to right; np.sum would add pairwise
        total = np.add.accumulate(np.r_[total, np.exp(lp[lp <= log_obs + 1e-9])])[-1]
    return float(min(total, 1.0))


def statistical_p_value(
    counts: np.ndarray,
    probs: np.ndarray,
    kind: str,
    mc_reps: int = 1000,
    mc_seed: list[int] | None = None,
) -> float:
    """Goodness-of-fit p-value of observed counts against expected
    probabilities, both indexed by basis state, for any of the six kinds.

    The support rule: a count outside the expected support gives p = 0.0, a
    one-outcome support p = 1.0, and otherwise the K outcomes of the support
    are compared with the probabilities renormalized over it.  The chi2 and
    G tails are `chdtrc(K - 1, stat)`, with a statistic that rounds below
    zero read as 0; `multinomial` is exact.  A Monte Carlo kind's p is the
    share of `mc_reps` count vectors, drawn from `default_rng(mc_seed)`,
    scoring at most the observed one (no continuity correction): the score
    is the chi2 or G tail, or the multinomial log-pmf.  The vectors are
    drawn and scored about `_ENUM_CHUNK` counts at a time, so memory stays
    bounded whatever `mc_reps` is; a Monte Carlo kind needs `mc_reps` >= 1.
    """
    if kind in MC_KINDS and mc_reps < 1:
        raise ValueError("mc_reps must be >= 1")
    from scipy.special import chdtrc

    support = _support(probs)
    if counts[~support].sum() > 0:
        return 0.0
    if support.sum() == 1:
        return 1.0
    obs = counts[support].astype(float)
    p = probs[support] / probs[support].sum()
    shots = int(counts.sum())
    expected_counts = shots * p
    if kind in ("chi2", "g_test"):
        stat = gof_statistic(obs, expected_counts, kind)
        return float(chdtrc(len(p) - 1, max(stat, 0.0)))
    if kind == "multinomial":
        return exact_multinomial_p_value(obs.astype(np.int64), p)
    if kind not in MC_KINDS:
        raise ValueError(f"unknown statistical kind '{kind}'")

    def score(rows: np.ndarray) -> np.ndarray:  # lower = more extreme
        if kind == "mc_multinomial":
            return _multinomial_logpmf(rows, shots, p)
        stat = gof_statistic(rows, expected_counts, kind)
        return chdtrc(len(p) - 1, np.maximum(stat, 0.0))

    # successive draws continue one generator's stream: the rows of one big draw
    rng = np.random.default_rng(mc_seed)
    threshold = score(obs[None, :])[0] + 1e-12
    rows = max(1, _ENUM_CHUNK // len(p))
    hits = sum(int((score(rng.multinomial(shots, p, size=min(rows, mc_reps - start))
                          .astype(float)) <= threshold).sum())
               for start in range(0, mc_reps, rows))
    return hits / mc_reps


def _check_draw(shots: int, seed: int) -> None:
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must lie in [1, {MAX_SHOTS}], got {shots}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def statistical_test(
    w: Circuit,
    u: Circuit,
    expected: ExpectedSpec,
    shots: int,
    p_threshold: float,
    kind: str,
    seed: int,
    mc_reps: int = 1000,
) -> TestVerdict:
    """Sample W.U `shots` times and compare the histogram with |psi_E>'s
    distribution by `statistical_p_value`.  A Monte Carlo kind draws its
    `mc_reps` synthetic histograms from the seed sequence [seed, MC_SEED_TAG]."""
    _check_draw(shots, seed)
    if not 0.0 < p_threshold < 1.0:
        raise ValueError("p threshold must lie in (0, 1)")
    if kind not in STAT_KINDS + MC_KINDS:
        raise ValueError(f"kind must be one of {STAT_KINDS + MC_KINDS}")
    actual = run_statevector(compose(w, u))
    target = expected_state(expected)
    check_same_width(actual, target)  # before any draw
    counts = multinomial_counts(actual.probabilities(), shots, seed)
    p = statistical_p_value(counts, target.probabilities(), kind, mc_reps,
                            [seed, MC_SEED_TAG])
    warns = ()
    if kind in ("chi2", "g_test") and shots < PEARSON_MIN_SHOTS:
        warns = (f"fewer than {PEARSON_MIN_SHOTS} observations; "
                 "the asymptotic p-value is unreliable",)
    return TestVerdict("pass" if p >= p_threshold else "fail", p_value=p,
                       warnings=warns)


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
    _check_draw(shots, seed)
    same = statevector_verdict(run_statevector(compose(w, u)), expected_state(expected))
    f = same.fidelity
    if same.passed:
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
    `tolerance`.  The verdict also carries F = `fidelity(actual, expected)`,
    the pair's one fidelity, which every caller reads from it.

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
                       max_amplitude_deviation=deviation,
                       fidelity=fidelity(actual, expected))


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
