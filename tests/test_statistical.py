import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from qut import bench, testing
from qut.circuit import Circuit, GateApplication, random_circuit
from qut.simulator import (
    multinomial_counts,
    run_statevector,
    sample_from_probs,
)
from qut.testing import (
    MC_KINDS,
    MultinomialIntractableError,
    STAT_KINDS,
    exact_multinomial_p_value,
    first_failure_under_law,
    gof_statistic,
    inverse_test,
    statistical_p_value,
    statistical_test,
    swap_test,
)

H_CIRCUIT = Circuit(1, (GateApplication("h", (0,)),))
EMPTY_1Q = Circuit(1)


class TestStatistics:
    def test_chi2_matches_scipy(self):
        obs = np.array([480.0, 520.0])
        exp = np.array([500.0, 500.0])
        scipy_stat, _ = stats.chisquare(obs, exp)
        for kind in ("chi2", "mc_chi2"):
            assert gof_statistic(obs, exp, kind) == pytest.approx(scipy_stat)

    def test_g_matches_scipy_power_divergence(self):
        obs = np.array([480.0, 520.0, 0.0])
        exp = np.array([500.0, 499.0, 1.0])
        scipy_stat, _ = stats.power_divergence(obs, exp,
                                               lambda_="log-likelihood")
        for kind in ("g_test", "mc_g"):
            assert gof_statistic(obs, exp, kind) == pytest.approx(scipy_stat)

    def test_statistic_is_computed_per_row(self):
        # each row of a 2-D count array gets the statistic of that row alone
        rng = np.random.default_rng(0)
        counts = rng.multinomial(50, [0.2, 0.3, 0.5], size=6).astype(float)
        counts[0, 1] = 0.0
        exp = 50 * np.array([0.25, 0.25, 0.5])
        for kind in ("chi2", "g_test"):
            rows = gof_statistic(counts, exp, kind)
            assert rows.shape == (6,)
            for row, stat in zip(counts, rows):
                assert gof_statistic(row, exp, kind) == stat

    def test_negative_g_rounding_reads_as_perfect_fit(self):
        # counts equal to their expectation up to rounding: G comes out a
        # few ulp below zero, where chdtrc is NaN; the tail must be 1
        counts = np.array([21, 29, 30, 25])
        probs = np.sqrt(counts / 105) ** 2
        expected = 105 * (probs / probs.sum())
        assert gof_statistic(counts.astype(float), expected, "g_test") < 0
        for kind in ("chi2", "g_test"):
            assert statistical_p_value(counts, probs, kind) == 1.0
        assert statistical_p_value(counts, probs, "mc_g", 200, [0]) == 1.0

    def test_p_value_against_scipy(self):
        counts = np.array([480, 520])
        probs = np.array([0.5, 0.5])
        _, scipy_p = stats.chisquare(counts, 1000 * probs)
        assert statistical_p_value(counts, probs, "chi2") == pytest.approx(scipy_p)

    def test_out_of_support_is_p_zero(self):
        counts = np.array([10, 1])
        probs = np.array([1.0, 0.0])
        for kind in STAT_KINDS:
            assert statistical_p_value(counts, probs, kind) == 0.0

    def test_single_category_support_is_p_one(self):
        counts = np.array([50, 0])
        probs = np.array([1.0, 0.0])
        assert statistical_p_value(counts, probs, "chi2") == 1.0


def _recursive_multinomial_p_value(observed, probs):
    """Oracle: the exact multinomial p-value, one composition at a time in a
    recursion over the categories."""
    k = len(probs)
    shots = int(observed.sum())
    log_obs = testing._multinomial_logpmf(observed, shots, probs)
    total = 0.0
    vec = np.zeros(k, dtype=np.int64)

    def rec(idx, remaining):
        nonlocal total
        if idx == k - 1:
            vec[idx] = remaining
            lp = testing._multinomial_logpmf(vec, shots, probs)
            if lp <= log_obs + 1e-9:
                total += np.exp(lp)
            return
        for c in range(remaining + 1):
            vec[idx] = c
            rec(idx + 1, remaining - c)

    rec(0, shots)
    return float(min(total, 1.0))


class TestExactMultinomial:
    def test_binomial_oracle(self):
        # two categories: the exact multinomial p-value reduces to summing
        # binomial pmf values no larger than the observed one
        p = exact_multinomial_p_value(np.array([9, 1]), np.array([0.5, 0.5]))
        pm = stats.binom.pmf(np.arange(11), 10, 0.5)
        assert p == pytest.approx(pm[pm <= pm[9] + 1e-12].sum())

    def test_three_category_brute_force(self):
        probs = np.array([0.2, 0.3, 0.5])
        obs = np.array([4, 2, 4])
        got = exact_multinomial_p_value(obs, probs)
        obs_p = stats.multinomial.pmf(obs, 10, probs)
        total = 0.0
        for i in range(11):
            for j in range(11 - i):
                vec = [i, j, 10 - i - j]
                q = stats.multinomial.pmf(vec, 10, probs)
                if q <= obs_p * (1 + 1e-9):
                    total += q
        assert got == pytest.approx(total)

    def test_modal_observation_has_p_one(self):
        p = exact_multinomial_p_value(np.array([5, 5]), np.array([0.5, 0.5]))
        assert p == pytest.approx(1.0)

    def test_enumeration_guard(self):
        with pytest.raises(MultinomialIntractableError):
            exact_multinomial_p_value(np.array([10 ** 6, 10 ** 6]),
                                      np.array([0.5, 0.5]))

    @settings(max_examples=150, deadline=None)
    @given(probs=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
           shots=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1),
           chunk=st.sampled_from([1, 5, 64, testing._ENUM_CHUNK]))
    def test_matches_the_recursive_enumeration(self, probs, shots, seed, chunk):
        # small chunks put the chunk edges inside the enumeration
        p = np.array(probs) / sum(probs)
        observed = np.random.default_rng(seed).multinomial(shots, p)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(testing, "_ENUM_CHUNK", chunk)
            got = exact_multinomial_p_value(observed, p)
        assert got == pytest.approx(_recursive_multinomial_p_value(observed, p),
                                    rel=0, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 2), depth=st.integers(1, 4),
           seeds=st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)),
           base_seed=st.integers(0, 2 ** 64 - 1), cap=st.integers(1, 40))
    def test_bench_rows_match_the_recursive_enumeration(self, n, depth, seeds,
                                                        base_seed, cap):
        pairs = [bench.CorpusPair("p", random_circuit(n, depth, seed=seeds[0]),
                                  random_circuit(n, depth, seed=seeds[1]))]
        config = bench.ExperimentConfig(tests=("multinomial",), repetitions=2,
                                        base_seed=base_seed, shot_cap_absolute=cap)
        rows = bench.run_benchmark(pairs, config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(testing, "exact_multinomial_p_value",
                          _recursive_multinomial_p_value)
            assert bench.run_benchmark(pairs, config) == rows


class TestStatisticalTest:
    def test_correct_program_passes(self):
        # a correct program fails only by chance: its false alarms over 400
        # seeds are Binomial(400, a), where a is the exact chance that 2000
        # fair shots give p < 0.05 (a = 0.0517); the count must lie within
        # that law's 1e-6 tails
        shots, seeds = 2000, 400
        x = np.arange(shots + 1)
        rejected = stats.chi2.sf((x - shots / 2) ** 2 / (shots / 4), 1) < 0.05
        alarms = stats.binom(seeds, stats.binom.pmf(x, shots, 0.5)[rejected].sum())
        fails = 0
        for seed in range(seeds):
            v = statistical_test(EMPTY_1Q, H_CIRCUIT, H_CIRCUIT, shots, 0.05,
                                 "chi2", seed=seed)
            assert v.passed == (v.p_value >= 0.05)
            fails += not v.passed
        assert alarms.ppf(1e-6) <= fails <= alarms.isf(1e-6)

    def test_outcome_the_sampler_draws_is_in_the_support(self):
        # ry(2 asin(sqrt(1e-13))) against itself at 10^14 shots: the sampler
        # draws the 1e-13 outcome about ten times, so the p-value's support
        # must hold it.  Its count X is Binomial(shots, p1), and chi2 or g
        # alarms with chance a = P(X in the counts scipy rejects); an MC
        # p-value alarms with chance at most p_t.  The alarms over 20 seeds
        # must lie within Binomial(20, a)'s 1e-6 tails.
        theta = 2 * math.asin(math.sqrt(1e-13))
        ry = Circuit(1, (GateApplication("ry", (0,), (theta,)),))
        probs = run_statevector(ry).probabilities()
        shots, seeds = 10 ** 14, 20
        x = np.arange(100)
        pmf = stats.binom.pmf(x, shots, probs[1])
        expected = shots * probs
        scipy_p = {
            "chi2": [stats.chisquare([shots - k, k], expected)[1] for k in x],
            "g_test": [stats.power_divergence([shots - k, k], expected,
                                              lambda_="log-likelihood")[1]
                       for k in x],
        }
        for kind in ("chi2", "g_test", "mc_chi2"):
            a = (0.05 if kind in MC_KINDS
                 else pmf[np.array(scipy_p[kind]) < 0.05].sum())
            alarms = stats.binom(seeds, a)
            fails = sum(not statistical_test(EMPTY_1Q, ry, ry, shots, 0.05, kind,
                                             seed=seed).passed
                        for seed in range(seeds))
            assert alarms.ppf(1e-6) <= fails <= alarms.isf(1e-6), (kind, fails)

    def test_impossible_outcome_fails_with_p_zero(self):
        # expected |0>, program produces a superposition
        v = statistical_test(EMPTY_1Q, H_CIRCUIT, EMPTY_1Q, 200, 0.05,
                             "chi2", seed=4)
        assert not v.passed and v.p_value == 0.0

    def test_pearson_floor_warning(self):
        # only chi2 and G rely on the asymptotic chi-square tail; the exact
        # multinomial and Monte Carlo p-values hold at any shot count
        for kind in STAT_KINDS + MC_KINDS:
            v = statistical_test(EMPTY_1Q, H_CIRCUIT, H_CIRCUIT, 12, 0.05,
                                 kind, seed=4, mc_reps=50)
            assert bool(v.warnings) == (kind in ("chi2", "g_test")), kind

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            statistical_test(EMPTY_1Q, H_CIRCUIT, H_CIRCUIT, 100, 0.05,
                             "nope", seed=0)

    def test_null_calibration(self):
        # false-positive rate near p_t on correct programs
        fails = sum(
            not statistical_test(EMPTY_1Q, H_CIRCUIT, H_CIRCUIT, 10 ** 4,
                                 0.05, "chi2", seed=s).passed
            for s in range(1000)
        )
        assert 0.005 <= fails / 1000 <= 0.12

    def test_g_test_null_calibration(self):
        fails = sum(
            not statistical_test(EMPTY_1Q, H_CIRCUIT, H_CIRCUIT, 10 ** 4,
                                 0.05, "g_test", seed=s).passed
            for s in range(1000)
        )
        assert 0.005 <= fails / 1000 <= 0.12


class TestMonteCarlo:
    def test_correct_program_mostly_passes(self):
        passes = sum(
            statistical_test(EMPTY_1Q, H_CIRCUIT, H_CIRCUIT, 500, 0.05,
                             "mc_chi2", seed=s, mc_reps=1000).passed
            for s in range(200)
        )
        # pass rate approx 1 - p_t with MC standard error ~0.007
        assert passes / 200 >= 0.90

    def test_modal_observation_p_near_one(self):
        v = statistical_test(EMPTY_1Q, EMPTY_1Q, EMPTY_1Q, 100, 0.05,
                             "mc_multinomial", seed=1, mc_reps=500)
        assert v.passed and v.p_value == pytest.approx(1.0)

    def test_impossible_outcome_fails(self):
        v = statistical_test(EMPTY_1Q, H_CIRCUIT, EMPTY_1Q, 100, 0.05,
                             "mc_g", seed=1, mc_reps=500)
        assert not v.passed and v.p_value == 0.0

    def test_empirical_p_is_count_over_m(self):
        v = statistical_test(EMPTY_1Q, H_CIRCUIT, H_CIRCUIT, 200, 0.05,
                             "mc_chi2", seed=3, mc_reps=137)
        assert v.p_value is not None
        assert abs(v.p_value * 137 - round(v.p_value * 137)) < 1e-9

    def test_all_mc_kinds_run(self):
        for kind in MC_KINDS:
            v = statistical_test(EMPTY_1Q, H_CIRCUIT, H_CIRCUIT, 100, 0.05,
                                 kind, seed=2, mc_reps=200)
            assert v.outcome in ("pass", "fail")

    def test_wrong_distribution_detected(self):
        x = Circuit(1, (GateApplication("x", (0,)),))
        for kind in MC_KINDS:
            v = statistical_test(EMPTY_1Q, x, H_CIRCUIT, 2000, 0.05,
                                 kind, seed=2, mc_reps=500)
            assert not v.passed, kind


class TestStreamContract:
    """Per-seed counts of the statistical verdicts, pinned: each is one
    `default_rng(seed).multinomial` draw over the outcomes at or above
    PROB_FLOOR.  A change that moves these breaks seeded reproducibility and
    must be recorded as a new stream version."""

    def test_seeded_counts_are_pinned(self):
        ry = Circuit(2, (GateApplication("h", (0,)),
                         GateApplication("ry", (1,), (0.7,))))
        probs = run_statevector(ry).probabilities()
        assert multinomial_counts(np.array([0.5, 0.5]), 10 ** 7,
                                  seed=0).tolist() == [5001989, 4998011]
        assert multinomial_counts(probs, 1000, seed=1).tolist() == [434, 459, 52, 55]
        assert multinomial_counts(np.array([0.0, 0.25, 1e-17, 0.75]), 100,
                                  seed=2).tolist() == [0, 22, 0, 78]

    def test_seeded_p_value_is_pinned(self):
        v = statistical_test(EMPTY_1Q, H_CIRCUIT, H_CIRCUIT, 10 ** 7, 0.05,
                             "chi2", seed=0)
        assert v.p_value == pytest.approx(0.20840837346703991, rel=1e-9)

    @staticmethod
    def _h_ry(theta):
        return Circuit(2, (GateApplication("h", (0,)),
                           GateApplication("ry", (1,), (theta,))))

    def test_seeded_monte_carlo_p_values_are_pinned(self):
        # ry(0.75) against ry(0.7) at 1000 shots; the synthetic histograms
        # come from the seed sequence [seed, 0x4D43]
        pinned = {"mc_chi2": (0.18, 0.768, 0.135),
                  "mc_g": (0.198, 0.766, 0.165),
                  "mc_multinomial": (0.183, 0.751, 0.138)}
        for kind, p_values in pinned.items():
            for seed, p in enumerate(p_values):
                v = statistical_test(Circuit(2), self._h_ry(0.75), self._h_ry(0.7),
                                     1000, 0.05, kind, seed=seed)
                assert v.p_value == p, (kind, seed)

    def test_bench_monte_carlo_crossing_is_pinned(self):
        # the bench's per-prefix scan: prefix s draws its synthetic
        # histograms from the seed sequence [seed, s, 0x4D43]
        probs = run_statevector(self._h_ry(0.7)).probabilities()
        mutant = run_statevector(self._h_ry(0.9)).probabilities()
        pinned = {("mc_chi2", 5): 29, ("mc_g", 6): 44, ("mc_multinomial", 7): 78}
        for (kind, seed), crossing in pinned.items():
            values = sample_from_probs(mutant, 2000, seed)
            assert bench.min_shots_statistical(
                values, probs, kind, 0.05, 2000, seed=seed, mc_reps=200
            ) == crossing, (kind, seed)


class TestLawStreamContract:
    """Per-seed first failing shots of swap and inverse, pinned (stream
    version 3): each is one `default_rng(seed).geometric(q)` draw, with
    q = (1 - F)/2 for swap and 1 - F for inverse.  A change that moves these
    must be recorded as a new stream version."""

    def test_seeded_first_failures_are_pinned(self):
        assert first_failure_under_law("swap", 0.75, 100, seed=1) == 9
        assert first_failure_under_law("inverse", 0.75, 100, seed=1) == 4
        assert first_failure_under_law("inverse", 0.999, 10 ** 4, seed=2) == 130
        assert first_failure_under_law("swap", 0.999, 10 ** 4, seed=2) == 260

    def test_perturbed_hadamard_at_1e7_is_pinned(self):
        # the paper's buggy Hadamard, 1 - F = 6.05e-7
        bug = Circuit(1, (GateApplication(
            "ry", (0,), (2.0 * math.atan2(0.7077, 0.7066),)),))
        pinned = {0: (2247985, 1123993), 1: (3547639, 1773820),
                  2: (429346, 214673)}
        for seed, (swap, inverse) in pinned.items():
            assert swap_test(EMPTY_1Q, bug, H_CIRCUIT, 10 ** 7,
                             seed).first_failure_shot == swap
            assert inverse_test(EMPTY_1Q, bug, H_CIRCUIT, 10 ** 7,
                                seed).first_failure_shot == inverse
