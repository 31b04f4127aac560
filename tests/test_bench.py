import hashlib
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from qut import bench, mutation, simulator
from qut.circuit import Circuit, GateApplication, random_circuit
from qut.qasm import emit_qasm
from qut.simulator import first_failing_shot, run_statevector, sample_from_probs
from qut.testing import (
    ALL_TESTS,
    MC_KINDS,
    STAT_KINDS,
    failure_probability,
    inverse_test,
    statistical_p_value,
    swap_test,
)


class TestSeedMixing:
    def test_deterministic(self):
        assert bench.mix_seed(0, "p1", "chi2", 3) == bench.mix_seed(0, "p1", "chi2", 3)

    def test_distinct_across_fields(self):
        base = bench.mix_seed(0, "p1", "chi2", 3)
        assert bench.mix_seed(1, "p1", "chi2", 3) != base
        assert bench.mix_seed(0, "p2", "chi2", 3) != base
        assert bench.mix_seed(0, "p1", "swap", 3) != base
        assert bench.mix_seed(0, "p1", "chi2", 4) != base

    def test_matches_documented_scheme(self):
        import hashlib
        digest = hashlib.sha256(b"7|pair|inverse|2").digest()
        assert bench.mix_seed(7, "pair", "inverse", 2) == \
            int.from_bytes(digest[:8], "big")


class TestDenseRank:
    def test_paper_example(self):
        assert bench.dense_rank([3, 7, 8, 7]) == [1, 2, 3, 2]

    def test_all_equal(self):
        assert bench.dense_rank([4, 4, 4]) == [1, 1, 1]

    def test_not_detected_ranks_last_shared(self):
        assert bench.dense_rank([5, None, 2]) == [2, 3, 1]
        assert bench.dense_rank([None, None, 1]) == [2, 2, 1]


class TestFirstFailureShot:
    """Bench swap and inverse rows take their first failing shot from the
    per-shot law at sigma_11."""

    def test_basic(self):
        # one Geometric(q) draw: q = 1 - F for inverse and (1 - F)/2 for swap;
        # at F = 0 every inverse shot fails and a swap shot half the time
        for seed in range(20):
            assert first_failing_shot(failure_probability("inverse", 0.0), 10, seed) == 1
            for test, f, q in (("swap", 0.0, 0.5), ("inverse", 0.75, 0.25),
                               ("swap", 0.75, 0.125)):
                k = np.random.default_rng(seed).geometric(q)
                assert failure_probability(test, f) == q
                assert first_failing_shot(q, 20, seed) == (k if k <= 20 else None), (q, seed)

    def test_all_zeros(self):
        for test in ("swap", "inverse"):
            assert first_failing_shot(failure_probability(test, 1.0), 10 ** 5, seed=0) is None


def _ry_layer_probs(angles):
    """Output distribution of one ry gate per qubit, at the given angles."""
    return run_statevector(Circuit(len(angles), tuple(
        GateApplication("ry", (q,), (a,)) for q, a in enumerate(angles)
    ))).probabilities()


class TestMinShots:
    def _naive(self, vals, probs, kind, p_t, cap, seed, mc_reps=200):
        k = len(probs)
        for s in range(1, cap + 1):
            counts = np.bincount(vals[:s], minlength=k)
            if statistical_p_value(counts, probs, kind, mc_reps,
                                   [seed, s, 0x4D43]) < p_t:
                return s
        return None

    def test_matches_naive_scan_on_20_small_pairs(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            k = 2 ** int(rng.integers(1, 3))  # n <= 2
            probs = rng.dirichlet(np.ones(k))
            mutant_probs = rng.dirichlet(np.ones(k))
            seed = int(rng.integers(1 << 32))
            cap = 512
            vals = sample_from_probs(mutant_probs, cap, seed)
            for kind in ("chi2", "g_test", "mc_chi2"):
                fast = bench.min_shots_statistical(
                    vals, probs, kind, 0.05, cap, seed=seed, mc_reps=200)
                slow = self._naive(vals, probs, kind, 0.05, cap, seed)
                assert fast == slow, (trial, kind)

    def test_mc_and_exact_kinds_match_naive_scan(self):
        # the counts grow one shot at a time; each prefix sees the same
        # counts and the same per-prefix Monte Carlo seed as a bincount
        rng = np.random.default_rng(1)
        found = set()
        for trial in range(6):
            k = 2 ** int(rng.integers(1, 3))
            probs = rng.dirichlet(np.ones(k))
            mutant_probs = probs if trial % 2 else rng.dirichlet(np.ones(k))
            seed = int(rng.integers(1 << 32))
            for kind, cap in (("mc_g", 128), ("multinomial", 24 // k)):
                vals = sample_from_probs(mutant_probs, cap, seed)
                fast = bench.min_shots_statistical(
                    vals, probs, kind, 0.05, cap, seed=seed, mc_reps=200)
                assert fast == self._naive(vals, probs, kind, 0.05, cap,
                                           seed), (trial, kind)
                found.add((kind, fast is None))
        assert len(found) == 4  # each kind both crosses and does not

    @staticmethod
    def _crossing_stream(target, kind, probs):
        """A balanced stream, then outcome 1 only, and a p_t between the
        p-values of prefixes target - 1 and target: the statistic grows
        along the run of 1s, so the first crossing is at `target`."""
        m = target - 40
        vals = np.r_[np.arange(m) % 2, np.ones(100, dtype=np.int64)]
        p_before, p_at = (
            statistical_p_value(np.bincount(vals[:s], minlength=len(probs)),
                                probs, kind)
            for s in (target - 1, target))
        return vals, math.sqrt(p_before * p_at)

    def test_crossing_at_block_edges(self):
        # the last prefix of a block and the first of the next, for the
        # first block and the second
        first = bench._FIRST_BLOCK_ROWS
        probs = np.array([0.5, 0.5])
        for target in (first, first + 1, 3 * first, 3 * first + 1):
            for kind in ("chi2", "g_test"):
                vals, p_t = self._crossing_stream(target, kind, probs)
                cap = len(vals)
                assert self._naive(vals, probs, kind, p_t, cap, 0) == target
                assert bench.min_shots_statistical(
                    vals, probs, kind, p_t, cap) == target, (target, kind)

    def test_dense_pair_over_element_capped_blocks(self, monkeypatch):
        # 6 qubits, 64 outcomes: with 16 rows per block every block is
        # capped by its element count, and the counts carry across up to
        # 125 blocks
        monkeypatch.setattr(bench, "_ENUM_CHUNK", 64 * 16)

        def layer(angle):
            return _ry_layer_probs([angle + 0.05 * q for q in range(6)])

        expected = layer(1.3)
        cap = 2000
        found = []
        for mutant in (layer(1.4), expected):
            vals = sample_from_probs(mutant, cap, seed=4)
            for kind in ("chi2", "g_test"):
                for p_t in (0.05, 1e-3):
                    fast = bench.min_shots_statistical(vals, expected, kind,
                                                       p_t, cap)
                    assert fast == self._naive(vals, expected, kind, p_t,
                                               cap, 0), (kind, p_t)
                    found.append(fast)
        assert None in found and max(f or 0 for f in found) > 6 * 16

    def test_out_of_support_sample_before_and_after_the_crossing(self):
        # the first out-of-support sample is a crossing with p = 0
        probs = np.array([0.5, 0.5, 0.0, 0.0])
        for kind in ("chi2", "g_test"):
            base, p_t = self._crossing_stream(300, kind, probs)
            for position, want in ((120, 120), (300, 300), (301, 300),
                                   (330, 300)):
                vals = base.copy()
                vals[position - 1] = 2
                cap = len(vals)
                assert self._naive(vals, probs, kind, p_t, cap, 0) == want
                assert bench.min_shots_statistical(
                    vals, probs, kind, p_t, cap) == want, (kind, position)

    def test_single_outcome_support(self):
        # K = 1: every in-support prefix has p = 1, so only an
        # out-of-support sample crosses
        probs = np.array([1.0, 0.0, 0.0, 0.0])
        inside = np.zeros(600, dtype=np.int64)
        outside_at_401 = inside.copy()
        outside_at_401[400] = 3
        for kind in ("chi2", "g_test"):
            for vals, want in ((inside, None), (outside_at_401, 401)):
                assert self._naive(vals, probs, kind, 0.05, 600, 0) == want
                assert bench.min_shots_statistical(
                    vals, probs, kind, 0.05, 600) == want, kind

    def test_critical_value_margin(self):
        # a statistic at or below the critical value must have sf > p_t,
        # for every dof of a support of up to 12 qubits; the smallest
        # relative gap is about 2.3e-9, at p = 0.05
        dof = np.arange(1, 4096)
        for p in (0.05, 0.01, 1e-3, 1e-6):
            crit = stats.chi2.isf(p, dof) * (1.0 - 1e-9)
            assert np.all(stats.chi2.sf(crit, dof) > p), p
            assert bench._critical_statistic(p, 7) == crit[6]

    def test_scan_memory_bounded_on_a_dense_10_qubit_pair(self):
        # O(block x K) counts, not O(cap x K): a full (10^4 x 1024) cumsum
        # alone is 78 MiB
        def layer(angle):
            return _ry_layer_probs([angle] * 10)

        expected = layer(math.pi / 2)
        cap = 10 ** 4
        early = sample_from_probs(layer(1.2), cap, seed=3)
        never = sample_from_probs(layer(math.pi / 2 + 0.01), cap, seed=3)
        for kind in ("chi2", "g_test"):
            for vals, crosses in ((early, True), (never, False)):
                tracemalloc.start()
                try:
                    found = bench.min_shots_statistical(vals, expected, kind,
                                                        1e-6, cap)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert (found is not None) == crosses, (kind, found)
                assert peak < 32 * 2 ** 20, (kind, crosses, peak)

    def test_orthogonal_pair_small(self):
        probs = np.array([1.0, 0.0])
        vals = sample_from_probs(np.array([0.0, 1.0]), 100, seed=0)
        found = bench.min_shots_statistical(vals, probs, "chi2", 0.05, 100)
        assert found is not None and found <= 13

    def test_near_equivalent_not_detected(self):
        probs = np.array([0.5, 0.5])
        vals = sample_from_probs(probs, 64, seed=5)
        # identical distribution rarely crosses in 64 shots with this seed
        found = bench.min_shots_statistical(vals, probs, "chi2", 1e-6, 64,
                                            seed=5)
        assert found is None

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(STAT_KINDS + MC_KINDS),
           weights=st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(any),
           draws=st.lists(st.integers(0, 3), min_size=1, max_size=48),
           cap=st.integers(1, 48),
           outside=st.one_of(st.none(), st.integers(-4, 4)),
           p_t=st.sampled_from([0.3, 0.05, 1e-3]),
           block_elements=st.integers(1, 24),
           first_rows=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_every_kind_matches_naive_scan(self, kind, weights, draws, cap, outside,
                                           p_t, block_elements, first_rows, seed):
        # zero weights are zero-probability outcomes, and one nonzero weight
        # a one-outcome support.  The stream draws from the support; an
        # out-of-support sample then replaces the shot `outside` shots from
        # the in-support stream's first crossing: before, at or after it.
        # Blocks of at most 24 counts put block edges inside every cap.
        probs = np.array(weights, dtype=float) / sum(weights)
        inside = np.flatnonzero(probs)
        vals = inside[np.array(draws) % inside.size]
        # at most 2,925 vectors a prefix for the exact multinomial
        cap = min(cap, len(vals), 24 if kind == "multinomial" else 48)
        if outside is not None and inside.size < len(probs):
            crossing = self._naive(vals, probs, kind, p_t, cap, seed, mc_reps=30)
            position = (cap if crossing is None else crossing) - 1 + outside
            vals[min(max(position, 0), len(vals) - 1)] = np.flatnonzero(probs == 0)[0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bench, "_ENUM_CHUNK", block_elements)
            patch.setattr(bench, "_FIRST_BLOCK_ROWS", first_rows)
            fast = bench.min_shots_statistical(vals, probs, kind, p_t, cap,
                                               seed=seed, mc_reps=30)
        assert fast == self._naive(vals, probs, kind, p_t, cap, seed, mc_reps=30)

    def test_chi2_crossing_is_decided_by_statistical_p_value(self, monkeypatch):
        # the crossing returned is the last prefix the scan asked
        # `statistical_p_value` about, and its answer was below p_t
        asked = []

        def spy(counts, *args):
            p = statistical_p_value(counts, *args)
            asked.append((int(counts.sum()), p))
            return p

        monkeypatch.setattr(bench, "statistical_p_value", spy)
        probs = np.array([0.5, 0.5])
        vals, p_t = self._crossing_stream(300, "chi2", probs)
        assert bench.min_shots_statistical(vals, probs, "chi2", p_t, len(vals)) == 300
        assert asked[-1][0] == 300 and asked[-1][1] < p_t


class TestConfig:
    def test_json_round_trip(self):
        cfg = bench.ExperimentConfig(corpus="c.jsonl", repetitions=7,
                                     base_seed=3, tests=("chi2", "swap"))
        again = bench.ExperimentConfig(**json.loads(json.dumps(vars(cfg))))
        assert again == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            bench.ExperimentConfig(repetitions=0)
        with pytest.raises(ValueError):
            bench.ExperimentConfig(tests=("nope",))
        with pytest.raises(ValueError):
            bench.ExperimentConfig(cap_factor=0.0)
        for bad in ({"p_t": 2}, {"p_t": 0.0}, {"p_e": 1.0}, {"p_e": float("nan")},
                    {"shot_cap_absolute": 0}, {"mc_reps": 0}, {"repetitions": True},
                    {"cap_factor": float("inf")}, {"tests": ("swap", "swap")}):
            with pytest.raises(ValueError):
                bench.ExperimentConfig(**bad)


@pytest.fixture
def small_corpus(tmp_path):
    bell = Circuit(2, (GateApplication("h", (0,)),
                       GateApplication("cx", (0, 1))))
    broken = Circuit(2, (GateApplication("h", (0,)),))
    (tmp_path / "orig.qasm").write_text(emit_qasm(bell))
    (tmp_path / "mut.qasm").write_text(emit_qasm(broken))
    (tmp_path / "orig1.qasm").write_text(
        emit_qasm(Circuit(1, (GateApplication("h", (0,)),))))
    (tmp_path / "mut1.qasm").write_text(emit_qasm(Circuit(1)))
    manifest = tmp_path / "corpus.jsonl"
    manifest.write_text(
        json.dumps({"pair_id": "a", "original": "orig.qasm",
                    "mutant": "mut.qasm"}) + "\n" +
        json.dumps({"pair_id": "b", "original": "orig1.qasm",
                    "mutant": "mut1.qasm"}) + "\n")
    return manifest


class TestRunBenchmark:
    def test_row_count_contract(self, small_corpus):
        # statevector runs once per pair, sampled tests per repetition
        cfg = bench.ExperimentConfig(corpus=str(small_corpus), repetitions=5,
                                     tests=("chi2", "swap", "statevector"))
        rows = bench.run_benchmark(bench.load_corpus(small_corpus), cfg)
        assert len(rows) == 2 + 2 * 2 * 5

    def test_csv_byte_identical_across_reruns(self, small_corpus):
        cfg = bench.ExperimentConfig(corpus=str(small_corpus), repetitions=4)
        a = bench.rows_to_csv(
            bench.run_benchmark(bench.load_corpus(small_corpus), cfg))
        b = bench.rows_to_csv(
            bench.run_benchmark(bench.load_corpus(small_corpus), cfg))
        assert a == b
        assert a.splitlines()[0] == ",".join(bench.CSV_HEADER)
        assert bench.CSV_HEADER == [
            "pair_id", "test", "repetition", "seed", "verdict",
            "shots_used", "shot_estimate", "rank", "wall_time_ms",
        ]
        assert "\r" not in a

    def test_cap_law(self, small_corpus):
        cfg = bench.ExperimentConfig(corpus=str(small_corpus), repetitions=10,
                                     cap_factor=2.0)
        rows = bench.run_benchmark(bench.load_corpus(small_corpus), cfg)
        for r in rows:
            if r.test != "statevector" and r.verdict != "error":
                assert r.shots_used <= min(cfg.shot_cap_absolute,
                                           math.ceil(2.0 * r.shot_estimate))

    def test_statevector_rows_zero_shots(self, small_corpus):
        cfg = bench.ExperimentConfig(corpus=str(small_corpus), repetitions=2)
        rows = bench.run_benchmark(bench.load_corpus(small_corpus), cfg)
        for r in rows:
            if r.test == "statevector":
                assert r.shots_used == 0 and r.repetition == 0

    def test_ranks_within_groups(self, small_corpus):
        cfg = bench.ExperimentConfig(corpus=str(small_corpus), repetitions=3,
                                     tests=("chi2", "swap", "inverse"))
        rows = bench.run_benchmark(bench.load_corpus(small_corpus), cfg)
        groups = {}
        for r in rows:
            groups.setdefault((r.pair_id, r.repetition), []).append(r)
        for members in groups.values():
            ranks = sorted(r.rank for r in members)
            assert ranks[0] == 1

    def test_csv_digest_pinned(self):
        # The bench CSV is a reproducibility contract: a change to any
        # verdict, shot count, rank or seed of this seeded corpus changes
        # the digest.  It catches a 2.5% shift in a per-shot law, not 0.05%.
        pairs = []
        for i in range(12):
            original = random_circuit(1 + i % 4, 1 + i % 5, seed=i)
            mutants = mutation.mutate_qgd(original)
            mutants += mutation.mutate_rgi(original, seed=i, count=2)
            for j, rec in enumerate(mutation.filter_equivalent(original, mutants)):
                pairs.append(bench.CorpusPair(f"c{i:02d}m{j:02d}", original,
                                              rec.circuit))
        cfg = bench.ExperimentConfig(
            tests=("chi2", "g_test", "swap", "inverse", "statevector"),
            repetitions=3, shot_cap_absolute=10 ** 4, base_seed=7)
        text = bench.rows_to_csv(bench.run_benchmark(pairs, cfg))
        assert len(pairs) == 51 and len(text.splitlines()) == 1 + 663
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "48f2b64067e39cdddfd708c497a2cd019ac7061c2626c73740f252e3fcc1265b")

    def test_each_pair_simulated_twice(self, small_corpus, monkeypatch):
        # the original and the mutant are simulated once each; sigma_11,
        # the statevector row and every sampled row reuse those two states
        real = simulator.run_statevector
        widths = []

        def counting(c):
            widths.append(c.num_qubits)
            return real(c)

        for name, module in list(sys.modules.items()):
            if name.startswith("qut") and getattr(module, "run_statevector", None) is real:
                monkeypatch.setattr(module, "run_statevector", counting)
        pairs = bench.load_corpus(small_corpus)
        cfg = bench.ExperimentConfig(tests=ALL_TESTS, repetitions=2,
                                     mc_reps=20)
        rows = bench.run_benchmark(pairs, cfg)
        assert {r.verdict for r in rows} <= {"fail", "not_detected"}
        assert sorted(widths) == [1, 1, 2, 2]

    def test_law_rows_match_the_verdicts(self):
        # a swap or inverse row is swap_test / inverse_test run on the pair
        # at the row's seed, with the pair's shot cap as the shot count
        pairs = []
        for i in range(6):
            original = random_circuit(1 + i % 3, 3, seed=40 + i)
            mutants = mutation.mutate_qgd(original)
            mutants += mutation.mutate_rgi(original, seed=i)
            for j, rec in enumerate(mutation.filter_equivalent(original, mutants)):
                pairs.append(bench.CorpusPair(f"c{i}m{j}", original, rec.circuit))
        cfg = bench.ExperimentConfig(tests=("swap", "inverse"), repetitions=4,
                                     shot_cap_absolute=2000)
        rows = bench.run_benchmark(pairs, cfg)
        by_id = {p.pair_id: p for p in pairs}
        for r in rows:
            pair = by_id[r.pair_id]
            cap = max(min(cfg.shot_cap_absolute,
                          math.ceil(cfg.cap_factor * r.shot_estimate)), 1)
            run = swap_test if r.test == "swap" else inverse_test
            verdict = run(Circuit(pair.original.num_qubits), pair.mutant,
                          pair.original, cap, r.seed)
            want = r.shots_used if r.verdict == "fail" else None
            assert verdict.first_failure_shot == want, (r.pair_id, r.test)
        assert {r.verdict for r in rows} == {"fail", "not_detected"}

    def test_equivalent_pair_reported_as_error(self, tmp_path):
        c = Circuit(1, (GateApplication("h", (0,)),))
        (tmp_path / "o.qasm").write_text(emit_qasm(c))
        (tmp_path / "m.qasm").write_text(emit_qasm(c))
        manifest = tmp_path / "corpus.jsonl"
        manifest.write_text(json.dumps(
            {"pair_id": "eq", "original": "o.qasm", "mutant": "m.qasm"}) + "\n")
        cfg = bench.ExperimentConfig(corpus=str(manifest), repetitions=2)
        rows = bench.run_benchmark(bench.load_corpus(manifest), cfg)
        assert rows and all(r.verdict == "error" for r in rows)

    def test_intractable_multinomial_prefix_is_an_error_row(self):
        # a 6-qubit uniform state against the same distribution with a
        # phase: no multinomial prefix detects it at p_t = 1e-6, and the
        # fourth shot's 766,480 vectors of 64 outcomes exceed the guard
        original = Circuit(6, tuple(GateApplication("h", (q,)) for q in range(6)))
        mutant = original.appended(GateApplication("rz", (0,), (0.3,)))
        config = bench.ExperimentConfig(tests=("multinomial", "swap"),
                                        repetitions=2, p_t=1e-6)
        rows = bench.run_benchmark([bench.CorpusPair("p", original, mutant)], config)
        estimate = math.ceil(math.log(0.05) / math.log(math.cos(0.15) ** 2))
        assert [(r.test, r.repetition, r.verdict, r.shots_used, r.rank)
                for r in rows if r.test == "multinomial"] == [
            ("multinomial", rep, "error", 0, None) for rep in range(2)]
        assert {r.shot_estimate for r in rows} == {estimate}
        # the swap row of each repetition is ranked without the error row
        assert [(r.verdict, r.rank) for r in rows if r.test == "swap"] == [("fail", 1)] * 2
        assert [r.seed for r in rows if r.test == "multinomial"] == [
            bench.mix_seed(0, "p", "multinomial", rep) for rep in range(2)]

    def test_pairs_passing_the_statevector_test_are_errors(self):
        # one error row per test, whatever sigma_11 rounds to: h against
        # h; z; z, and a circuit whose overlap with itself is 1 - 1.1e-15
        pairs = []
        for i, c in enumerate((Circuit(1, (GateApplication("h", (0,)),)),
                               random_circuit(4, 10, seed=39))):
            zz = c.appended(GateApplication("z", (0,))).appended(
                GateApplication("z", (0,)))
            pairs.append(bench.CorpusPair(f"eq{i}", c, zz))
        cfg = bench.ExperimentConfig(repetitions=2)
        rows = bench.run_benchmark(pairs, cfg)
        assert [(r.pair_id, r.test, r.verdict) for r in rows] == [
            (p.pair_id, t, "error") for p in pairs for t in sorted(cfg.tests)]


class TestMetrics:
    def test_recall_arithmetic(self):
        rows = [
            bench.ExperimentRow("p", "inverse", i, 0,
                                "fail" if i < 9 else "not_detected", 1, 5)
            for i in range(10)
        ]
        m = bench.compute_metrics(rows)
        assert m["inverse"] == {"tp": 9, "fn": 1, "recall": 0.9}

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            bench.compute_metrics([])

    def test_recall_undefined_when_every_row_errors(self):
        # a near-equivalent pair that the shot planner rejects
        h = Circuit(1, (GateApplication("h", (0,)),))
        pair = bench.CorpusPair(
            "near", h, h.appended(GateApplication("rz", (0,), (2e-9,))))
        rows = bench.run_benchmark([pair], bench.ExperimentConfig(repetitions=2))
        assert rows and all(r.verdict == "error" for r in rows)
        m = bench.compute_metrics(rows)
        assert m["swap"] == {"tp": 0, "fn": 0, "recall": None}
        assert json.loads(json.dumps(m))["statevector"]["recall"] is None

    def test_statevector_recall_one(self, small_corpus):
        cfg = bench.ExperimentConfig(corpus=str(small_corpus), repetitions=2)
        rows = bench.run_benchmark(bench.load_corpus(small_corpus), cfg)
        m = bench.compute_metrics(rows)
        assert m["statevector"]["recall"] == 1.0


class TestSeededRepeat:
    @pytest.mark.slow
    @settings(max_examples=15, deadline=None)
    @given(circuits=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4),
                                       st.integers(0, 2**16), st.integers(0, 2**16)),
                             min_size=1, max_size=3),
           tests=st.lists(st.sampled_from(ALL_TESTS), min_size=1, unique=True),
           repetitions=st.integers(1, 3),
           base_seed=st.integers(0, 2**64 - 1),
           p_t=st.sampled_from([0.05, 0.5]),
           cap=st.integers(1, 64))
    def test_rows_repeat_exactly_for_a_seed(self, circuits, tests, repetitions,
                                            base_seed, p_t, cap):
        # an original against a mutant that is another random circuit, or
        # itself when the two seeds agree
        pairs = []
        for i, (n, depth, original_seed, mutant_seed) in enumerate(circuits):
            original = random_circuit(n, depth, seed=original_seed)
            mutant = random_circuit(n, depth, seed=mutant_seed)
            pairs.append(bench.CorpusPair(f"p{i}", original, mutant))
        config = bench.ExperimentConfig(tests=tuple(tests), repetitions=repetitions,
                                        base_seed=base_seed, p_t=p_t,
                                        shot_cap_absolute=cap, mc_reps=20)
        assert bench.run_benchmark(pairs, config) == bench.run_benchmark(pairs, config)
