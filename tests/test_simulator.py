import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from qut import gates
from qut.circuit import Circuit, GateApplication, build_swap_harness, random_circuit
from qut.jsonio import nearest_unitary
from qut.qasm import emit_qasm, parse_qasm
from qut.simulator import (
    PROB_FLOOR,
    first_failing_shot,
    multinomial_counts,
    run_statevector,
    sample_from_probs,
)
from qut.synth import synthesize_state_prep
from qut.testing import statistical_test

from oracles import marginal_probability_one, marginal_sample, random_statevector

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestRunStatevector:
    def test_empty_circuit(self):
        s = run_statevector(Circuit(2))
        np.testing.assert_array_equal(s.amplitudes, [1, 0, 0, 0])

    def test_h_circuit(self):
        s = run_statevector(Circuit(1, (GateApplication("h", (0,)),)))
        np.testing.assert_allclose(s.amplitudes, [INV_SQRT2, INV_SQRT2],
                                   atol=1e-12)

    def test_perturbed_hadamard_output(self):
        # custom-gate output stays within 5e-4 of the printed bug state
        m = nearest_unitary(np.array([[0.7066, 0.7076], [0.7076, -0.7066]]))
        s = run_statevector(
            Circuit(1, (GateApplication("unitary", (0,), matrix=m),)))
        np.testing.assert_allclose(s.amplitudes.real, [0.7066, 0.7077],
                                   atol=5e-4)

    def test_normalized_on_random_circuits(self):
        for seed in range(50):
            s = run_statevector(random_circuit(4, 5, seed=seed))
            assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-10

    def test_width_guard_before_allocation(self):
        # a 30-qubit register would need 16 GiB; the guard raises first
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="simulation guard"):
                run_statevector(Circuit(30, (GateApplication("h", (0,)),)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _moveaxis_oracle(c: Circuit) -> np.ndarray:
    """The former per-gate path: move the targets' axes to the front,
    matmul, and move them back, on every gate."""
    n = c.num_qubits
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    for g in c.gates:
        k = len(g.targets)
        src = [n - 1 - q for q in reversed(g.targets)]  # MSB target first
        moved = np.moveaxis(psi.reshape([2] * n), src, range(k))
        out = g.unitary() @ moved.reshape(1 << k, -1)
        psi = np.moveaxis(out.reshape(moved.shape), range(k), src).reshape(-1)
    return psi


class TestKernelBitIdentity:
    def test_matches_the_moveaxis_path_on_random_circuits(self):
        # 1-12 qubits; ccx/cswap from random_circuit and custom 1-3 qubit
        # unitaries spliced in at random positions
        rng = np.random.default_rng(2024)
        for i in range(200):
            n = 1 + i % 12
            gs = list(random_circuit(n, 1 + i % 6, seed=i).gates)
            for _ in range(2):
                k = int(rng.integers(1, min(n, 3) + 1))
                z = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
                targets = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
                gs.insert(int(rng.integers(len(gs) + 1)),
                          GateApplication("unitary", targets, matrix=nearest_unitary(z)))
            c = Circuit(n, tuple(gs))
            assert np.array_equal(run_statevector(c).amplitudes,
                                  _moveaxis_oracle(c)), i

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_the_moveaxis_path_on_dense_preparations(self, n):
        # multiplexors: runs of rotations on one target, which leads the
        # axis order from the second on, between cx on that target
        c = _dense_prep(n)
        assert np.array_equal(run_statevector(c).amplitudes, _moveaxis_oracle(c))

    def test_matches_the_moveaxis_path_on_custom_gates_whose_targets_lead(self):
        # each non-permutation gate is followed by custom unitaries on the
        # targets it left leading the axis order: all of them, and the last
        rng = np.random.default_rng(2025)

        def custom(targets):
            k = len(targets)
            z = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
            return GateApplication("unitary", targets, matrix=nearest_unitary(z))

        for i in range(60):
            n = 1 + i % 8
            gs = []
            for g in random_circuit(n, 1 + i % 4, seed=i).gates:
                gs.append(g)
                if g.kind not in gates.EXCHANGES:
                    gs += [custom(g.targets), custom(g.targets), custom(g.targets[-1:])]
            c = Circuit(n, tuple(gs))
            assert np.array_equal(run_statevector(c).amplitudes, _moveaxis_oracle(c)), i

    @pytest.mark.parametrize("n", [1, 2])
    def test_real_gate_on_the_whole_register_matches_the_moveaxis_path(self, n):
        # k == n keeps the complex product: the block is one column, and the
        # float view's two columns would round as a matrix product instead
        rng = np.random.default_rng(2026)
        for kind in sorted(gates.REAL):
            spec = gates.CATALOG[kind]
            if spec.arity != n:
                continue
            for i in range(30):
                z = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
                targets = tuple(int(q) for q in rng.permutation(n))
                params = tuple(rng.uniform(0, 2 * np.pi, spec.num_params))
                c = Circuit(n, (GateApplication("unitary", tuple(range(n)),
                                                matrix=nearest_unitary(z)),
                                GateApplication(kind, targets, params)))
                assert run_statevector(c).amplitudes.tobytes() == \
                    _moveaxis_oracle(c).tobytes(), (kind, i)


def _float_view_product(m: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The real path of `circuit.evolve`: a real matrix times the float view
    of a complex block, read back as complex."""
    return (m.real @ block.view(float)).view(complex)


class TestRealProduct:
    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(sorted(gates.REAL)), log_columns=st.integers(1, 16),
           theta=st.floats(-10, 10), seed=st.integers(0, 2**32 - 1))
    def test_float_view_keeps_every_bit_of_the_complex_product(self, kind, log_columns,
                                                               theta, seed):
        spec = gates.CATALOG[kind]
        m = spec.matrix_fn(*(theta,) * spec.num_params)
        rng = np.random.default_rng(seed)
        shape = (len(m), 1 << log_columns)
        block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert _float_view_product(m, block).tobytes() == (m @ block).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(gates.REAL)), log_columns=st.integers(1, 10),
           zero_share=st.sampled_from([0.3, 0.7, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_exact_zeros_differ_at_most_in_the_sign_of_a_real_part(self, kind, log_columns,
                                                                   zero_share, seed):
        # the complex product may give -0.0 in a real part where the real
        # product gives +0.0; every value and every imaginary bit agree
        spec = gates.CATALOG[kind]
        rng = np.random.default_rng(seed)
        m = spec.matrix_fn(*rng.uniform(-7, 7, spec.num_params))
        floats = rng.normal(size=(len(m), 2 << log_columns))
        zeros = rng.random(floats.shape) < zero_share
        floats[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
        block = floats.view(complex)
        real, full = _float_view_product(m, block), m @ block
        assert np.array_equal(real, full)
        assert real.imag.tobytes() == full.imag.tobytes()


# `_digest` of the amplitudes `run_statevector` gives, recorded from the
# kernel that exchanged permutation gates' sub-arrays over the (2,)*n view.
# Changes to the gate kernel must leave every bit of these outputs in place.
DENSE_PREP_DIGESTS = {
    1: "2fde37743380e56145ebd5ab7f05c8c07dc4cd108ba5e78428a7299500291ce7",
    2: "78fd802008d3e9288c9f802f49efcf71ac7cbc14be6639c2b9f910e4d7753639",
    6: "bd6c868895012df92d64c618136e42c0513eb009cda64e7caa313d650543dcf4",
    12: "00003df9986c0f7cd0b6f79b6d04d82b116d5ef447237abdac2732b368790967",
}
RANDOM_CIRCUIT_DIGESTS = {
    1: "7f937807192c46668bbe695e9df94c3eb6064087e4f1ab4b2d33a496d9f7533f",
    2: "4b8cdbe6521f5bbc7b7bd6b057b87ea24f7001f28b54598e996547aeb7e94d72",
    3: "ab74bf15a12615deeac9bad97be55cb144765b6dc8ffa32abba46ee931fa40be",
    4: "70a6bdcb76c353c0a8772b699e3dae2823f64108c890ecc96618ac86605489f0",
    5: "5cbef82e32be349f4e46b2af9b063c08ebbbf8abff4e525f8f9a42875c7d9f00",
    6: "223a45b8e11d2f8ff9c743d9b49f5831a03365c1a67315cf870e2da4803bda74",
    7: "212fc53cb3a656be1b83db09932481d0169c83a7e005c5cace5fd6102330c071",
    8: "5dcc95e9151417dd4070165f540f833edb78ba302d5e438d39401c6d1b709ca0",
    9: "3d72e62bccaa4281f6304d50dcc82793ffa0b6673f07b19448fee4d7e5408c4d",
    10: "6cede45e7e55ae32c668e19d191969fab1e780aea4f43d0c103a09632a05b7b0",
    11: "e36dc2d2e7cd1188bd9e988d0f9d43c96b54261d7f9769872457845c25e36824",
    12: "0787db43e8d8ae22c8af72076b1e09bd13076f61aeb98d6f1fe62ec544c0a700",
}


def _amplitude_digest(c: Circuit) -> str:
    return _digest(run_statevector(c).amplitudes)


def _digest(amplitudes: np.ndarray) -> str:
    """SHA-256 of the float view with each -0.0 read as +0.0 (adding +0.0
    does that and changes no other value): the sign of an exact zero is
    whatever the BLAS product wrote."""
    return hashlib.sha256((amplitudes.view(float) + 0.0).tobytes()).hexdigest()


def _dense_prep(n: int) -> Circuit:
    return synthesize_state_prep(random_statevector(n, np.random.default_rng(n)))


class TestPinnedOutputBits:
    @pytest.mark.parametrize("n", sorted(DENSE_PREP_DIGESTS))
    def test_dense_preparation(self, n):
        c = _dense_prep(n)
        assert len(c.gates) == 2 * (2**n - 1) + max(2**(n + 1) - 4, 0)
        assert _amplitude_digest(c) == DENSE_PREP_DIGESTS[n]

    @pytest.mark.parametrize("n", sorted(RANDOM_CIRCUIT_DIGESTS))
    def test_random_circuit(self, n):
        assert _amplitude_digest(random_circuit(n, 30, seed=n)) == RANDOM_CIRCUIT_DIGESTS[n]

    def test_the_sign_of_a_zero_leaves_the_digest(self):
        plus = np.array([0.6, 0.0, 0.0, 0.8])
        minus = np.array([0.6, -0.0, -0.0, 0.8])
        assert plus.tobytes() != minus.tobytes()
        assert _digest(plus.view(complex)) == _digest(minus.view(complex))
        assert _digest(plus.view(complex)) != _digest(-plus.view(complex))

    def test_wide_preparation_reads_back_from_qasm(self):
        # the shape of the synthesized expected files a 12-qubit inverse test reads
        prep = _dense_prep(12)
        again = parse_qasm(emit_qasm(prep))
        assert len(again.gates) == 16378
        assert sum(g.kind == "cx" for g in again.gates) == 8188
        assert again.structurally_equal(prep)
        assert _amplitude_digest(again) == DENSE_PREP_DIGESTS[12]
        # 8,190 rotations and one object for each of the 66 distinct cx
        assert len({id(g) for g in again.gates}) == 8256


def _probs(c: Circuit) -> np.ndarray:
    return run_statevector(c).probabilities()


class TestSampling:
    def test_deterministic_stream(self):
        probs = _probs(Circuit(1, (GateApplication("h", (0,)),)))
        np.testing.assert_array_equal(sample_from_probs(probs, 1000, seed=5),
                                      sample_from_probs(probs, 1000, seed=5))

    def test_different_seeds_differ(self):
        probs = _probs(Circuit(1, (GateApplication("h", (0,)),)))
        assert not np.array_equal(sample_from_probs(probs, 1000, seed=5),
                                  sample_from_probs(probs, 1000, seed=6))

    def test_zero_shots_rejected(self):
        # the sampled tests reject an empty stream before drawing
        with pytest.raises(ValueError):
            statistical_test(Circuit(1), Circuit(1), Circuit(1), 0, 0.05,
                             "mc_chi2", seed=0, mc_reps=10)

    def test_histogram_consistency(self):
        c = Circuit(2, (GateApplication("h", (0,)),
                        GateApplication("cx", (0, 1))))
        counts = np.bincount(sample_from_probs(_probs(c), 500, seed=1),
                             minlength=4)
        assert counts.sum() == 500
        assert counts[1] == counts[2] == 0

    def test_h_frequency_within_3_sigma(self):
        probs = _probs(Circuit(1, (GateApplication("h", (0,)),)))
        freq = (sample_from_probs(probs, 10 ** 6, seed=12) == 0).mean()
        assert abs(freq - 0.5) <= 0.0015

    def test_impossible_outcomes_never_sampled(self):
        vals = sample_from_probs(np.array([0.0, 1.0]), 10000, seed=3)
        assert (vals == 1).all()

    def test_probability_floor(self):
        vals = sample_from_probs(np.array([1.0 - 1e-18, 1e-18]), 10 ** 5,
                                 seed=3)
        assert (vals == 0).all()

    def test_frequencies_within_5_sigma_random_circuits(self):
        shots = 10 ** 5
        for seed in range(10):
            c = random_circuit(3, 4, seed=seed)
            probs = run_statevector(c).probabilities()
            arr = np.bincount(sample_from_probs(probs, shots, seed=seed + 100),
                              minlength=len(probs))
            for b, p in enumerate(probs):
                sigma = math.sqrt(max(shots * p * (1 - p), 1e-30))
                assert abs(arr[b] - shots * p) <= 5 * sigma + 1


class TestMarginal:
    def test_swap_harness_identical_preps_all_zero(self):
        prep = Circuit(1, (GateApplication("h", (0,)),))
        h = build_swap_harness(prep, prep)
        bits = marginal_sample(h, 0, 1000, seed=8)
        assert bits.dtype == np.int64 and not bits.any()

    def test_orthogonal_preps_half(self):
        a = Circuit(1, (GateApplication("x", (0,)),))
        h = build_swap_harness(a, Circuit(1))
        freq = marginal_sample(h, 0, 10 ** 5, seed=8).mean()
        # ancilla reads 1 with probability (1 - overlap)/2 = 0.5
        assert abs(freq - 0.5) <= 5 * math.sqrt(0.25 / 10 ** 5)

    def test_ghz_marginal(self):
        ghz = Circuit(3, (GateApplication("h", (0,)),
                          GateApplication("cx", (0, 1)),
                          GateApplication("cx", (0, 2))))
        state = run_statevector(ghz)
        assert marginal_probability_one(state, 0) == pytest.approx(0.5)
        freq = marginal_sample(ghz, 0, 10 ** 5, seed=2).mean()
        assert abs(freq - 0.5) <= 5 * math.sqrt(0.25 / 10 ** 5)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            marginal_sample(Circuit(1), 1, 10, seed=0)


class TestMultinomialCounts:
    def test_counts_sum_to_shots(self):
        rng = np.random.default_rng(17)
        for trial in range(30):
            probs = rng.dirichlet(np.ones(2 ** int(rng.integers(1, 13))))
            shots = int(rng.choice([1, 13, 1 << 16, 10 ** 7, 10 ** 12]))
            counts = multinomial_counts(probs, shots, seed=trial)
            assert counts.dtype == np.int64 and counts.shape == probs.shape
            assert (counts >= 0).all() and counts.sum() == shots

    def test_sub_floor_outcomes_are_never_counted(self):
        # zero and sub-floor probabilities at the start, middle and end; at
        # 10^18 shots a sub-floor outcome, or a last outcome handed the
        # rounding left over by numpy's sequential binomials, would be counted
        rng = np.random.default_rng(29)
        for trial in range(20):
            k = 2 ** int(rng.integers(2, 11))
            probs = rng.random(k) * (rng.random(k) < 0.3)
            probs[k // 2] += 1.0
            probs[: k // 4] = 0.0 if trial % 2 else 1e-17
            probs[-1] = 1e-17 if trial % 2 else 0.0
            probs /= probs.sum()
            counts = multinomial_counts(probs, 10 ** 18, seed=trial)
            assert counts.sum() == 10 ** 18
            assert (counts[probs < PROB_FLOOR] == 0).all()

    def test_frequencies_within_5_sigma_random_circuits(self):
        shots = 10 ** 7
        for seed in range(20):
            c = random_circuit(1 + seed % 4, 4, seed=seed)
            probs = run_statevector(c).probabilities()
            counts = multinomial_counts(probs, shots, seed=seed + 100)
            sigma = np.sqrt(np.maximum(shots * probs * (1 - probs), 1e-30))
            assert (np.abs(counts - shots * probs) <= 5 * sigma + 1).all()

    def test_memory_bounded_at_1e9_shots(self):
        # the per-shot stream would take 8 GB of draws
        tracemalloc.start()
        try:
            counts = multinomial_counts(np.array([0.25, 0.75]), 10 ** 9, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.sum() == 10 ** 9
        assert peak < 1 << 20


class TestFirstFailingShot:
    """Shots fail independently with probability q, so the first failure is
    Geometric(q), drawn once per call."""

    def test_matches_the_seeded_geometric_draw(self):
        for shots, q in ((10, 0.5), (70_000, 1e-5), (200_000, 2e-6),
                         (2 ** 63 - 1, 1e-12)):
            for seed in range(5):
                k = np.random.default_rng(seed).geometric(q)
                got = first_failing_shot(q, shots, seed)
                assert got == (k if k <= shots else None), (shots, q, seed)
                assert got is None or type(got) is int

    @pytest.mark.parametrize("q", [0.5, 1e-3, 1e-6])
    def test_values_follow_the_geometric_law(self, q):
        # chi-square over bins cut at the law's deciles, alpha = 1e-3; the
        # reference law is scipy's, independent of numpy's sampler
        n = 4000
        got = np.array([first_failing_shot(q, 10 ** 12, seed)
                        for seed in range(10_000, 10_000 + n)])
        edges = np.unique(stats.geom.ppf(np.arange(1, 10) / 10, q))
        observed = np.bincount(np.searchsorted(edges, got), minlength=len(edges) + 1)
        cdf = np.concatenate(([0.0], stats.geom.cdf(edges, q), [1.0]))
        _, p = stats.chisquare(observed, n * np.diff(cdf))
        assert p > 1e-3, (q, observed.tolist())

    @pytest.mark.parametrize("q, shots", [(0.5, 1), (1e-3, 500), (1e-6, 10 ** 6)])
    def test_share_past_the_cap_is_the_survival_law(self, q, shots):
        # the share of None is (1 - q)^shots: two-sided binomial test at 1e-3
        n = 4000
        misses = sum(first_failing_shot(q, shots, seed) is None
                     for seed in range(20_000, 20_000 + n))
        assert stats.binomtest(misses, n, (1 - q) ** shots).pvalue > 1e-3, misses

    def test_never_failing_law(self, monkeypatch):
        # q <= 0 draws nothing
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a shot")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        for q in (0.0, -2.0 ** -53):
            assert first_failing_shot(q, 300_000, seed=1) is None

    def test_always_failing_law(self):
        for seed in range(20):
            assert first_failing_shot(1.0, 5, seed) == 1

    def test_float64_granularity_at_the_largest_shot_count(self):
        # q = 2^-53 (1 - F one ulp below 1) and q = 5e-324 both draw an int
        # no larger than 2^63 - 1: numpy clamps the variate, nothing wraps
        shots = 2 ** 63 - 1
        for q in (2.0 ** -53, 2.0 ** -54, 5e-324):
            for seed in range(20):
                got = first_failing_shot(q, shots, seed)
                assert got is None or (type(got) is int and 1 <= got <= shots)
        assert first_failing_shot(5e-324, shots, seed=0) == shots
