import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qut.circuit import Circuit, GateApplication, evolve
from qut.core import (
    DensityMatrix,
    DimensionMismatchError,
    StateVector,
    fidelity,
    fractional_power,
    global_phase_aligned,
)
from qut.simulator import run_statevector

from oracles import density_from_pure, random_statevector

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def ket(*amps):
    return StateVector.from_amplitudes(np.array(amps, dtype=complex))


class TestStateVector:
    def test_zero_state(self):
        s = StateVector.zero(2)
        assert s.num_qubits == 2
        np.testing.assert_array_equal(s.amplitudes, [1, 0, 0, 0])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ket(1.0, 1.0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            StateVector.from_amplitudes(np.array([1, 0, 0], dtype=complex))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            StateVector.from_amplitudes(np.array([np.nan, 0], dtype=complex))

    def test_probabilities_sum_to_one(self):
        s = ket(INV_SQRT2, INV_SQRT2 * 1j)
        assert s.probabilities() == pytest.approx([0.5, 0.5])


class TestApplyGate:
    def test_h_on_zero(self):
        # H|0> = [1/sqrt2, 1/sqrt2]
        s = run_statevector(Circuit(1, (GateApplication("h", (0,)),)))
        np.testing.assert_allclose(s.amplitudes, [INV_SQRT2, INV_SQRT2],
                                   atol=1e-12)

    def test_x_flips(self):
        s = run_statevector(Circuit(1, (GateApplication("x", (0,)),)))
        np.testing.assert_allclose(s.amplitudes, [0, 1], atol=1e-15)

    def test_identity_noop(self):
        rng = np.random.default_rng(1)
        s = random_statevector(3, rng)
        out = evolve(s.amplitudes, [GateApplication("id", (1,))])
        np.testing.assert_allclose(out, s.amplitudes, atol=1e-15)

    def test_qubit_zero_is_least_significant_bit(self):
        # X on qubit 0 of |00> gives index 1, not index 2
        s = run_statevector(Circuit(2, (GateApplication("x", (0,)),)))
        assert s.amplitudes[1] == pytest.approx(1.0)

    def test_norm_preserved_on_random_pairs(self):
        rng = np.random.default_rng(7)
        kinds = ["h", "t", "rx", "cx"]
        for _ in range(200):
            n = int(rng.integers(1, 4))
            s = random_statevector(n, rng)
            kind = kinds[rng.integers(len(kinds))]
            if kind == "cx" and n < 2:
                kind = "x"
            targets = tuple(rng.choice(n, size=2 if kind == "cx" else 1,
                                       replace=False).tolist())
            params = (float(rng.uniform(0, 2 * math.pi)),) if kind == "rx" else ()
            out = evolve(s.amplitudes, [GateApplication(kind, targets, params)])
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10


class TestInnerProductFidelity:
    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(3)
        s = random_statevector(2, rng)
        assert fidelity(s, s) == pytest.approx(1.0)

    def test_orthogonal_basis_states(self):
        assert fidelity(ket(1, 0), ket(0, 1)) == 0.0

    def test_perturbed_hadamard_overlap(self):
        # by-hand oracle: 0.7071*0.7066 + 0.7071*0.7077 on the printed
        # 4-digit states, up to their normalization factors
        bug = np.array([0.7066, 0.7077])
        bug = bug / np.linalg.norm(bug)
        hand = (0.7071 * 0.7066 + 0.7071 * 0.7077) / (
            np.linalg.norm([0.7071, 0.7071]) * np.linalg.norm([0.7066, 0.7077])
        )
        f = fidelity(ket(INV_SQRT2, INV_SQRT2), ket(*bug))
        assert f == pytest.approx(hand ** 2, abs=1e-7)

    def test_fidelity_h_zero(self):
        h0 = ket(INV_SQRT2, INV_SQRT2)
        assert fidelity(h0, ket(1, 0)) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fidelity(StateVector.zero(1), StateVector.zero(2))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_fidelity_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a = random_statevector(2, rng)
        b = random_statevector(2, rng)
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-12

    def test_fidelity_clamped(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = random_statevector(3, rng)
            assert 0.0 <= fidelity(s, s) <= 1.0


class TestDensityMatrix:
    def test_zero_projector_single_entry(self):
        dm = density_from_pure(StateVector.zero(1))
        np.testing.assert_allclose(dm.entries, [[1, 0], [0, 0]], atol=1e-15)

    def test_plus_state_all_half(self):
        dm = density_from_pure(ket(INV_SQRT2, INV_SQRT2))
        np.testing.assert_allclose(dm.entries, np.full((2, 2), 0.5), atol=1e-12)

    def test_pure_is_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dm = density_from_pure(random_statevector(2, rng))
            np.testing.assert_allclose(dm.entries @ dm.entries, dm.entries,
                                       atol=1e-9)

    def test_trace_one_random(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            dm = density_from_pure(random_statevector(3, rng))
            assert abs(np.trace(dm.entries) - 1.0) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2, dtype=complex))


class TestFractionalPower:
    def test_power_one_is_identity_map(self):
        dm = density_from_pure(ket(INV_SQRT2, INV_SQRT2))
        np.testing.assert_allclose(fractional_power(dm, 1.0), dm.entries,
                                   atol=1e-12)

    def test_pure_projector_fixed_point(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            dm = density_from_pure(random_statevector(2, rng))
            p = float(rng.uniform(1e-3, 1.0))
            np.testing.assert_allclose(fractional_power(dm, p), dm.entries,
                                       atol=1e-9)

    def test_diagonal_square_root(self):
        dm = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        out = fractional_power(dm, 0.5)
        np.testing.assert_allclose(np.diag(out).real, [0.5, math.sqrt(0.75)],
                                   atol=1e-12)

    def test_zero_power_is_support_projector(self):
        dm = density_from_pure(StateVector.zero(1))
        out = fractional_power(dm, 0.0)
        np.testing.assert_allclose(out, [[1, 0], [0, 0]], atol=1e-12)


class TestGlobalPhaseAlignment:
    def test_alignment_removes_phase(self):
        rng = np.random.default_rng(13)
        s = random_statevector(2, rng).amplitudes
        rotated = s * np.exp(0.3j)
        aligned = global_phase_aligned(rotated, s)
        np.testing.assert_allclose(aligned, s, atol=1e-12)
