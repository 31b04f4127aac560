import math
import sys

import numpy as np
import pytest

from qut.circuit import Circuit, GateApplication, random_circuit
from qut.core import DensityMatrix, StateVector, fidelity
from qut.shots import (
    EquivalentStatesError,
    estimate_shots,
    estimate_shots_for_pair,
    qcb_exponent,
    qcb_trace_minimum,
)
from qut.simulator import run_statevector

from oracles import density_from_pure, random_statevector

RHO_ZERO_1Q = density_from_pure(StateVector.zero(1))


class TestQcbExponent:
    def test_identical_states_zero_exponent(self):
        assert qcb_exponent(RHO_ZERO_1Q, RHO_ZERO_1Q) == pytest.approx(0.0, abs=1e-9)

    def test_diagonal_half_case(self):
        sigma = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        assert qcb_exponent(RHO_ZERO_1Q, sigma) == pytest.approx(-math.log(0.5),
                                                                 abs=1e-6)

    def test_diagonal_argmin_at_zero(self):
        for s11 in (0.1, 0.3, 0.7, 0.9):
            sigma = DensityMatrix(np.diag([s11, 1 - s11]).astype(complex))
            minimum, argmin = qcb_trace_minimum(RHO_ZERO_1Q, sigma)
            assert minimum == pytest.approx(s11, abs=1e-9)
            assert argmin <= 0.01  # grid resolution

    @pytest.mark.slow
    def test_pure_state_closed_form(self):
        # numeric minimizer agrees with -ln(sigma11) for pure states
        rng = np.random.default_rng(0)
        for n in range(1, 6):
            rho_zero = density_from_pure(StateVector.zero(n))
            for _ in range(100):
                psi = random_statevector(n, rng)
                sigma11 = float(abs(psi.amplitudes[0]) ** 2)
                xi = qcb_exponent(rho_zero, density_from_pure(psi))
                if sigma11 > 1e-12:
                    assert abs(xi + math.log(sigma11)) < 1e-9

    def test_orthogonal_states_infinite(self):
        one = density_from_pure(
            StateVector.from_amplitudes(np.array([0, 1], dtype=complex)))
        assert math.isinf(qcb_exponent(RHO_ZERO_1Q, one))

    def test_dimension_mismatch(self):
        from qut.core import DimensionMismatchError
        with pytest.raises(DimensionMismatchError):
            qcb_exponent(RHO_ZERO_1Q, density_from_pure(StateVector.zero(2)))


class TestEstimateShots:
    def test_half_overlap_is_five(self):
        # ceil(ln 0.05 / ln 0.5) = ceil(4.3219) = 5
        est = estimate_shots(0.5, 0.05)
        assert (est.shots, est.sigma11, est.p_e) == (5, 0.5, 0.05)

    def test_orthogonal_single_shot(self):
        for p_e in (0.001, 0.05, 0.5):
            assert estimate_shots(0.0, p_e).shots == 1

    def test_equivalent_states_rejected(self):
        with pytest.raises(EquivalentStatesError):
            estimate_shots(1.0, 0.05)
        with pytest.raises(EquivalentStatesError):
            estimate_shots(1.0 - 1e-16, 0.05)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            estimate_shots(-0.1, 0.05)
        with pytest.raises(ValueError):
            estimate_shots(0.5, 0.0)

    def test_monotonicity(self):
        grid = np.linspace(0.01, 0.99, 40)
        for p_e in (0.001, 0.01, 0.05):
            shots = [estimate_shots(s, p_e).shots for s in grid]
            assert all(a <= b for a, b in zip(shots, shots[1:]))
        # stricter error probability never needs fewer shots
        for s in grid:
            assert (estimate_shots(s, 0.001).shots
                    >= estimate_shots(s, 0.01).shots
                    >= estimate_shots(s, 0.05).shots)

    def test_printed_bug_state_anchors(self):
        # the published footnote estimates, within 10 percent
        bug = np.array([0.7066, 0.7077])
        bug = bug / np.linalg.norm(bug)
        sigma11 = float((bug @ np.array([1, 1]) / math.sqrt(2)) ** 2)
        s_05 = estimate_shots(sigma11, 0.05).shots
        s_01 = estimate_shots(sigma11, 0.01).shots
        assert abs(s_05 - 5.4e6) / 5.4e6 <= 0.10
        assert abs(s_01 - 8.3e6) / 8.3e6 <= 0.10


class TestEstimateForPair:
    def test_deleted_hadamard_gives_five(self):
        original = Circuit(1, (GateApplication("h", (0,)),))
        mutant = Circuit(1)
        est = estimate_shots_for_pair(original, mutant, p_e=0.05)
        assert est.shots == 5
        assert est.sigma11 == pytest.approx(0.5)

    def test_orthogonal_mutant_single_shot(self):
        original = Circuit(1)
        mutant = Circuit(1, (GateApplication("x", (0,)),))
        assert estimate_shots_for_pair(original, mutant, p_e=0.05).shots == 1

    def test_rgi_analytic_overlap(self):
        # r(pi/180, pi/180) on |0>: sigma11 = cos^2(pi/360)
        theta = math.pi / 180
        original = Circuit(1)
        mutant = Circuit(1, (GateApplication("r", (0,), (theta, theta)),))
        est = estimate_shots_for_pair(original, mutant, p_e=0.05)
        sigma11 = math.cos(theta / 2) ** 2
        assert est.sigma11 == pytest.approx(sigma11, abs=1e-12)
        assert est.shots == math.ceil(math.log(0.05) / math.log(sigma11))

    def test_equivalent_pair_raises(self):
        c = Circuit(1, (GateApplication("h", (0,)),))
        with pytest.raises(EquivalentStatesError):
            estimate_shots_for_pair(c, c)

    def test_self_pairs_get_no_plan(self):
        # rounding leaves a circuit's overlap with itself a few ulps below 1
        # (0.9999999999999989 for random_circuit(4, 10, seed=39)), under the
        # 1 - 1e-15 limit; the statevector predicate still refuses the pair
        for s in range(400):
            c = random_circuit(1 + s % 4, 1 + s % 10, seed=s)
            with pytest.raises(EquivalentStatesError):
                estimate_shots_for_pair(c, c)

    def test_statevector_expectation_needs_no_synthesis(self, monkeypatch):
        # sigma_11 is the overlap of the two n-qubit states, so planning
        # against a StateVector synthesizes no preparation of it
        def refuse(*args, **kwargs):
            raise AssertionError("a state preparation was synthesized")

        for name, module in list(sys.modules.items()):
            if name.startswith("qut.") and hasattr(module, "synthesize_state_prep"):
                monkeypatch.setattr(module, "synthesize_state_prep", refuse)
        rng = np.random.default_rng(5)
        for seed in range(10):
            n = 1 + seed % 3
            expected = random_statevector(n, rng)
            mutant = random_circuit(n, 3, seed=seed)
            est = estimate_shots_for_pair(expected, mutant)
            assert est.sigma11 == fidelity(run_statevector(mutant), expected)


class TestShotCurve:
    def test_reference_points(self):
        assert estimate_shots(0.5, 0.05).shots == 5
        assert estimate_shots(0.001, 0.05).shots == 1

    def test_monotone_over_200_point_grid(self):
        grid = np.linspace(0.001, 0.999, 200)
        by_pe = {p_e: [estimate_shots(s11, p_e).shots for s11 in grid]
                 for p_e in (0.001, 0.01, 0.05)}
        for counts in by_pe.values():
            assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert all(a >= b >= c for a, b, c in
                   zip(by_pe[0.001], by_pe[0.01], by_pe[0.05]))
