import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qut.circuit import Circuit, GateApplication, random_circuit
from qut.mutation import (
    RGI_ANGLE,
    MutantRecord,
    filter_equivalent,
    mutate_qgd,
    mutate_qgi,
    mutate_qgr,
    mutate_rgi,
    sample_mutants,
)
from qut.core import StateVector, fidelity
from qut.shots import EquivalentStatesError, estimate_shots_for_pair
from qut.simulator import run_statevector
from qut.testing import inverse_test, swap_test


def single(kind, *targets, params=()):
    n = max(targets) + 1
    return Circuit(n, (GateApplication(kind, tuple(targets), params),))


class TestQgr:
    def test_h_gives_eight_replacements(self):
        recs = mutate_qgr(single("h", 0))
        assert len(recs) == 8
        assert {r.replacement for r in recs} == {
            "id", "x", "y", "z", "s", "sdg", "t", "tdg"}

    def test_r_singleton_class_gives_none(self):
        recs = mutate_qgr(single("r", 0, params=(0.1, 0.2)))
        assert recs == []

    def test_cx_gives_three(self):
        recs = mutate_qgr(single("cx", 0, 1))
        assert {r.replacement for r in recs} == {"cy", "cz", "swap"}

    def test_parameters_carried_over(self):
        recs = mutate_qgr(single("rx", 0, params=(0.7,)))
        assert all(r.circuit.gates[0].params == (0.7,) for r in recs)

    def test_original_untouched(self):
        c = single("h", 0)
        mutate_qgr(c)
        assert c.gates[0].kind == "h"


class TestQgd:
    def test_count_equals_gate_count(self):
        c = random_circuit(3, 4, seed=0)
        assert len(mutate_qgd(c)) == len(c.gates)

    def test_single_gate_gives_empty(self):
        recs = mutate_qgd(single("h", 0))
        assert len(recs) == 1 and len(recs[0].circuit.gates) == 0

    def test_delete_h_from_hh_fidelity_half(self):
        c = Circuit(1, (GateApplication("h", (0,)),
                        GateApplication("h", (0,))))
        recs = filter_equivalent(c, mutate_qgd(c))
        assert len(recs) == 2
        assert all(r.fidelity_to_original == pytest.approx(0.5) for r in recs)


class TestQgi:
    def test_x_gives_nine_insertions(self):
        recs = mutate_qgi(single("x", 0))
        assert len(recs) == 9

    def test_inserted_after_site_same_targets(self):
        c = Circuit(2, (GateApplication("cx", (0, 1)),))
        recs = mutate_qgi(c)
        for r in recs:
            assert len(r.circuit.gates) == 2
            assert r.circuit.gates[1].targets == (0, 1)

    def test_x_after_x_retained(self):
        # [x, x] acts as identity, differing from the original [x]
        recs = filter_equivalent(single("x", 0), mutate_qgi(single("x", 0)))
        xx = [r for r in recs if r.replacement == "x"]
        assert len(xx) == 1 and xx[0].fidelity_to_original == pytest.approx(0.0)

    def test_id_insertion_always_filtered(self):
        recs = filter_equivalent(single("x", 0), mutate_qgi(single("x", 0)))
        assert all(r.replacement != "id" for r in recs)


class TestRgi:
    def test_angle_constant(self):
        assert RGI_ANGLE == math.pi / 180

    def test_empty_circuit_mutant(self):
        recs = mutate_rgi(Circuit(1), seed=0)
        assert len(recs) == 1
        g = recs[0].circuit.gates[0]
        assert g.kind == "r" and g.params == (RGI_ANGLE, RGI_ANGLE)
        f = fidelity(run_statevector(recs[0].circuit), StateVector.zero(1))
        assert f == pytest.approx(math.cos(math.pi / 360) ** 2)

    def test_never_filtered_as_equivalent(self):
        for seed in range(20):
            c = random_circuit(2, 3, seed=seed)
            recs = mutate_rgi(c, seed=seed, count=3)
            assert len(filter_equivalent(c, recs)) == 3

    def test_seed_determinism(self):
        c = random_circuit(3, 5, seed=1)
        a = mutate_rgi(c, seed=9, count=5)
        b = mutate_rgi(c, seed=9, count=5)
        assert [(r.site, r.circuit.gates[r.site].targets) for r in a] == \
               [(r.site, r.circuit.gates[r.site].targets) for r in b]


class TestFilterEquivalent:
    def test_ss_vs_z_removed(self):
        original = single("z", 0)
        mutant = Circuit(1, (GateApplication("s", (0,)),
                             GateApplication("s", (0,))))
        recs = filter_equivalent(original,
                                 [MutantRecord("QGR", 0, "s", mutant)])
        assert recs == []

    def test_x_vs_h_retained(self):
        recs = filter_equivalent(single("h", 0),
                                 [MutantRecord("QGR", 0, "x", single("x", 0))])
        assert len(recs) == 1

    def test_survivor_fidelities_below_threshold(self):
        for seed in range(10):
            c = random_circuit(3, 3, seed=seed)
            recs = filter_equivalent(c, mutate_qgi(c) + mutate_qgd(c))
            assert all(r.fidelity_to_original < 1 - 1e-10 for r in recs)


class TestOnePredicate:
    """The mutant filter, the shot planner and the swap and inverse verdicts
    agree on which states are the same: a mutant the filter drops gets no
    shot plan, and swap and inverse pass it without drawing a shot."""

    @given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dropped_mutants_are_equivalent_everywhere(self, n, depth, seed):
        c = random_circuit(n, depth, seed=seed)
        q = seed % n
        # the self-pair and three identities appended on qubit q, which the
        # filter always drops, besides whichever gate deletions it drops
        tails = [(), ("z", "z"), ("h", "h"), ("s", "s", "z")]
        mutants = mutate_qgd(c) + [
            MutantRecord("QGI", len(c.gates), None, Circuit(
                n, c.gates + tuple(GateApplication(k, (q,)) for k in tail)))
            for tail in tails
        ]
        kept = {r.circuit.gates for r in filter_equivalent(c, mutants)}
        dropped = [r.circuit for r in mutants if r.circuit.gates not in kept]
        assert len(dropped) >= len(tails)
        with mock.patch("qut.testing.first_failing_shot",
                        side_effect=AssertionError("drew a shot")):
            for mutant in dropped:
                with pytest.raises(EquivalentStatesError):
                    estimate_shots_for_pair(c, mutant)
                for test in (swap_test, inverse_test):
                    assert test(Circuit(n), mutant, c, 10 ** 7, seed).passed


class TestSampleMutants:
    def test_fraction_one_identity(self):
        recs = mutate_qgd(random_circuit(2, 5, seed=0))
        assert sample_mutants(recs, 1.0, seed=0) == recs

    def test_ceil_sizing(self):
        recs = mutate_qgd(random_circuit(4, 10, seed=0))
        sampled = sample_mutants(recs, 0.1, seed=0)
        assert len(sampled) == math.ceil(0.1 * len(recs))

    def test_deterministic_per_seed(self):
        recs = mutate_qgd(random_circuit(4, 10, seed=0))
        assert sample_mutants(recs, 0.3, 7) == sample_mutants(recs, 0.3, 7)

    def test_seeds_differ(self):
        recs = mutate_qgd(random_circuit(4, 10, seed=0))
        subsets = {tuple(id(r) for r in sample_mutants(recs, 0.3, s))
                   for s in range(100)}
        assert len(subsets) > 1

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            sample_mutants([], 0.0, 0)
