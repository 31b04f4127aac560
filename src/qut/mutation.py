"""Mutation operators (QGR replace, QGD delete, QGI insert, RGI small-rotation
insert) and equivalent-mutant filtering."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import gates
from .circuit import Circuit, GateApplication
from .simulator import run_statevector
from .testing import statevector_verdict

RGI_ANGLE = math.pi / 180.0


@dataclass(frozen=True)
class MutantRecord:
    operator: str  # "QGR" | "QGD" | "QGI" | "RGI"
    site: int  # gate index, or insertion index for QGI/RGI
    replacement: str | None
    circuit: Circuit
    fidelity_to_original: float | None = None


def _class_peers(kind: str, include_self: bool) -> list[str]:
    if kind == gates.CUSTOM:
        return []
    peers = sorted(gates.equivalence_class(kind))
    if not include_self:
        peers = [k for k in peers if k != kind]
    return peers


def mutate_qgr(c: Circuit) -> list[MutantRecord]:
    """Replace each gate with every other member of its equivalence class."""
    out = []
    for i, g in enumerate(c.gates):
        for peer in _class_peers(g.kind, include_self=False):
            mutated = GateApplication(peer, g.targets, g.params)
            new_gates = c.gates[:i] + (mutated,) + c.gates[i + 1:]
            out.append(MutantRecord(
                "QGR", i, peer, Circuit(c.num_qubits, new_gates, f"{c.name}_qgr")
            ))
    return out


def mutate_qgd(c: Circuit) -> list[MutantRecord]:
    """Delete each gate in turn."""
    return [
        MutantRecord(
            "QGD", i, None,
            Circuit(c.num_qubits, c.gates[:i] + c.gates[i + 1:], f"{c.name}_qgd"),
        )
        for i in range(len(c.gates))
    ]


def mutate_qgi(c: Circuit) -> list[MutantRecord]:
    """Insert, after each gate, every member of its equivalence class
    (including the gate's own kind) on the same targets and parameters."""
    out = []
    for i, g in enumerate(c.gates):
        for peer in _class_peers(g.kind, include_self=True):
            inserted = GateApplication(peer, g.targets, g.params)
            new_gates = c.gates[: i + 1] + (inserted,) + c.gates[i + 1:]
            out.append(MutantRecord(
                "QGI", i + 1, peer,
                Circuit(c.num_qubits, new_gates, f"{c.name}_qgi"),
            ))
    return out


def mutate_rgi(c: Circuit, seed: int, count: int = 1) -> list[MutantRecord]:
    """Insert r(pi/180, pi/180) at `count` seeded random (gate boundary,
    qubit) sites; a negative count raises ValueError."""
    if count < 0:
        raise ValueError(f"rgi count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        position = int(rng.integers(len(c.gates) + 1))
        qubit = int(rng.integers(c.num_qubits))
        inserted = GateApplication("r", (qubit,), (RGI_ANGLE, RGI_ANGLE))
        new_gates = c.gates[:position] + (inserted,) + c.gates[position:]
        out.append(MutantRecord(
            "RGI", position, "r",
            Circuit(c.num_qubits, new_gates, f"{c.name}_rgi"),
        ))
    return out


# name -> operator, in `qut mutate`'s default order; rgi also takes a seed and a count
OPERATORS = {"qgr": mutate_qgr, "qgd": mutate_qgd, "qgi": mutate_qgi, "rgi": mutate_rgi}


def filter_equivalent(
    original: Circuit, mutants: Iterable[MutantRecord]
) -> list[MutantRecord]:
    """Drop mutants that pass `statevector_verdict` against the original;
    annotate survivors with the fidelity that verdict carries."""
    original_state = run_statevector(original)
    survivors = []
    for rec in mutants:
        same = statevector_verdict(run_statevector(rec.circuit), original_state)
        if not same.passed:
            survivors.append(replace(rec, fidelity_to_original=same.fidelity))
    return survivors


def sample_mutants(
    records: Sequence[MutantRecord], fraction: float, seed: int
) -> list[MutantRecord]:
    """Uniform seeded sample without replacement of ceil(fraction * count)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    if fraction == 1.0:
        return list(records)
    size = math.ceil(fraction * len(records))
    rng = np.random.default_rng(seed)
    chosen = sorted(rng.choice(len(records), size=size, replace=False))
    return [records[i] for i in chosen]
