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


def _mutant(c: Circuit, operator: str, site: int, replacement: str | None,
            new_gates: tuple[GateApplication, ...]) -> MutantRecord:
    """The one constructor of a record: `c` with `new_gates`, named `<name>_<op>`."""
    return MutantRecord(operator, site, replacement,
                        Circuit(c.num_qubits, new_gates, f"{c.name}_{operator.lower()}"))


def _peer_splice(c: Circuit, operator: str, follows: bool) -> list[MutantRecord]:
    """Each member of each catalog gate's equivalence class, in name order, on
    the gate's targets and parameters: after the gate when `follows`, its own
    kind included, and otherwise in its place, its own kind left out."""
    out = []
    for i, g in enumerate(c.gates):
        if g.kind == gates.CUSTOM:
            continue
        site = i + follows
        for peer in sorted(gates.equivalence_class(g.kind)):
            if follows or peer != g.kind:
                spliced = (GateApplication(peer, g.targets, g.params),)
                out.append(_mutant(c, operator, site, peer,
                                   c.gates[:site] + spliced + c.gates[i + 1:]))
    return out


def mutate_qgr(c: Circuit) -> list[MutantRecord]:
    """Replace each gate with every other member of its equivalence class."""
    return _peer_splice(c, "QGR", follows=False)


def mutate_qgd(c: Circuit) -> list[MutantRecord]:
    """Delete each gate in turn."""
    return [_mutant(c, "QGD", i, None, c.gates[:i] + c.gates[i + 1:])
            for i in range(len(c.gates))]


def mutate_qgi(c: Circuit) -> list[MutantRecord]:
    """Insert, after each gate, every member of its equivalence class
    (including the gate's own kind) on the same targets and parameters."""
    return _peer_splice(c, "QGI", follows=True)


def mutate_rgi(c: Circuit, seed: int, count: int = 1) -> list[MutantRecord]:
    """Insert r(pi/180, pi/180) at `count` seeded random (gate boundary,
    qubit) sites; a negative seed or count raises ValueError."""
    _check_arguments(seed=seed, count=count)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        position = int(rng.integers(len(c.gates) + 1))
        qubit = int(rng.integers(c.num_qubits))
        inserted = GateApplication("r", (qubit,), (RGI_ANGLE, RGI_ANGLE))
        out.append(_mutant(c, "RGI", position, "r",
                           c.gates[:position] + (inserted,) + c.gates[position:]))
    return out


def _check_arguments(fraction: float = 1.0, seed: int = 0, count: int = 0) -> None:
    """The checks of `sample_mutants` and `mutate_rgi`; `qut mutate` makes them first."""
    if not 0.0 < fraction <= 1.0:  # nan too
        raise ValueError("fraction must lie in (0, 1]")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if count < 0:
        raise ValueError(f"rgi count must be >= 0, got {count}")


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
    _check_arguments(fraction=fraction, seed=seed)
    if fraction == 1.0:
        return list(records)
    size = math.ceil(fraction * len(records))
    rng = np.random.default_rng(seed)
    chosen = sorted(rng.choice(len(records), size=size, replace=False))
    return [records[i] for i in chosen]
