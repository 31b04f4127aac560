"""Experiment orchestration: per-pair shot caps, minimum-shot search, dense
ranking, repetition management, metrics, and CSV reporting.

Seed mixing: each (pair, test, repetition) task derives its RNG seed from the
first 8 bytes (big-endian) of SHA-256 over the UTF-8 string
"{base_seed}|{pair_id}|{test}|{repetition}", so any implementation of the
same scheme reproduces the measurement streams exactly.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .circuit import Circuit
from .jsonio import _is_int, _is_real, load_circuit
from .shots import EquivalentStatesError, plan_shots
from .simulator import _support, first_failing_shot, run_statevector, sample_from_probs
from .testing import (
    _ENUM_CHUNK,
    ALL_TESTS,
    ASYMPTOTIC_KINDS,
    MC_SEED_TAG,
    MultinomialIntractableError,
    failure_probability,
    gof_statistic,
    statevector_verdict,
    statistical_p_value,
)


def mix_seed(base_seed: int, pair_id: str, test: str, repetition: int) -> int:
    digest = hashlib.sha256(
        f"{base_seed}|{pair_id}|{test}|{repetition}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def dense_rank(values: Sequence[int | None]) -> list[int]:
    """Dense ranking; ties share a rank, NotDetected (None) ranks last, shared."""
    distinct = sorted({v for v in values if v is not None})
    rank_of = {v: i + 1 for i, v in enumerate(distinct)}
    last = len(distinct) + 1 if any(v is None for v in values) else None
    return [rank_of[v] if v is not None else last for v in values]


# A scan block holds at most `testing._ENUM_CHUNK` (prefix, outcome) counts,
# so the search's memory is O(block x K) whatever the cap; the first block
# has _FIRST_BLOCK_ROWS prefixes and each later one twice as many.
_FIRST_BLOCK_ROWS = 256


@functools.lru_cache(maxsize=64)
def _critical_statistic(p_threshold: float, dof: int) -> float:
    """A statistic just below chdtri(dof, p_t), the chi-square critical
    value.  Every statistic whose tail `chdtrc` is below p_t exceeds it, as
    long as chdtri is accurate to the 1e-9 margin."""
    from scipy.special import chdtri

    return float(chdtri(dof, p_threshold)) * (1.0 - 1e-9)


def min_shots_statistical(
    stream_values: np.ndarray,
    expected_probs: np.ndarray,
    kind: str,
    p_threshold: float,
    seed: int = 0,
    mc_reps: int = 1000,
) -> int | None:
    """Minimal prefix length S of the realized stream, whose length is the
    cap, with `statistical_p_value` below p_t, or None (NotDetected).

    The p-value is not monotone in S, so the prefixes are scanned in order,
    in blocks of growing length, up to the first crossing; a Monte Carlo
    kind draws from the seed [seed, S, MC_SEED_TAG].  Two screens skip
    prefixes that cannot cross and decide nothing: a one-outcome support has
    p = 1, and a chi2 or G statistic at most `_critical_statistic` has a
    tail above p_t.  The first out-of-support sample ends the scan, with p = 0.
    """
    support = _support(expected_probs)
    outside = np.flatnonzero(~support[stream_values])
    horizon = int(outside[0]) if outside.size else len(stream_values)
    k = int(support.sum())
    probs = expected_probs[support]
    p_sup = probs / probs.sum()
    # remap in-support basis states to compact category indices
    cats = (np.cumsum(support) - 1)[stream_values[:horizon]]
    carried = np.zeros(k)
    start, rows = 0, _FIRST_BLOCK_ROWS
    while k >= 2 and start < horizon:
        stop = min(horizon, start + min(rows, max(1, _ENUM_CHUNK // k)))
        one_hot = np.zeros((stop - start, k))
        one_hot[np.arange(stop - start), cats[start:stop]] = 1.0
        # integer counts held exactly in floats: the same values as one
        # cumsum over the whole stream
        counts = np.cumsum(one_hot, axis=0) + carried
        if kind in ASYMPTOTIC_KINDS:
            s = np.arange(start + 1, stop + 1, dtype=float)[:, None]
            stat = gof_statistic(counts, s * p_sup, kind)
            candidates = np.flatnonzero(stat > _critical_statistic(p_threshold, k - 1))
        else:
            candidates = range(stop - start)
        for i in candidates:
            shots = start + int(i) + 1
            if statistical_p_value(counts[i], probs, kind, mc_reps,
                                   [seed, shots, MC_SEED_TAG]) < p_threshold:
                return shots
        carried = counts[-1]
        start, rows = stop, 2 * rows
    return horizon + 1 if horizon < len(stream_values) else None


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: str = ""
    tests: tuple[str, ...] = ("chi2", "swap", "statevector", "inverse")
    p_t: float = 0.05
    p_e: float = 0.05
    shot_cap_absolute: int = 10_000
    cap_factor: float = 2.0
    repetitions: int = 100
    base_seed: int = 0
    mc_reps: int = 1000
    record_timing: bool = False

    def __post_init__(self):
        # JSON gives booleans where numbers are meant, and numbers and
        # strings where booleans are: each field is checked for its type
        if not isinstance(self.corpus, str):
            raise ValueError(f"corpus must be a path string, got {self.corpus!r}")
        if (not isinstance(self.tests, (list, tuple))
                or not all(isinstance(test, str) for test in self.tests)):
            raise ValueError("tests must be a list of test names")
        if not self.tests:
            raise ValueError("tests must name at least one test")
        object.__setattr__(self, "tests", tuple(self.tests))
        if not isinstance(self.record_timing, bool):
            raise ValueError(
                f"record_timing must be true or false, got {self.record_timing!r}")
        if not _is_int(self.base_seed):
            raise ValueError(f"base_seed must be an integer, got {self.base_seed!r}")
        for name in ("repetitions", "shot_cap_absolute", "mc_reps"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("p_t", "p_e"):
            value = getattr(self, name)
            if not _is_real(value) or not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be a number in (0, 1), got {value!r}")
        if not _is_real(self.cap_factor) or self.cap_factor <= 0.0:
            raise ValueError(
                f"cap_factor must be a positive finite number, got {self.cap_factor!r}")
        unknown = set(self.tests) - set(ALL_TESTS)
        if unknown:
            raise ValueError(f"unknown tests: {sorted(unknown)}")
        if len(set(self.tests)) != len(self.tests):
            raise ValueError(f"tests repeat a name: {list(self.tests)}")


@dataclass(frozen=True)
class ExperimentRow:
    pair_id: str
    test: str
    repetition: int
    seed: int
    verdict: str  # "pass" | "fail" | "not_detected" | "error"
    shots_used: int
    shot_estimate: int
    rank: int | None = None
    wall_time_ms: int = 0


# one CSV column per field, in field order; csv writes a None rank as ""
CSV_HEADER = [f.name for f in fields(ExperimentRow)]


@dataclass
class CorpusPair:
    pair_id: str
    original: Circuit
    mutant: Circuit

    def __post_init__(self):
        # checked as the corpus loads, so that no pair runs before a bad one
        if self.original.num_qubits != self.mutant.num_qubits:
            raise ValueError(f"pair_id '{self.pair_id}': the original has "
                             f"{self.original.num_qubits} qubits and the mutant "
                             f"{self.mutant.num_qubits}")


def load_corpus(manifest_path: str | Path) -> list[CorpusPair]:
    """Corpus manifest: JSON lines of {pair_id, original, mutant} with file
    paths relative to the manifest.  A line that is not JSON, not an object
    with those keys, or whose paths are not non-empty strings, raises
    ValueError naming the line, and so do a repeated pair_id, since rows
    are keyed and ranked by it, a pair whose original and mutant differ in
    width and a manifest with no pair."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    pairs, ids = [], set()
    for number, line in enumerate(manifest_path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{manifest_path} line {number} is not valid JSON: "
                             f"{exc.msg} at column {exc.colno}") from None
        for key in ("pair_id", "original", "mutant"):
            if not isinstance(entry, dict) or key not in entry:
                raise ValueError(
                    f"{manifest_path} line {number} is not an object with the key {key!r}")
            if key != "pair_id" and (not isinstance(entry[key], str) or not entry[key]):
                raise ValueError(f"{manifest_path} line {number}: {key!r} must be a "
                                 f"path string, got {entry[key]!r}")
        pair_id = str(entry["pair_id"])
        if pair_id in ids:
            raise ValueError(f"pair_id '{pair_id}' appears twice")
        ids.add(pair_id)
        pairs.append(CorpusPair(
            pair_id,
            load_circuit(base / entry["original"]),
            load_circuit(base / entry["mutant"]),
        ))
    if not pairs:
        raise ValueError(f"{manifest_path} holds no pairs")
    return pairs


def _run_pair(pair: CorpusPair, config: ExperimentConfig) -> list[ExperimentRow]:
    """Rows of every configured test for one pair.  The original and the
    mutant are simulated once each; sigma_11 is the fidelity their
    `statevector_verdict` carries, the shot estimate's input and the swap
    and inverse laws' F.  A pair that passes `statevector_verdict`, or has
    no shot plan, gets one error row per test.
    The sampled rows of each repetition are dense-ranked together by their
    first detecting shot; error rows carry no rank."""
    original_state = run_statevector(pair.original)
    mutant_state = run_statevector(pair.mutant)
    start = time.perf_counter()
    verdict = statevector_verdict(mutant_state, original_state)
    verdict_ms = int((time.perf_counter() - start) * 1000)
    try:
        estimate = plan_shots(verdict, config.p_e)
    except EquivalentStatesError:
        return [ExperimentRow(pair.pair_id, t, 0, 0, "error", 0, 0)
                for t in config.tests]
    # a product past the absolute cap may be too large to round
    cap = math.ceil(min(config.cap_factor * estimate.shots,
                        config.shot_cap_absolute))

    def row(test, rep, seed, outcome="error", shots_used=0, rank=None, elapsed_ms=0):
        return ExperimentRow(pair.pair_id, test, rep, seed, outcome, shots_used,
                             estimate.shots, rank,
                             elapsed_ms if config.record_timing else 0)

    expected_probs = original_state.probabilities()
    mutant_probs = mutant_state.probabilities()
    rows: list[ExperimentRow] = []
    sampled = [t for t in config.tests if t != "statevector"]
    for rep in range(config.repetitions):
        # (test, seed, first detecting shot or None, ms) of each ranked row
        measured = []
        for test in config.tests if rep == 0 else sampled:
            seed = mix_seed(config.base_seed, pair.pair_id, test, rep)
            if test == "statevector":
                rows.append(row(test, rep, seed, verdict.outcome,
                                elapsed_ms=verdict_ms))
                continue
            start = time.perf_counter()
            if test in ("swap", "inverse"):
                found = first_failing_shot(failure_probability(test, estimate.sigma11),
                                           cap, seed)
            else:
                try:
                    found = min_shots_statistical(
                        sample_from_probs(mutant_probs, cap, seed), expected_probs,
                        test, config.p_t, seed=seed, mc_reps=config.mc_reps)
                except MultinomialIntractableError:
                    rows.append(row(test, rep, seed))
                    continue
            elapsed = int((time.perf_counter() - start) * 1000)
            measured.append((test, seed, found, elapsed))
        ranks = dense_rank([found for _, _, found, _ in measured])
        for (test, seed, found, elapsed), rank in zip(measured, ranks):
            rows.append(row(test, rep, seed, "not_detected" if found is None else "fail",
                            cap if found is None else found, rank, elapsed))
    return rows


def run_benchmark(
    pairs: Sequence[CorpusPair], config: ExperimentConfig
) -> list[ExperimentRow]:
    """Run every configured test on every pair; rows come back sorted by
    (pair_id, test, repetition) so output is order-independent."""
    rows: list[ExperimentRow] = []
    for pair in pairs:
        rows.extend(_run_pair(pair, config))
    rows.sort(key=lambda r: (r.pair_id, r.test, r.repetition))
    return rows


def rows_to_csv(rows: Sequence[ExperimentRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(vars(r).values() for r in rows)
    return buf.getvalue()


def compute_metrics(
    rows: Sequence[ExperimentRow],
) -> dict[str, dict[str, float | None]]:
    """Per-test {tp, fn, recall}; every corpus pair is faulty by construction,
    so a Fail verdict is a true positive and anything else a false negative.
    Recall is None (undefined) for a test whose every row is an error."""
    if not rows:
        raise ValueError("no rows to summarize")
    out: dict[str, dict[str, float | None]] = {}
    for test in sorted({r.test for r in rows}):
        relevant = [r for r in rows if r.test == test and r.verdict != "error"]
        tp = sum(r.verdict == "fail" for r in relevant)
        fn = len(relevant) - tp
        recall = tp / (tp + fn) if tp + fn else None
        out[test] = {"tp": tp, "fn": fn, "recall": recall}
    return out
