"""Wrapper-based tracing of qut's public functions.

`Tracer.install()` replaces every public function of every `qut` module at
each name it is bound to (so `qut.bench.sample_from_probs` and
`qut.simulator.sample_from_probs` both route through one wrapper), and
`uninstall()` puts the originals back.  Each call records a span (name,
start, end, parent span, and the root span of its call tree as the
operation id) and adds to per-function counts;
a few functions also feed work counters (shots drawn, bytes computed, ...).
Nothing inside `src/` is changed.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

# Spans beyond this many are counted but not kept, so memory stays bounded on
# workloads that apply tens of thousands of gates per verdict.
MAX_SPANS = 200_000

# Layers whose self time is reported in the result line; every workload runs
# code in each of them.  Every function's self time goes to the trace file.
REPORTED_LAYERS = ("cli", "qasm", "circuit", "core", "gates", "simulator", "testing")

# Counters reported in the result line, in BENCHMARK.json order.
REPORTED_COUNTS = (
    "simulator.sample_from_probs.calls",
    "simulator.marginal_sample.calls",
    "simulator.run_statevector.calls",
    "simulator.shots_drawn",
    "core.apply_unitary.calls",
    "core.apply_unitary.bytes_computed",
    "gates.gate_matrix.calls",
    "circuit.build_swap_harness.calls",
    "circuit.build_inverse_harness.calls",
    "circuit.harness_qubits_max",
    "synth.synthesize_state_prep.calls",
    "synth.gates_emitted",
    "testing.statistical_p_value.calls",
    "testing.decisive_shots",
    "testing.verdict_shots_drawn",
    "bench.run_benchmark.calls",
    "bench.min_shots_statistical.calls",
    "bench.shots_used",
    "bench.shot_caps",
    "mutation.filter_equivalent.calls",
    "mutation.mutants_generated",
    "mutation.mutants_kept",
    "shots.estimate_shots_for_pair.calls",
    "shots.qcb_exponent.calls",
    "core.fractional_power.calls",
)


def _qut_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "qut" or name.startswith("qut.")]


class Tracer:
    """Per-function calls and self time, spans and work counters for one run."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []  # [span id, operation id, child seconds]
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for module in _qut_modules():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("qut.")):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn):
        name = f"{fn.__module__.removeprefix('qut.')}.{fn.__name__}"
        signature = inspect.signature(fn)
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
                if name == "mutation.filter_equivalent":
                    arguments["mutants"] = list(arguments["mutants"])
                    args, kwargs = bound.args, bound.kwargs
            span_id = self._next_id
            self._next_id += 1
            parent, op = (self._stack[-1][0], self._stack[-1][1]) if self._stack else (None, span_id)
            self._stack.append([span_id, op, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                child = self._stack.pop()[2]
                elapsed = end - start
                if self._stack:
                    self._stack[-1][2] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - child
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, parent, op, name, start, end))
                else:
                    self.spans_dropped += 1
            if counter is not None:
                counter(self.counts, arguments, result)
            return result

        return wrapper

    # -- reporting ----------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for key in REPORTED_COUNTS:
            if key.endswith(".calls"):
                out[key] = self.calls.get(key.removesuffix(".calls"), 0)
            else:
                out[key] = self.counts.get(key, 0)
        for layer in REPORTED_LAYERS:
            out[f"{layer}.self_s"] = self.layer_self_s(layer)
        return out

    def write(self, path: Path) -> None:
        """Per-function table, ratios and the kept spans, as JSON lines."""
        ratios = {
            "testing.decisive_shot_ratio": _ratio(self.counts.get("testing.decisive_shots", 0),
                                                  self.counts.get("testing.verdict_shots_drawn", 0)),
            "bench.shots_used_ratio": _ratio(self.counts.get("bench.shots_used", 0),
                                             self.counts.get("bench.shot_caps", 0)),
        }
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "summary", "counts": dict(self.counts), "ratios": ratios,
                                 "spans_kept": len(self.spans),
                                 "spans_dropped": self.spans_dropped}) + "\n")
            for name in sorted(self.calls):
                fh.write(json.dumps({"kind": "function", "name": name, "calls": self.calls[name],
                                     "self_s": self.self_s[name]}) + "\n")
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"kind": "span", "id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


# -- work counters, keyed by the traced function ------------------------------

def _count_samples(counts, args, result):
    counts["simulator.shots_drawn"] += int(args["shots"])


def _count_apply(counts, args, result):
    # computed, not measured: the state is read once and written once
    counts["core.apply_unitary.bytes_computed"] += 2 * 16 * (1 << args["state"].num_qubits)


def _count_swap_harness(counts, args, result):
    counts["circuit.harness_qubits_max"] = max(counts["circuit.harness_qubits_max"],
                                               result.num_qubits)


def _count_synth(counts, args, result):
    counts["synth.gates_emitted"] += len(result.gates)


def _count_decisive(counts, args, result):
    shots = int(args["shots"])
    first = result.first_failure_shot
    counts["testing.decisive_shots"] += shots if first is None else first
    counts["testing.verdict_shots_drawn"] += shots


def _count_bench(counts, args, result):
    config = args["config"]
    for row in result:
        if row.test == "statevector" or row.verdict == "error":
            continue
        cap = max(min(config.shot_cap_absolute,
                      math.ceil(config.cap_factor * row.shot_estimate)), 1)
        counts["bench.shots_used"] += row.shots_used
        counts["bench.shot_caps"] += cap


def _count_filter(counts, args, result):
    counts["mutation.mutants_generated"] += len(args["mutants"])
    counts["mutation.mutants_kept"] += len(result)


_COUNTERS = {
    "simulator.sample_from_probs": _count_samples,
    "simulator.marginal_sample": _count_samples,
    "core.apply_unitary": _count_apply,
    "circuit.build_swap_harness": _count_swap_harness,
    "synth.synthesize_state_prep": _count_synth,
    "testing.swap_test": _count_decisive,
    "testing.inverse_test": _count_decisive,
    "bench.run_benchmark": _count_bench,
    "mutation.filter_equivalent": _count_filter,
}
