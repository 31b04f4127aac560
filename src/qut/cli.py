"""Command-line interface.

Exit codes: 0 pass/success, 1 fail verdict, 2 usage error, 3 I/O or parse
error.

`_COMMANDS` holds each subcommand's help, arguments and handler.  One call
builds the parser of the subcommand it runs and no other, and the handlers
of `bench`, `mutate` and `estimate-shots` import their modules when they run.
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import sys
from pathlib import Path

from .circuit import Circuit
from .jsonio import CircuitJsonError, emit_json, load_circuit
from .qasm import ParseDiagnostic, QasmError, emit_qasm
from .testing import (
    DEFAULT_TOLERANCE,
    ExpectedSpec,
    inverse_test,
    statevector_test,
    statistical_test,
    swap_test,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

_TEST_NAMES = {
    "chi2": "chi2",
    "g": "g_test",
    "multinomial": "multinomial",
    "mc-chi2": "mc_chi2",
    "mc-g": "mc_g",
    "mc-multinomial": "mc_multinomial",
    "swap": "swap",
    "statevector": "statevector",
    "inverse": "inverse",
}


class CliIoError(Exception):
    pass


def _load_circuit(path: str, warnings: list[str] | None = None,
                  states: bool = False) -> ExpectedSpec:
    """`jsonio.load_circuit` with its errors as CliIoError (exit 3); parser
    warnings such as stripped measurements are appended to `warnings` as
    "path: line N: message"."""
    diagnostics: list[ParseDiagnostic] = []
    try:
        loaded = load_circuit(path, diagnostics, states)
    except OSError as exc:
        raise CliIoError(f"cannot read {path}: {exc}")
    except (QasmError, CircuitJsonError) as exc:
        raise CliIoError(f"{path}: {exc}")
    if warnings is not None:
        warnings += [f"{path}: line {d.line}: {d.message}" for d in diagnostics]
    return loaded


def _cmd_run(args) -> int:
    warnings: list[str] = []
    program = _load_circuit(args.program, warnings)
    w = (_load_circuit(args.input, warnings) if args.input
         else Circuit(program.num_qubits))
    expected = _load_circuit(args.expected, warnings, states=True)
    test = _TEST_NAMES[args.test]
    if test == "statevector":
        verdict = statevector_test(
            w, program, expected, tolerance=args.tolerance,
            mode="global_phase" if args.phase_mode == "global" else "strict",
        )
    elif test == "swap":
        verdict = swap_test(w, program, expected, args.shots, args.seed)
    elif test == "inverse":
        verdict = inverse_test(w, program, expected, args.shots, args.seed)
    else:
        verdict = statistical_test(w, program, expected, args.shots,
                                   args.p_value, test, args.seed, args.mc_reps)
    detail = {
        "outcome": verdict.outcome,
        "p_value": verdict.p_value,
        "first_failure_shot": verdict.first_failure_shot,
        "max_amplitude_deviation": verdict.max_amplitude_deviation,
        "fidelity": verdict.fidelity,
        "failure_probability": verdict.failure_probability,
        "warnings": warnings + list(verdict.warnings),
    }
    print(json.dumps({k: v for k, v in detail.items() if v not in (None, [])}))
    return EXIT_PASS if verdict.passed else EXIT_FAIL


def _cmd_estimate_shots(args) -> int:
    from .shots import EquivalentStatesError, estimate_shots_for_pair

    warnings: list[str] = []
    program = _load_circuit(args.program, warnings)
    expected = _load_circuit(args.expected, warnings, states=True)
    try:
        est = estimate_shots_for_pair(expected, program, p_e=args.pe)
        # every estimate is the pure-state closed form
        detail = {"shots": est.shots, "sigma11": est.sigma11,
                  "p_e": est.p_e, "method": "closed_form"}
    except EquivalentStatesError as exc:
        detail = {"equivalent": True, "message": str(exc)}
    print(json.dumps(detail | ({"warnings": warnings} if warnings else {})))
    return EXIT_PASS


def _cmd_mutate(args) -> int:
    from . import mutation

    circuit = _load_circuit(args.circuit)
    operators = [op.strip().lower() for op in args.operators.split(",") if op.strip()]
    unknown = set(operators) - {"qgr", "qgd", "qgi", "rgi"}
    if unknown:
        raise CliIoError(f"unknown operators: {sorted(unknown)}")
    records = []
    for op in operators:
        if op == "qgr":
            records += mutation.mutate_qgr(circuit)
        elif op == "qgd":
            records += mutation.mutate_qgd(circuit)
        elif op == "qgi":
            records += mutation.mutate_qgi(circuit)
        else:
            records += mutation.mutate_rgi(circuit, args.seed, count=args.rgi_count)
    records = mutation.filter_equivalent(circuit, records)
    if args.fraction < 1.0:
        records = mutation.sample_mutants(records, args.fraction, args.seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_lines = []
    for i, rec in enumerate(records):
        fname = f"mutant_{i:05d}.json"
        (out_dir / fname).write_text(emit_json(rec.circuit))
        manifest_lines.append(json.dumps({
            "operator": rec.operator,
            "site": rec.site,
            "replacement": rec.replacement,
            "fidelity": rec.fidelity_to_original,
            "path": fname,
        }))
    (out_dir / "manifest.jsonl").write_text("\n".join(manifest_lines) + "\n")
    print(f"wrote {len(records)} mutants to {out_dir}")
    return EXIT_PASS


def _cmd_bench(args) -> int:
    from . import bench

    try:
        config = bench.ExperimentConfig.from_json(Path(args.config).read_text())
    except OSError as exc:
        raise CliIoError(f"cannot read {args.config}: {exc}")
    except (RecursionError, TypeError, ValueError) as exc:  # RecursionError: nesting too deep
        raise CliIoError(f"bad config: {exc}")
    try:
        pairs = bench.load_corpus(config.corpus)
    except (OSError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise CliIoError(f"cannot load corpus: {exc}")
    rows = bench.run_benchmark(pairs, config)
    Path(args.out).write_text(bench.rows_to_csv(rows))
    metrics = bench.compute_metrics(rows)
    print(json.dumps(metrics, indent=2))
    return EXIT_PASS


def _cmd_parse(args) -> int:
    circuit = _load_circuit(args.infile)
    if args.emit == "json":
        print(emit_json(circuit))
    else:
        print(emit_qasm(circuit), end="")
    return EXIT_PASS


# name -> (help, argument declarations, handler)
_COMMANDS = {
    "run": ("run one quantum unit test", (
        ("--program", {"required": True}),
        ("--input", {"default": None, "help": "preparation circuit W"}),
        ("--expected", {"required": True}),
        ("--test", {"required": True, "choices": sorted(_TEST_NAMES)}),
        ("--shots", {"type": int, "default": 1024}),
        ("--p-value", {"type": float, "default": 0.05}),
        ("--seed", {"type": int, "default": 0}),
        ("--mc-reps", {"type": int, "default": 1000}),
        ("--tolerance", {"type": float, "default": DEFAULT_TOLERANCE}),
        ("--phase-mode", {"choices": ["global", "strict"], "default": "global"}),
    ), _cmd_run),
    "estimate-shots": ("Chernoff-bound shot estimate", (
        ("--program", {"required": True}),
        ("--expected", {"required": True}),
        ("--pe", {"type": float, "default": 0.05}),
    ), _cmd_estimate_shots),
    "mutate": ("generate mutants of a circuit", (
        ("--circuit", {"required": True}),
        ("--operators", {"default": "qgr,qgd,qgi,rgi"}),
        ("--fraction", {"type": float, "default": 1.0}),
        ("--seed", {"type": int, "default": 0}),
        ("--rgi-count", {"type": int, "default": 1}),
        ("--out", {"required": True}),
    ), _cmd_mutate),
    "bench": ("run a benchmark from a config file", (
        ("--config", {"required": True}),
        ("--out", {"required": True}),
    ), _cmd_bench),
    "parse": ("parse and re-emit a circuit file", (
        ("--in", {"dest": "infile", "required": True}),
        ("--emit", {"choices": ["json", "qasm"], "default": "qasm"}),
    ), _cmd_parse),
}


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, built when argparse dispatches to it.  argparse
    calls nothing on it but `parse_known_args`, so its `ArgumentParser`
    set-up and its argument declarations wait until then, and a call builds
    no other subcommand's parser."""

    def __init__(self, *, declarations, handler, **kwargs):
        self._pending = (kwargs, declarations, handler)

    def parse_known_args(self, args=None, namespace=None):
        if self._pending:
            kwargs, declarations, handler = self._pending
            self._pending = None
            super().__init__(**kwargs)
            for flag, options in declarations:
                self.add_argument(flag, **options)
            self.set_defaults(func=handler)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    # argparse would compute this width again for every argument it declares
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(prog="qut", formatter_class=formatter,
                                     description="quantum unit-test runner")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)
    for name, (help_text, declarations, handler) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, formatter_class=formatter,
                       declarations=declarations, handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.func(args)
    except CliIoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
