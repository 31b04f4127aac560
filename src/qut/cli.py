"""Command-line interface.

Exit codes: 0 pass/success, 1 fail verdict, 2 usage error, 3 I/O or parse
error.

`_COMMANDS` holds each subcommand's help, arguments and handler.  A call
that names a subcommand first builds that subcommand's parser alone.  Any
other argv, and one that leaves arguments unrecognized, goes to
`build_parser`, which declares every subcommand, so help texts and usage
errors are the full parser's.  The handlers of `bench`, `mutate` and
`estimate-shots` import their modules when they run.
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
    ALL_TESTS,
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

# `--test` spellings: g_test is g, and underscores are hyphens
_TEST_NAMES = {t.removesuffix("_test").replace("_", "-"): t for t in ALL_TESTS}


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
    # the verdict's fields in order, the parser's warnings before its own
    detail = vars(verdict) | {"warnings": warnings + list(verdict.warnings)}
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
        detail = {**vars(est), "method": "closed_form"}
    except EquivalentStatesError as exc:
        detail = {"equivalent": True, "message": str(exc)}
    print(json.dumps(detail | ({"warnings": warnings} if warnings else {})))
    return EXIT_PASS


def _cmd_mutate(args) -> int:
    from . import mutation

    if not 0.0 < args.fraction <= 1.0:  # nan too: checked before any work
        raise ValueError("fraction must lie in (0, 1]")
    operators = [op.strip().lower() for op in args.operators.split(",") if op.strip()]
    unknown = set(operators) - set(mutation.OPERATORS)
    if unknown:
        raise ValueError(f"unknown operators: {sorted(unknown)}")
    if not operators:
        raise ValueError(
            f"operators must name at least one of {', '.join(mutation.OPERATORS)}")
    if len(set(operators)) < len(operators):
        raise ValueError(f"operators repeat a name: {operators}")
    circuit = _load_circuit(args.circuit)
    records = []
    for op in operators:
        mutate = mutation.OPERATORS[op]
        records += (mutate(circuit, args.seed, count=args.rgi_count) if op == "rgi"
                    else mutate(circuit))
    records = mutation.filter_equivalent(circuit, records)
    if args.fraction < 1.0:
        records = mutation.sample_mutants(records, args.fraction, args.seed)

    out_dir = Path(args.out)
    manifest_lines = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
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
    except OSError as exc:
        raise CliIoError(f"cannot write {out_dir}: {exc.strerror or exc}")
    print(f"wrote {len(records)} mutants to {out_dir}")
    return EXIT_PASS


def _cmd_bench(args) -> int:
    from . import bench

    try:
        config = bench.ExperimentConfig(**json.loads(Path(args.config).read_text()))
    except OSError as exc:
        raise CliIoError(f"cannot read {args.config}: {exc}")
    except (RecursionError, TypeError, ValueError) as exc:  # RecursionError: nesting too deep
        raise CliIoError(f"bad config: {exc}")
    try:
        pairs = bench.load_corpus(config.corpus)
    except (OSError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise CliIoError(f"cannot load corpus: {exc}")
    out = Path(args.out)
    # checked before any pair runs, so that no run is thrown away at the end
    if out.is_dir():
        raise CliIoError(f"cannot write {out}: is a directory")
    if not out.parent.is_dir():
        raise CliIoError(f"cannot write {out}: {out.parent} is not a directory")
    rows = bench.run_benchmark(pairs, config)
    try:
        out.write_text(bench.rows_to_csv(rows))
    except OSError as exc:
        raise CliIoError(f"cannot write {out}: {exc.strerror or exc}")
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


def _formatter():
    # argparse would compute this width again for every argument it declares
    return functools.partial(argparse.HelpFormatter,
                             width=shutil.get_terminal_size().columns - 2)


def _declare(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    for flag, options in _COMMANDS[name][1]:
        parser.add_argument(flag, **options)
    parser.set_defaults(func=_COMMANDS[name][2])
    return parser


def build_parser() -> argparse.ArgumentParser:
    """Every subcommand declared: the parser of help and usage errors."""
    formatter = _formatter()
    parser = argparse.ArgumentParser(prog="qut", formatter_class=formatter,
                                     description="quantum unit-test runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _declare(sub.add_parser(name, help=help_text, formatter_class=formatter), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, extras = None, argv
        if argv and argv[0] in _COMMANDS:
            # the parser `build_parser` gives this subcommand, built alone
            parser = argparse.ArgumentParser(prog=f"qut {argv[0]}",
                                             formatter_class=_formatter())
            args, extras = _declare(parser, argv[0]).parse_known_args(argv[1:])
        if args is None or extras:  # help, usage errors and leftovers in the full parser's words
            args = build_parser().parse_args(argv)
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
