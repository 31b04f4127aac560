"""Command-line interface.

Exit codes: 0 pass/success, 1 fail verdict, 2 usage error, 3 I/O or parse
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench, mutation
from .circuit import Circuit
from .jsonio import CircuitJsonError, emit_json, load_circuit
from .qasm import ParseDiagnostic, QasmError, emit_qasm
from .shots import EquivalentStatesError, estimate_shots_for_pair
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
    warnings: list[str] = []
    program = _load_circuit(args.program, warnings)
    expected = _load_circuit(args.expected, warnings, states=True)
    try:
        est = estimate_shots_for_pair(Circuit(program.num_qubits), program,
                                      expected, p_e=args.pe)
        detail = {"shots": est.shots, "sigma11": est.sigma11,
                  "p_e": est.p_e, "method": est.method}
    except EquivalentStatesError as exc:
        detail = {"equivalent": True, "message": str(exc)}
    print(json.dumps(detail | ({"warnings": warnings} if warnings else {})))
    return EXIT_PASS


def _cmd_mutate(args) -> int:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qut",
                                     description="quantum unit-test runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one quantum unit test")
    run.add_argument("--program", required=True)
    run.add_argument("--input", default=None, help="preparation circuit W")
    run.add_argument("--expected", required=True)
    run.add_argument("--test", required=True, choices=sorted(_TEST_NAMES))
    run.add_argument("--shots", type=int, default=1024)
    run.add_argument("--p-value", type=float, default=0.05)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--mc-reps", type=int, default=1000)
    run.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    run.add_argument("--phase-mode", choices=["global", "strict"],
                     default="global")
    run.set_defaults(func=_cmd_run)

    est = sub.add_parser("estimate-shots", help="Chernoff-bound shot estimate")
    est.add_argument("--program", required=True)
    est.add_argument("--expected", required=True)
    est.add_argument("--pe", type=float, default=0.05)
    est.set_defaults(func=_cmd_estimate_shots)

    mut = sub.add_parser("mutate", help="generate mutants of a circuit")
    mut.add_argument("--circuit", required=True)
    mut.add_argument("--operators", default="qgr,qgd,qgi,rgi")
    mut.add_argument("--fraction", type=float, default=1.0)
    mut.add_argument("--seed", type=int, default=0)
    mut.add_argument("--rgi-count", type=int, default=1)
    mut.add_argument("--out", required=True)
    mut.set_defaults(func=_cmd_mutate)

    bnc = sub.add_parser("bench", help="run a benchmark from a config file")
    bnc.add_argument("--config", required=True)
    bnc.add_argument("--out", required=True)
    bnc.set_defaults(func=_cmd_bench)

    prs = sub.add_parser("parse", help="parse and re-emit a circuit file")
    prs.add_argument("--in", dest="infile", required=True)
    prs.add_argument("--emit", choices=["json", "qasm"], default="qasm")
    prs.set_defaults(func=_cmd_parse)
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
