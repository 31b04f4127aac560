import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qut
from qut import cli, mutation
from qut.circuit import Circuit, GateApplication, random_circuit
from qut.cli import _TEST_NAMES, main
from qut.jsonio import emit_json
from qut.qasm import emit_qasm, parse_qasm
from qut.simulator import MAX_SHOTS, run_statevector
from qut.testing import ALL_TESTS, DEFAULT_TOLERANCE, statevector_verdict
from oracles import inverse_gate, same_structure
from test_jsonio import edited_circuit_objects
from test_qasm import edited_programs, token_programs


@pytest.fixture
def files(tmp_path):
    bell = Circuit(2, (GateApplication("h", (0,)),
                       GateApplication("cx", (0, 1))))
    broken = Circuit(2, (GateApplication("h", (0,)),))
    paths = {}
    for name, c in (("bell", bell), ("broken", broken)):
        p = tmp_path / f"{name}.qasm"
        p.write_text(emit_qasm(c))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run_cli(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_pass_is_zero(self, files, capsys):
        code = run_cli("run", "--program", files["bell"],
                       "--expected", files["bell"],
                       "--test", "chi2", "--shots", "500", "--seed", "1")
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["outcome"] == "pass"

    def test_fail_verdict_is_one(self, files):
        assert run_cli("run", "--program", files["broken"],
                       "--expected", files["bell"],
                       "--test", "statevector") == 1

    def test_usage_error_is_two(self, files):
        assert run_cli("run", "--program", files["bell"]) == 2
        assert run_cli("definitely-not-a-command") == 2

    def test_io_error_is_three(self, files):
        assert run_cli("run", "--program", "missing.qasm",
                       "--expected", files["bell"], "--test", "chi2") == 3

    def test_out_of_memory_is_two(self, files, monkeypatch, capsys):
        # a shot stream too large to hold is a usage error, not a verdict
        def no_memory(*args, **kwargs):
            raise MemoryError("cannot allocate the shot stream")

        monkeypatch.setattr("qut.testing.multinomial_counts", no_memory)
        assert run_cli("run", "--program", files["bell"],
                       "--expected", files["bell"], "--test", "chi2",
                       "--shots", "1000000000") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_register_past_the_simulation_guard_is_two(self, tmp_path, capsys):
        wide = tmp_path / "wide.qasm"
        wide.write_text(emit_qasm(Circuit(30, (GateApplication("h", (0,)),))))
        for test in ("swap", "inverse", "chi2"):
            assert run_cli("run", "--program", str(wide), "--expected",
                           str(wide), "--test", test, "--shots", "10") == 2
        assert run_cli("estimate-shots", "--program", str(wide),
                       "--expected", str(wide)) == 2
        err = capsys.readouterr().err
        assert "simulation guard" in err and "Traceback" not in err

    def test_negative_target_is_a_file_error(self, files, tmp_path, capsys):
        # rejected where the circuit is built, like a target past the register
        neg = tmp_path / "neg.json"
        neg.write_text(json.dumps({"num_qubits": 1, "gates": [
            {"kind": "x", "targets": [-1]}]}))
        assert run_cli("run", "--program", str(neg), "--expected",
                       files["bell"], "--test", "statevector") == 3
        err = capsys.readouterr().err
        assert "out of range" in err and "Traceback" not in err

    @pytest.mark.parametrize("test", ["chi2", "g", "mc-g", "multinomial",
                                      "statevector"])
    def test_width_mismatch_is_two_before_any_draw(self, files, tmp_path,
                                                   monkeypatch, capsys, test):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew shots before checking widths")

        monkeypatch.setattr("qut.testing.multinomial_counts", no_draws)
        one = tmp_path / "one.qasm"
        one.write_text(emit_qasm(Circuit(1, (GateApplication("h", (0,)),))))
        assert run_cli("run", "--program", str(one), "--expected",
                       files["bell"], "--test", test,
                       "--shots", "10000000") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "qubit counts differ: 1 vs 2" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("test", ["chi2", "g", "multinomial", "mc-chi2",
                                      "mc-g", "mc-multinomial", "swap",
                                      "inverse"])
    def test_shots_past_int64_are_two_before_any_draw(self, files, monkeypatch,
                                                      capsys, test):
        # numpy samplers hold at most 2^63 - 1 shots; the states differ, so
        # swap and inverse would reach their draw
        def no_draws(*args, **kwargs):
            raise AssertionError("drew shots before checking the shot count")

        monkeypatch.setattr("qut.testing.multinomial_counts", no_draws)
        monkeypatch.setattr("qut.testing.first_failing_shot", no_draws)
        assert run_cli("run", "--program", files["broken"], "--expected",
                       files["bell"], "--test", test,
                       "--shots", str(2 ** 63)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: shots must lie in")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("test", ["chi2", "g", "multinomial", "mc-chi2",
                                      "mc-g", "mc-multinomial", "swap",
                                      "inverse"])
    def test_negative_seed_is_two_before_any_simulation(self, files, monkeypatch,
                                                        capsys, test):
        # a program given as its own expected state: swap and inverse would
        # pass without a draw, so only the seed check can reject it
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking the seed")

        monkeypatch.setattr("qut.testing.run_statevector", no_simulation)
        assert run_cli("run", "--program", files["bell"], "--expected",
                       files["bell"], "--test", test, "--seed", "-1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: seed must be >= 0")
        assert "Traceback" not in captured.err

    def test_multinomial_refusal_draws_no_shot_stream(self, tmp_path,
                                                      monkeypatch, capsys):
        # the enumeration limit is met after one multinomial draw, not after
        # a per-shot stream; an out-of-support shot still fails before the
        # refusal
        def no_stream(*args, **kwargs):
            raise AssertionError("drew a per-shot stream")

        monkeypatch.setattr("qut.testing.first_failing_shot", no_stream)
        h = tmp_path / "h.qasm"
        h.write_text(emit_qasm(Circuit(1, (GateApplication("h", (0,)),))))
        zero = tmp_path / "zero.qasm"
        zero.write_text(emit_qasm(Circuit(1)))
        argv = ("run", "--program", str(h), "--test", "multinomial",
                "--shots", "100000000", "--expected")
        assert run_cli(*argv, str(h)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceed enumeration limit" in captured.err
        assert run_cli(*argv, str(zero)) == 1
        assert json.loads(capsys.readouterr().out) == {"outcome": "fail",
                                                       "p_value": 0.0}

    def test_multinomial_over_a_thousand_outcomes_is_a_verdict(self, tmp_path, capsys):
        # a 10-qubit uniform state has 1,024 outcomes; one shot gives 1,024
        # count vectors, all equally likely.  The recursive enumeration went
        # one call deeper per outcome and ended in a RecursionError traceback
        uniform = tmp_path / "uniform.qasm"
        uniform.write_text(emit_qasm(Circuit(10, tuple(GateApplication("h", (q,))
                                                       for q in range(10)))))
        assert run_cli("run", "--program", str(uniform), "--expected", str(uniform),
                       "--test", "multinomial", "--shots", "1") == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"outcome": "pass", "p_value": 1.0}
        assert captured.err == ""

    def test_multinomial_past_the_work_bound_is_two(self, tmp_path, capsys):
        # one shot on 13 qubits: 8,192 vectors of 8,192 counts each, refused
        # before any enumeration (it ran for seconds; 19 qubits for hours)
        uniform = tmp_path / "uniform.qasm"
        uniform.write_text(emit_qasm(Circuit(13, tuple(GateApplication("h", (q,))
                                                       for q in range(13)))))
        assert run_cli("run", "--program", str(uniform), "--expected", str(uniform),
                       "--test", "multinomial", "--shots", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: count vectors of 1 shots over 8192 outcomes "
                                "exceed enumeration limit 1953; use the Monte Carlo variant\n")

    @pytest.mark.parametrize("tolerance", ["-1", "nan"])
    def test_negative_or_nan_tolerance_is_two(self, tmp_path, capsys,
                                              tolerance):
        h = tmp_path / "h.qasm"
        h.write_text(emit_qasm(Circuit(1, (GateApplication("h", (0,)),))))
        assert run_cli("run", "--program", str(h), "--expected", str(h),
                       "--test", "statevector", "--tolerance", tolerance) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be >= 0" in captured.err

    @pytest.mark.parametrize("test", ["mc-chi2", "mc-g", "mc-multinomial"])
    @pytest.mark.parametrize("program", ["bell", "broken"])
    def test_no_monte_carlo_draws_is_two(self, files, capsys, test, program):
        # |+0> puts counts outside the Bell state's support, where p is 0
        # without a draw: the check comes first all the same
        assert run_cli("run", "--program", files[program], "--expected", files["bell"],
                       "--test", test, "--mc-reps", "0") == 2
        assert capsys.readouterr() == ("", "error: mc_reps must be >= 1\n")

    def test_p_threshold_outside_the_unit_interval_is_two(self, files, capsys):
        assert run_cli("run", "--program", files["bell"], "--expected", files["bell"],
                       "--test", "chi2", "--p-value", "2") == 2
        assert capsys.readouterr() == ("", "error: p threshold must lie in (0, 1)\n")

    @pytest.mark.parametrize("test", sorted(_TEST_NAMES))
    def test_input_of_another_width_is_two(self, files, tmp_path, capsys, test):
        one = tmp_path / "one.qasm"
        one.write_text(emit_qasm(Circuit(1, (GateApplication("h", (0,)),))))
        assert run_cli("run", "--program", str(one), "--input", files["bell"],
                       "--expected", str(one), "--test", test) == 2
        assert capsys.readouterr() == (
            "", "error: composed circuits must share a qubit count\n")

    def test_tuple_parameter_is_three(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\nqreg q[1];\nrx((1,2)) q[0];\n")
        assert run_cli("run", "--program", str(bad), "--expected", files["bell"],
                       "--test", "chi2") == 3
        assert capsys.readouterr() == (
            "", f"error: {bad}: line 3, col 1: expected ')' in parameter expression\n")

    def test_parse_error_is_three(self, files, tmp_path):
        bad = tmp_path / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\nqreg q[1];\nwat q[0];\n")
        assert run_cli("run", "--program", str(bad),
                       "--expected", files["bell"], "--test", "chi2") == 3

    @staticmethod
    def _bench_config(files, tmp_path) -> str:
        manifest = tmp_path / "corpus.jsonl"
        manifest.write_text(json.dumps({
            "pair_id": "p0", "original": files["bell"], "mutant": files["broken"]}) + "\n")
        from qut.bench import ExperimentConfig
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(vars(ExperimentConfig(corpus=str(manifest), repetitions=1))))
        return str(config)

    @staticmethod
    def _assert_one_error_line(capsys, start):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {start}") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("where", ["directory", "missing", "under_a_file"])
    def test_bench_out_that_cannot_be_written_is_three_before_any_pair(
            self, files, tmp_path, monkeypatch, capsys, where):
        # it raised IsADirectoryError, FileNotFoundError or NotADirectoryError,
        # the first only after every pair had run
        def no_run(*args, **kwargs):
            raise AssertionError("ran pairs before checking --out")

        config = self._bench_config(files, tmp_path)
        out = {"directory": tmp_path / "rows",
               "missing": tmp_path / "absent" / "rows.csv",
               "under_a_file": Path(files["bell"]) / "rows.csv"}[where]
        if where == "directory":
            out.mkdir()
        monkeypatch.setattr("qut.bench.run_benchmark", no_run)
        assert run_cli("bench", "--config", config, "--out", str(out)) == 3
        self._assert_one_error_line(capsys, f"cannot write {out}: ")
        assert not list(tmp_path.rglob("*.csv"))

    def test_bench_out_failing_after_the_run_is_three(self, files, tmp_path, monkeypatch,
                                                     capsys):
        config = self._bench_config(files, tmp_path)
        out = tmp_path / "rows.csv"

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "write_text", refuse)
        assert run_cli("bench", "--config", config, "--out", str(out)) == 3
        self._assert_one_error_line(capsys, f"cannot write {out}: Permission denied\n")
        assert not out.exists()

    def test_corpus_pair_of_two_widths_is_three_before_any_pair(
            self, files, tmp_path, monkeypatch, capsys):
        # the pairs before it ran, then "qubit counts differ: 2 vs 1" exited
        # 2 without naming the pair
        def no_run(*args, **kwargs):
            raise AssertionError("ran a pair before the corpus had loaded")

        one = tmp_path / "one.qasm"
        one.write_text(emit_qasm(Circuit(1, (GateApplication("h", (0,)),))))
        manifest = tmp_path / "corpus.jsonl"
        manifest.write_text("".join(json.dumps(pair) + "\n" for pair in (
            {"pair_id": "p0", "original": files["bell"], "mutant": files["broken"]},
            {"pair_id": "p1", "original": str(one), "mutant": files["bell"]})))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"corpus": str(manifest), "repetitions": 1}))
        monkeypatch.setattr("qut.bench._run_pair", no_run)
        out = tmp_path / "rows.csv"
        assert run_cli("bench", "--config", str(config), "--out", str(out)) == 3
        self._assert_one_error_line(capsys, "cannot load corpus: pair_id 'p1': the original "
                                            "has 1 qubits and the mutant 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("where", ["existing_file", "under_a_file"])
    def test_mutate_out_that_cannot_be_written_is_three(self, files, tmp_path, capsys, where):
        # it raised FileExistsError or NotADirectoryError
        out = Path(files["broken"]) / ("mutants" if where == "under_a_file" else "")
        before = Path(files["broken"]).read_text()
        assert run_cli("mutate", "--circuit", files["bell"], "--operators", "qgd",
                       "--out", str(out)) == 3
        self._assert_one_error_line(capsys, f"cannot write {out}: ")
        assert Path(files["broken"]).read_text() == before
        assert not list(tmp_path.rglob("*.json*"))

    @pytest.mark.parametrize("operators", ["qgx", "qgd,qgx", "qgd,QGD,qgd", "qgr,rgi,qgr",
                                           "", " , "])
    def test_mutate_unknown_repeated_or_no_operators_is_two(self, files, tmp_path, capsys,
                                                            operators):
        # an unknown operator exited 3; a repeated one wrote its mutants once
        # per mention; none wrote an empty manifest and exited 0.  The
        # operators are checked before the circuit file is read.
        out = tmp_path / "mutants"
        for circuit in (files["bell"], str(tmp_path / "missing.qasm")):
            assert run_cli("mutate", "--circuit", circuit, "--operators", operators,
                           "--out", str(out)) == 2
            out_text, err = capsys.readouterr()
            assert out_text == "" and "Traceback" not in err and err.count("\n") == 1
            assert err.startswith(("error: operators ", "error: unknown operators: "))
        assert not out.exists()

    def test_mutate_operators_are_mutation_operators(self, files, tmp_path, capsys):
        # the CLI kept its own list of operator names beside the operators
        args = cli.build_parser().parse_args(["mutate", "--circuit", "c", "--out", "o"])
        assert args.operators == ",".join(mutation.OPERATORS)
        for name in mutation.OPERATORS:
            assert run_cli("mutate", "--circuit", files["bell"], "--operators", name,
                           "--out", str(tmp_path / name)) == 0


class TestSubcommands:
    def test_parse_round_trip(self, files, capsys):
        assert run_cli("parse", "--in", files["bell"]) == 0
        emitted = capsys.readouterr().out
        assert same_structure(parse_qasm(emitted), parse_qasm(open(files["bell"]).read()))

    def test_parse_emit_json(self, files, capsys):
        assert run_cli("parse", "--in", files["bell"], "--emit", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_qubits"] == 2

    def test_estimate_shots(self, files, capsys):
        # byte for byte: the estimate's fields in order, then the method
        assert run_cli("estimate-shots", "--program", files["broken"],
                       "--expected", files["bell"]) == 0
        assert capsys.readouterr() == (
            '{"shots": 3, "sigma11": 0.2499999999999999, "p_e": 0.05, '
            '"method": "closed_form"}\n', "")

    def test_estimate_shots_refuses_a_self_pair(self, tmp_path, capsys):
        # its overlap with itself rounds to 0.9999999999999989
        prog = tmp_path / "r.qasm"
        prog.write_text(emit_qasm(random_circuit(4, 10, seed=39)))
        assert run_cli("estimate-shots", "--program", str(prog),
                       "--expected", str(prog)) == 0
        assert json.loads(capsys.readouterr().out)["equivalent"] is True

    @pytest.mark.parametrize("program", ["h", "x"])
    @pytest.mark.parametrize("pe", ["5", "nan", "-1", "0", "inf"])
    def test_estimate_shots_rejects_pe_outside_the_unit_interval(
            self, tmp_path, capsys, program, pe):
        # against h, an equivalent pair used to print "equivalent" and exit 0
        paths = {}
        for gate in {program, "h"}:
            paths[gate] = tmp_path / f"{gate}.qasm"
            paths[gate].write_text(emit_qasm(Circuit(1, (GateApplication(gate, (0,)),))))
        assert run_cli("estimate-shots", "--program", str(paths[program]),
                       "--expected", str(paths["h"]), "--pe", pe) == 2
        assert capsys.readouterr() == (
            "", "error: error probability must lie in (0, 1)\n")

    def test_estimate_shots_reports_parser_warnings(self, files, tmp_path,
                                                    capsys):
        measured = tmp_path / "measured.qasm"
        measured.write_text(open(files["broken"]).read()
                            + "creg c[2];\nmeasure q[0] -> c[0];\n")
        for argv in (("estimate-shots",), ("run", "--test", "statevector")):
            assert run_cli(*argv, "--program", str(measured),
                           "--expected", files["bell"]) in (0, 1)
            out = json.loads(capsys.readouterr().out)
            assert [w for w in out["warnings"] if "measurement stripped" in w]
        assert run_cli("estimate-shots", "--program", files["broken"],
                       "--expected", files["bell"]) == 0
        assert "warnings" not in json.loads(capsys.readouterr().out)

    def test_statevector_expected_json(self, files, tmp_path, capsys):
        vec = tmp_path / "target.json"
        vec.write_text(json.dumps(
            {"amplitudes": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}))
        xx = tmp_path / "xx.qasm"
        xx.write_text(emit_qasm(Circuit(2, (GateApplication("x", (0,)),
                                            GateApplication("x", (1,)))))
                      + "creg c[2];\nmeasure q[0] -> c[0];\n")
        assert run_cli("run", "--program", str(xx), "--expected", str(vec),
                       "--test", "statevector") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["outcome"] == "pass"
        assert [w for w in out["warnings"] if "measurement stripped" in w]

    def test_mutate_writes_manifest(self, files, tmp_path, capsys):
        out = tmp_path / "mutants"
        assert run_cli("mutate", "--circuit", files["bell"],
                       "--operators", "qgd,rgi", "--seed", "2",
                       "--out", str(out)) == 0
        manifest = (out / "manifest.jsonl").read_text().strip().splitlines()
        assert manifest
        for line in manifest:
            entry = json.loads(line)
            assert entry["operator"] in ("QGD", "RGI")
            assert (out / entry["path"]).exists()
            assert entry["fidelity"] < 1 - 1e-10

    def test_negative_rgi_count_is_two(self, files, tmp_path, capsys):
        # it wrote an empty manifest and exited 0
        out = tmp_path / "mutants"
        assert run_cli("mutate", "--circuit", files["bell"], "--operators", "rgi",
                       "--rgi-count", "-3", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rgi count must be >= 0, got -3\n"
        assert not out.exists()
        assert run_cli("mutate", "--circuit", files["bell"], "--operators", "rgi",
                       "--rgi-count", "0", "--out", str(out)) == 0
        assert capsys.readouterr().out == f"wrote 0 mutants to {out}\n"

    @pytest.mark.parametrize("argv, message", [
        (("--operators", "qgd", "--seed", "-1"), "seed must be >= 0, got -1"),
        (("--operators", "rgi", "--seed", "-1"), "seed must be >= 0, got -1"),
        (("--operators", "qgd", "--fraction", "0.5", "--seed", "-1"),
         "seed must be >= 0, got -1"),
        (("--rgi-count", "-1",), "rgi count must be >= 0, got -1"),
    ])
    def test_negative_seed_or_rgi_count_is_two_before_the_circuit_is_read(
            self, files, tmp_path, monkeypatch, capsys, argv, message):
        # qgd with seed -1 exited 0; rgi and a fraction below 1 exited 2 with
        # numpy's "expected non-negative integer"; a negative count was
        # refused only after qgr, qgd and qgi had run
        def no_read(*args, **kwargs):
            raise AssertionError("read the circuit before checking the arguments")

        monkeypatch.setattr("qut.cli._load_circuit", no_read)
        out = tmp_path / "mutants"
        assert run_cli("mutate", "--circuit", files["bell"], *argv, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["0", "-1", "1.5", "nan", "inf"])
    def test_fraction_outside_the_unit_interval_is_two(self, files, tmp_path, capsys, fraction):
        # 1.5, nan and inf wrote every mutant and exited 0
        out = tmp_path / "mutants"
        assert run_cli("mutate", "--circuit", files["bell"], "--fraction", fraction,
                       "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: fraction must lie in (0, 1]\n"
        assert not out.exists()

    def test_fraction_one_writes_every_mutant(self, files, tmp_path, capsys):
        every, whole = tmp_path / "every", tmp_path / "whole"
        assert run_cli("mutate", "--circuit", files["bell"], "--out", str(every)) == 0
        assert run_cli("mutate", "--circuit", files["bell"], "--fraction", "1.0",
                       "--out", str(whole)) == 0
        manifest = (whole / "manifest.jsonl").read_text()
        assert manifest == (every / "manifest.jsonl").read_text()
        assert len(manifest.splitlines()) > 1

    def test_mutate_leaves_a_custom_gate_without_peers(self, tmp_path, capsys):
        # a unitary gate belongs to no equivalence class: QGR and QGI make
        # nothing at its site, QGD deletes it, and it keeps its matrix
        x = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"num_qubits": 2, "name": "c", "gates": [
            {"kind": "h", "targets": [0], "params": []},
            {"kind": "unitary", "targets": [1], "params": [], "matrix": x}]}))
        out = tmp_path / "mutants"
        assert run_cli("mutate", "--circuit", str(path), "--operators",
                       "qgr,qgd,qgi", "--out", str(out)) == 0
        entries = [json.loads(line) for line in
                   (out / "manifest.jsonl").read_text().splitlines()]
        sites = {(e["operator"], e["site"]) for e in entries}
        assert sites == {("QGR", 0), ("QGD", 0), ("QGD", 1), ("QGI", 1)}
        assert sum(e["operator"] == "QGR" for e in entries) == 8
        for e in entries:
            body = json.loads((out / e["path"]).read_text())["gates"]
            custom = [g for g in body if g["kind"] == "unitary"]
            assert custom == ([] if (e["operator"], e["site"]) == ("QGD", 1) else
                              [{"kind": "unitary", "targets": [1], "params": [],
                                "matrix": x}])

    def test_bench_with_a_missing_config_is_three(self, tmp_path, capsys):
        config, out_csv = tmp_path / "absent.json", tmp_path / "rows.csv"
        assert run_cli("bench", "--config", str(config), "--out", str(out_csv)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {config}: ")
        assert not out_csv.exists()

    def test_bench_end_to_end(self, files, tmp_path, capsys):
        manifest = tmp_path / "corpus.jsonl"
        manifest.write_text(json.dumps({
            "pair_id": "p0", "original": files["bell"],
            "mutant": files["broken"]}) + "\n")
        from qut.bench import ExperimentConfig
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(vars(ExperimentConfig(
            corpus=str(manifest), repetitions=3))))
        out_csv = tmp_path / "rows.csv"
        assert run_cli("bench", "--config", str(cfg_path),
                       "--out", str(out_csv)) == 0
        text = out_csv.read_text()
        assert text.startswith("pair_id,test,repetition")
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["statevector"]["recall"] == 1.0


class TestInputContract:
    """Malformed circuits and bench inputs end in exit 3 with a one-line
    error, before anything runs."""

    DEEP = 2000
    MALFORMED = {
        "nested_parens.qasm": "OPENQASM 2.0;\nqreg q[1];\nrz(" + "(" * DEEP
        + "1" + ")" * DEEP + ") q[0];\n",
        "unary_chain.qasm": "OPENQASM 2.0;\nqreg q[1];\nrz(" + "-" * DEEP
        + "1) q[0];\n",
        "targets_int.json": {"num_qubits": 1, "gates": [{"kind": "h", "targets": 0}]},
        "params_nested.json": {"num_qubits": 1, "gates": [
            {"kind": "rz", "targets": [0], "params": [[1]]}]},
        "params_string.json": {"num_qubits": 1, "gates": [
            {"kind": "rz", "targets": [0], "params": ["x"]}]},
        "targets_float.json": {"num_qubits": 1, "gates": [
            {"kind": "h", "targets": [0.5]}]},
        "targets_bool.json": {"num_qubits": 2, "gates": [
            {"kind": "h", "targets": [True]}]},
        "width_float.json": {"num_qubits": 1.5, "gates": []},
        "width_bool.json": {"num_qubits": True, "gates": []},
        "gates_int.json": {"num_qubits": 1, "gates": 5},
        "kind_list.json": {"num_qubits": 1, "gates": [{"kind": ["h"], "targets": [0]}]},
        "param_inf.qasm": "OPENQASM 2.0;\nqreg q[1];\nrz(1e999) q[0];\n",
        "param_inf.json": {"num_qubits": 1, "gates": [
            {"kind": "rz", "targets": [0], "params": [float("inf")]}]},
        "param_past_float.json": {"num_qubits": 1, "gates": [
            {"kind": "rz", "targets": [0], "params": [10 ** 400]}]},
        "matrix_bool.json": {"num_qubits": 1, "gates": [{
            "kind": "unitary", "targets": [0],
            "matrix": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]}]},
        "matrix_inf.json": {"num_qubits": 1, "gates": [{
            "kind": "unitary", "targets": [0],
            "matrix": [[[float("inf"), 0], [0, 0]], [[0, 0], [1, 0]]]}]},
        "matrix_huge.json": {"num_qubits": 1, "gates": [{
            "kind": "unitary", "targets": [0],
            "matrix": [[[1e300, 0], [0, 0]], [[0, 0], [1, 0]]]}]},
        "nested_arrays.json": "[" * 100_000,
        "empty_statement.qasm": "OPENQASM 2.0;\nqreg q[1];\n;\n",
        "unclosed_index.qasm": "OPENQASM 2.0;\nqreg q[1];\nh q[0;\n",
        "trailing_comma.qasm": "OPENQASM 2.0;\nqreg q[1];\nh q[0],;\n",
        "index_past_int_digits.qasm": "OPENQASM 2.0;\nqreg q[" + "9" * 5000 + "];\n",
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_circuit_is_a_parse_error(self, tmp_path, capsys, name):
        text = self.MALFORMED[name]
        path = tmp_path / name
        path.write_text(text if isinstance(text, str) else json.dumps(text))
        assert run_cli("parse", "--in", str(path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_bytes_that_are_not_utf8_are_a_parse_error(self, tmp_path, capsys):
        # read_text raised UnicodeDecodeError, a ValueError, which exited 2
        for name, data in (("bad.qasm", b"OPENQASM 2.0;\nqreg q[1];\nh q[0];\n\xff\n"),
                           ("bad.json", b'{"num_qubits": 1, "gates": []}\xff')):
            path = tmp_path / name
            path.write_bytes(data)
            assert run_cli("parse", "--in", str(path)) == 3
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("amplitudes", [
        [[True, 0], [0, 0]], [[float("inf"), 0], [0, 0]], [[1e300, 0], [1e300, 0]],
        [[1, 0]], [[1], [0]], "10",
    ])
    def test_malformed_statevector_is_a_parse_error_not_a_fail_verdict(
            self, files, tmp_path, capsys, amplitudes):
        # [[true, 0], [0, 0]] read as |0>, so `h` against it exited 1
        vec = tmp_path / "target.json"
        vec.write_text(json.dumps({"amplitudes": amplitudes}))
        h = tmp_path / "h.qasm"
        h.write_text(emit_qasm(Circuit(1, (GateApplication("h", (0,)),))))
        assert run_cli("run", "--program", str(h), "--expected", str(vec),
                       "--test", "statevector") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @staticmethod
    def _bench(tmp_path, manifest_lines, **config):
        manifest = tmp_path / "corpus.jsonl"
        manifest.write_text("".join(json.dumps(line) + "\n" for line in manifest_lines))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"corpus": str(manifest), "repetitions": 2,
                                        **config}))
        out_csv = tmp_path / "rows.csv"
        code = run_cli("bench", "--config", str(cfg_path), "--out", str(out_csv))
        return code, out_csv.exists()

    @pytest.mark.parametrize("config", [
        {"p_t": 2}, {"p_t": 0.0}, {"p_e": 1.0}, {"shot_cap_absolute": 0},
        {"mc_reps": 0}, {"repetitions": 1.5}, {"cap_factor": float("inf")},
        {"tests": ["chi2", "chi2"]},
    ])
    def test_bad_bench_config_is_rejected_before_any_pair_runs(
            self, files, tmp_path, capsys, config):
        # "p_t": 2 used to write not_detected on every chi2 row: chdtri(dof,
        # 2) is NaN, so no prefix was ever a candidate
        pair = {"pair_id": "p0", "original": files["bell"], "mutant": files["broken"]}
        assert self._bench(tmp_path, [pair], **config) == (3, False)
        assert "bad config" in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        ({"tests": []}, "tests must name at least one test"),
        ({"cap_factor": True}, "cap_factor must be a positive finite number, got True"),
        ({"cap_factor": "2"}, "cap_factor must be a positive finite number, got '2'"),
        ({"p_t": True}, "p_t must be a number in (0, 1), got True"),
        ({"base_seed": "abc"}, "base_seed must be an integer, got 'abc'"),
        ({"base_seed": 1.5}, "base_seed must be an integer, got 1.5"),
        ({"base_seed": False}, "base_seed must be an integer, got False"),
        ({"record_timing": "no"}, "record_timing must be true or false, got 'no'"),
        ({"record_timing": 0}, "record_timing must be true or false, got 0"),
        ({"corpus": 1}, "corpus must be a path string, got 1"),
        pytest.param({"cap_factor": 10 ** 400},
                     f"cap_factor must be a positive finite number, got {10 ** 400}",
                     id="config10-cap_factor an integer past float range"),
        ({"nope": 1}, "unknown config field 'nope'"),
        ([1], "the config must be a JSON object"),
        ("x", "the config must be a JSON object"),
        (None, "the config must be a JSON object"),
        # the first printed "unhashable type: 'list'", the second "'<' not
        # supported between instances of 'str' and 'int'"
        ({"tests": [[1]]}, "tests must be a list of test names"),
        ({"tests": [1, "x"]}, "tests must be a list of test names"),
    ])
    def test_mistyped_bench_config_is_three_with_its_reason(
            self, files, tmp_path, capsys, config, message):
        # "tests": [] used to end in "no rows to summarize" (exit 2), the
        # others ran: true as a cap factor of 1.0, "abc" or 1.5 mixed into
        # the seeds as text, "no" as a true record_timing, and 10 ** 400 as an
        # infinite cap factor.  An unknown key and a config that is not an
        # object printed Python's call error.
        pair = {"pair_id": "p0", "original": files["bell"], "mutant": files["broken"]}
        if isinstance(config, dict):
            assert self._bench(tmp_path, [pair], **config) == (3, False)
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(config))
            assert run_cli("bench", "--config", str(cfg_path),
                           "--out", str(tmp_path / "rows.csv")) == 3
            assert not (tmp_path / "rows.csv").exists()
        assert capsys.readouterr().err == f"error: bad config: {message}\n"

    def test_cap_factor_past_the_absolute_cap(self, tmp_path):
        # 1e307 x the shot plan used to overflow math.ceil with a traceback
        pair = {"pair_id": "p0"}
        for name, c in (("original", Circuit(1, (GateApplication("h", (0,)),))),
                        ("mutant", Circuit(1, (GateApplication("h", (0,)),
                                               GateApplication("rz", (0,), (0.3,)))))):
            pair[name] = str(tmp_path / f"{name}.qasm")
            Path(pair[name]).write_text(emit_qasm(c))
        tables = []
        for cap_factor in (1e6, 1e307):
            run_dir = tmp_path / str(cap_factor)
            run_dir.mkdir()
            assert self._bench(run_dir, [pair], cap_factor=cap_factor) == (0, True)
            tables.append((run_dir / "rows.csv").read_text())
        assert tables[0] == tables[1]

    def test_empty_corpus_is_three(self, tmp_path, capsys):
        assert self._bench(tmp_path, []) == (3, False)
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load corpus: ") and "holds no pairs" in err, err

    @pytest.mark.parametrize("line, key", [
        ([1], "pair_id"), ("x", "pair_id"), (None, "pair_id"),
        ({"pair_id": "p1", "original": "bell.qasm"}, "mutant"),
        ({"pair_id": "p1", "mutant": "bell.qasm"}, "original"),
        ({"pair_id": "p1", "original": 1, "mutant": "bell.qasm"}, "original"),
        ({"pair_id": "p1", "original": "bell.qasm", "mutant": ["a"]}, "mutant"),
        ({"pair_id": "p1", "original": "", "mutant": "bell.qasm"}, "original"),
    ])
    def test_corpus_line_without_a_pair_key_is_three_naming_the_line(
            self, files, tmp_path, capsys, line, key):
        # [1] printed "list indices must be integers or slices, not str", a
        # missing key printed only the key's repr, a path that is not a
        # string "unsupported operand type(s) for /: 'PosixPath' and 'int'",
        # and an empty path "[Errno 21] Is a directory: '.'"
        pair = {"pair_id": "p0", "original": files["bell"], "mutant": files["broken"]}
        assert self._bench(tmp_path, [pair, line]) == (3, False)
        manifest = tmp_path / "corpus.jsonl"
        reason = (f": {key!r} must be a path string, got {line[key]!r}"
                  if isinstance(line, dict) and key in line
                  else f" is not an object with the key {key!r}")
        assert capsys.readouterr().err == (
            f"error: cannot load corpus: {manifest} line 2{reason}\n")

    def test_corpus_line_that_is_not_json_is_three_naming_the_line(
            self, files, tmp_path, capsys):
        # this printed only the decoder's position inside the line, "line 1
        # column 59 (char 58)", naming neither the manifest nor its line
        pair = json.dumps({"pair_id": "p0", "original": files["bell"],
                           "mutant": files["broken"]})
        manifest = tmp_path / "corpus.jsonl"
        manifest.write_text(f"{pair}\n{pair[:-1]}\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"corpus": str(manifest)}))
        out_csv = tmp_path / "rows.csv"
        assert run_cli("bench", "--config", str(cfg_path), "--out", str(out_csv)) == 3
        assert not out_csv.exists()
        assert capsys.readouterr().err == (
            f"error: cannot load corpus: {manifest} line 2 is not valid JSON: "
            f"Expecting ',' delimiter at column {len(pair)}\n")

    def test_repeated_pair_id_is_rejected(self, files, tmp_path, capsys):
        # rows are keyed and ranked by pair_id, so two pairs may not share one
        pair = {"pair_id": "p0", "original": files["bell"], "mutant": files["broken"]}
        other = dict(pair, original=files["broken"], mutant=files["bell"])
        assert self._bench(tmp_path, [pair, other]) == (3, False)
        assert "appears twice" in capsys.readouterr().err
        assert self._bench(tmp_path, [pair, dict(other, pair_id="p1")]) == (0, True)


class TestVerdictEvidence:
    def test_swap_and_inverse_report_fidelity_and_failure_probability(
            self, files, capsys):
        # |+0> against the Bell state: F = 1/4, so q = 3/8 and 3/4
        for test, q in (("swap", 0.375), ("inverse", 0.75)):
            assert run_cli("run", "--program", files["broken"], "--expected",
                           files["bell"], "--test", test, "--shots", "100") == 1
            out = json.loads(capsys.readouterr().out)
            assert out["fidelity"] == pytest.approx(0.25)
            assert out["failure_probability"] == pytest.approx(q)
            assert 1 <= out["first_failure_shot"] <= 100
            # the same state: nothing drawn, q reported as 0
            assert run_cli("run", "--program", files["bell"], "--expected",
                           files["bell"], "--test", test) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["outcome"] == "pass"
            assert out["fidelity"] == pytest.approx(1.0)
            assert out["failure_probability"] == 0.0
            assert "first_failure_shot" not in out

    def test_statevector_reports_fidelity(self, files, capsys):
        assert run_cli("run", "--program", files["broken"], "--expected",
                       files["bell"], "--test", "statevector") == 1
        out = json.loads(capsys.readouterr().out)
        assert out["fidelity"] == pytest.approx(0.25)
        assert run_cli("run", "--program", files["bell"], "--expected",
                       files["bell"], "--test", "statevector") == 0
        assert json.loads(capsys.readouterr().out)["fidelity"] == pytest.approx(1.0)

    # Each family's `qut run` JSON keys on a pass and on a fail (|+0> against
    # the Bell state).  A key added to a family's output is added here.
    RUN_KEYS = {
        **{test: ({"outcome", "p_value"},) * 2 for test in
           ("chi2", "g", "multinomial", "mc-chi2", "mc-g", "mc-multinomial")},
        **{test: ({"outcome", "fidelity", "failure_probability"},
                  {"outcome", "fidelity", "failure_probability", "first_failure_shot"})
           for test in ("swap", "inverse")},
        "statevector": ({"outcome", "max_amplitude_deviation", "fidelity"},) * 2,
    }

    @pytest.mark.parametrize("test", sorted(_TEST_NAMES))
    def test_each_family_writes_its_pinned_keys(self, files, tmp_path, capsys, test):
        assert set(self.RUN_KEYS) == set(_TEST_NAMES)
        measured = tmp_path / "measured.qasm"
        measured.write_text(open(files["broken"]).read()
                            + "creg c[2];\nmeasure q[0] -> c[0];\n")
        passing, failing = self.RUN_KEYS[test]
        for program, code, keys in ((files["bell"], 0, passing),
                                    (files["broken"], 1, failing),
                                    (str(measured), 1, failing | {"warnings"})):
            assert run_cli("run", "--program", program, "--expected", files["bell"],
                           "--test", test, "--shots", "100", "--mc-reps", "100") == code
            assert set(json.loads(capsys.readouterr().out)) == keys, program

    # Each family's `qut run` line, byte for byte, on a pass (the Bell state
    # itself) and on a fail (|+0>), at 100 shots, 100 Monte Carlo draws and
    # seed 0: the keys come in the verdict's field order.
    RUN_LINES = {
        "chi2": ('{"outcome": "pass", "p_value": 0.841480581121794}',
                 '{"outcome": "fail", "p_value": 0.0}'),
        "g": ('{"outcome": "pass", "p_value": 0.8414753664752046}',
              '{"outcome": "fail", "p_value": 0.0}'),
        "multinomial": ('{"outcome": "pass", "p_value": 0.9204107626127929}',
                        '{"outcome": "fail", "p_value": 0.0}'),
        **{test: ('{"outcome": "pass", "p_value": 0.91}',
                  '{"outcome": "fail", "p_value": 0.0}')
           for test in ("mc-chi2", "mc-g", "mc-multinomial")},
        "swap": ('{"outcome": "pass", "fidelity": 0.9999999999999996, '
                 '"failure_probability": 0.0}',
                 '{"outcome": "fail", "first_failure_shot": 3, "fidelity": '
                 '0.2499999999999999, "failure_probability": 0.37500000000000006}'),
        "inverse": ('{"outcome": "pass", "fidelity": 0.9999999999999996, '
                    '"failure_probability": 0.0}',
                    '{"outcome": "fail", "first_failure_shot": 1, "fidelity": '
                    '0.2499999999999999, "failure_probability": 0.7500000000000001}'),
        "statevector": ('{"outcome": "pass", "max_amplitude_deviation": 0.0, '
                        '"fidelity": 0.9999999999999996}',
                        '{"outcome": "fail", "max_amplitude_deviation": '
                        '0.7071067811865475, "fidelity": 0.2499999999999999}'),
    }

    @pytest.mark.parametrize("test", sorted(_TEST_NAMES))
    def test_each_family_writes_its_pinned_line(self, files, capsys, test):
        assert set(self.RUN_LINES) == set(_TEST_NAMES)
        for program, code, line in zip((files["bell"], files["broken"]), (0, 1),
                                       self.RUN_LINES[test]):
            assert run_cli("run", "--program", program, "--expected", files["bell"],
                           "--test", test, "--shots", "100", "--mc-reps", "100") == code
            assert capsys.readouterr() == (line + "\n", "")

    def test_parser_warnings_come_before_the_verdicts_own(self, files, tmp_path,
                                                          capsys):
        measured = tmp_path / "measured.qasm"
        measured.write_text(open(files["broken"]).read()
                            + "creg c[2];\nmeasure q[0] -> c[0];\n")
        assert run_cli("run", "--program", str(measured), "--expected", files["bell"],
                       "--test", "chi2", "--shots", "5") == 1
        assert capsys.readouterr().out == (
            '{"outcome": "fail", "p_value": 0.0, "warnings": '
            f'["{measured}: line 6: measurement stripped", '
            '"fewer than 13 observations; the asymptotic p-value is unreliable"]}\n')
        # the warnings come last, after every other field
        assert run_cli("run", "--program", str(measured), "--expected", files["bell"],
                       "--test", "swap", "--shots", "100") == 1
        assert capsys.readouterr().out == (
            '{"outcome": "fail", "first_failure_shot": 3, "fidelity": 0.2499999999999999, '
            '"failure_probability": 0.37500000000000006, "warnings": '
            f'["{measured}: line 6: measurement stripped"]}}\n')

    def test_only_asymptotic_p_values_warn_of_few_observations(self, tmp_path,
                                                               capsys):
        # the exact multinomial p-value holds at 5 shots; chi2 and G do not
        h = tmp_path / "h.qasm"
        h.write_text(emit_qasm(Circuit(1, (GateApplication("h", (0,)),))))
        for test, warns in (("multinomial", False), ("mc-multinomial", False),
                            ("chi2", True), ("g", True)):
            assert run_cli("run", "--program", str(h), "--expected", str(h),
                           "--test", test, "--shots", "5") in (0, 1)
            out = json.loads(capsys.readouterr().out)
            assert ("warnings" in out) == warns, (test, out)

    def test_verdicts_without_statistics_do_not_import_scipy(self, files):
        # a fresh interpreter: swap, inverse and statevector verdicts, parse
        # and mutate leave scipy unloaded
        script = "\n".join([
            "import sys",
            "from qut.cli import main",
            f"argv = ['--program', {files['broken']!r}, '--expected', "
            f"{files['bell']!r}, '--shots', '10000000']",
            "for test in ('swap', 'inverse'):",
            "    assert main(['run', '--test', test] + argv) == 1",
            "assert main(['run', '--test', 'statevector'] + argv[:4]) == 1",
            f"assert main(['parse', '--in', {files['bell']!r}]) == 0",
            f"assert main(['mutate', '--circuit', {files['bell']!r}, '--out', "
            f"{str(files['dir'] / 'mutants')!r}]) == 0",
            "assert 'scipy' not in sys.modules, sorted("
            "m for m in sys.modules if m.startswith('scipy'))[:5]",
        ])
        src = str(Path(qut.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_statistical_verdicts_and_bench_do_not_import_scipy_stats(
            self, files, tmp_path):
        # the p-values need only scipy.special: a fresh interpreter runs each
        # of the six statistical families and a bench over all of them
        manifest = tmp_path / "corpus.jsonl"
        manifest.write_text(json.dumps({"pair_id": "p0", "original": files["bell"],
                                        "mutant": files["broken"]}) + "\n")
        from qut.bench import ExperimentConfig
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(vars(ExperimentConfig(corpus=str(manifest), repetitions=2,
                                                        tests=ALL_TESTS, mc_reps=20))))
        script = "\n".join([
            "import sys",
            "from qut.cli import main",
            f"argv = ['--program', {files['bell']!r}, '--expected', "
            f"{files['bell']!r}, '--shots', '20', '--mc-reps', '50']",
            "for test in ('chi2', 'g', 'multinomial', 'mc-chi2', 'mc-g', "
            "'mc-multinomial'):",
            "    assert main(['run', '--test', test] + argv) == 0, test",
            "    assert 'scipy.stats' not in sys.modules, test",
            f"assert main(['bench', '--config', {str(cfg)!r}, '--out', "
            f"{str(tmp_path / 'rows.csv')!r}]) == 0",
            "assert 'scipy.special' in sys.modules",
            "assert 'scipy.stats' not in sys.modules, sorted("
            "m for m in sys.modules if m.startswith('scipy.stats'))[:5]",
        ])
        src = str(Path(qut.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


def _write_generated(directory: Path, name: str, n: int, depth: int, seed: int,
                     form: str) -> str:
    """A seeded random circuit on n qubits, written by `_write_circuit`."""
    return _write_circuit(directory, name, random_circuit(n, depth, seed), form)


def _write_circuit(directory: Path, name: str, c: Circuit, form: str) -> str:
    """`c` as QASM, as circuit JSON, or as the statevector JSON of its
    output."""
    if form == "qasm":
        path, text = directory / f"{name}.qasm", emit_qasm(c)
    elif form == "json":
        path, text = directory / f"{name}.json", emit_json(c)
    else:
        amplitudes = run_statevector(c).amplitudes
        path = directory / f"{name}.json"
        text = json.dumps({"amplitudes": [[a.real, a.imag] for a in amplitudes]})
    path.write_text(text)
    return str(path)


def _circuit_file(forms):
    return st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2 ** 16),
                     st.sampled_from(forms))


def _same_state_variant(c: Circuit, edits) -> Circuit:
    """`c` with each edit (kind, position fraction, seed) applied: "pair"
    inserts a random gate followed by its inverse, "phase" a 2 pi rotation,
    which is -I on its qubit and so a global phase of -1 on the state."""
    gates = list(c.gates)
    for kind, where, seed in edits:
        at = round(where * len(gates))
        if kind == "pair":
            g = random_circuit(c.num_qubits, 1, seed).gates[0]
            gates[at:at] = [g, inverse_gate(g)]
        else:
            axis = ("rx", "ry", "rz")[seed % 3]
            gates.insert(at, GateApplication(axis, (seed % c.num_qubits,),
                                             (2 * np.pi,)))
    return Circuit(c.num_qubits, tuple(gates))


class TestRunContract:
    """`qut run` on generated files and flags: every family ends in exit 0,
    1, 2 or 3 without a traceback, and a program is its own expected state.
    A program that differs from the expected circuit only by a global phase
    or a self-cancelling gate pair passes the "same state?" predicate, and
    swap, inverse and statevector never fail it (exit 1)."""

    @staticmethod
    def _run(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", *argv, "--mc-reps", "50"])
        return code, err.getvalue()

    # exact multinomial p-values enumerate every count vector, so valid shot
    # counts stay small; 10^7 exercises its refusal, 0 and 2^63 the shot checks
    @settings(max_examples=25, deadline=None)
    @given(program=_circuit_file(["qasm", "json"]),
           expected=_circuit_file(["qasm", "json", "state"]),
           shots=st.one_of(st.integers(1, 6), st.sampled_from([0, 10 ** 7, 2 ** 63])),
           seed=st.one_of(st.integers(0, 2 ** 64), st.just(-1)))
    def test_every_family_ends_in_a_documented_exit_code(self, program, expected,
                                                         shots, seed):
        with tempfile.TemporaryDirectory() as tmp:
            prog = _write_generated(Path(tmp), "program", *program)
            exp = _write_generated(Path(tmp), "expected", *expected)
            flags = ["--shots", str(shots), "--seed", str(seed)]
            for test in sorted(_TEST_NAMES):
                code, err = self._run("--program", prog, "--expected", exp,
                                      "--test", test, *flags)
                assert code in (0, 1, 2, 3) and "Traceback" not in err, (test, err)
            valid = 1 <= shots <= MAX_SHOTS and seed >= 0
            for test in ("swap", "inverse", "statevector"):
                code, err = self._run("--program", prog, "--expected", prog,
                                      "--test", test, *flags)
                expect = 0 if valid or test == "statevector" else 2
                assert code == expect, (test, code, err)

    # shots at the int64 limit make any draw at q ~ 1e-16 fail: only the
    # predicate keeps a pair whose F rounds below 1 from a fail verdict
    @settings(max_examples=40, deadline=None)
    @given(original=st.tuples(st.integers(1, 3), st.integers(1, 4),
                              st.integers(0, 2 ** 16)),
           edits=st.lists(st.tuples(st.sampled_from(["pair", "phase"]),
                                    st.floats(0, 1), st.integers(0, 2 ** 16)),
                          min_size=1, max_size=3),
           forms=st.tuples(st.sampled_from(["qasm", "json"]),
                           st.sampled_from(["qasm", "json", "state"])),
           shots=st.one_of(st.just(MAX_SHOTS), st.integers(1, MAX_SHOTS)),
           seed=st.integers(0, 2 ** 64))
    def test_a_same_state_pair_never_exits_one(self, original, edits, forms,
                                               shots, seed):
        expected = random_circuit(*original)
        program = _same_state_variant(expected, edits)
        assert statevector_verdict(run_statevector(program),
                                   run_statevector(expected)).passed
        with tempfile.TemporaryDirectory() as tmp:
            prog = _write_circuit(Path(tmp), "program", program, forms[0])
            exp = _write_circuit(Path(tmp), "expected", expected, forms[1])
            for test in ("swap", "inverse", "statevector"):
                code, err = self._run(
                    "--program", prog, "--expected", exp, "--test", test,
                    "--shots", str(shots), "--seed", str(seed))
                assert code == 0, (test, code, err)



class TestSubcommandContract:
    """`qut parse`, `qut estimate-shots` and `qut mutate` on the structured
    fuzz of the QASM and JSON parsers' own properties: every run ends in exit
    0 (done), 2 (usage) or 3 (I/O or parse error) without a traceback.  None
    of them gives a verdict, so none may end in exit 1."""

    @staticmethod
    def _run(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, err.getvalue()

    @settings(max_examples=80, deadline=None)
    @given(subject=st.one_of(
               token_programs().map(lambda text: ("qasm", text)),
               edited_programs().map(lambda text: ("qasm", text)),
               edited_circuit_objects().map(lambda text: ("json", text)),
               _circuit_file(["qasm", "json"]).map(
                   lambda f: (f[3], (emit_qasm if f[3] == "qasm" else emit_json)(
                       random_circuit(*f[:3]))))),
           other=_circuit_file(["qasm", "json", "state"]),
           emit=st.sampled_from(["qasm", "json"]),
           pe=st.sampled_from(["0.05", "0.5", "0", "1.5", "nan"]),
           operators=st.sampled_from(["qgr,qgd,qgi,rgi", "qgd", "rgi", "qgx", "", "qgd,QGD"]),
           fraction=st.sampled_from(["1.0", "0.5", "0", "-1"]),
           rgi_count=st.sampled_from(["1", "3", "0"]),
           seed=st.sampled_from(["0", "7", "-1"]),
           out=st.sampled_from(["mutants", "subject"]))
    def test_every_subcommand_ends_in_a_documented_exit_code(
            self, subject, other, emit, pe, operators, fraction, rgi_count, seed, out):
        form, text = subject
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"subject.{form}"
            path.write_text(text)
            good = _write_generated(Path(tmp), "other", *other)
            runs = [
                ("parse", "--in", str(path), "--emit", emit),
                ("estimate-shots", "--program", str(path), "--expected", good, "--pe", pe),
                ("estimate-shots", "--program", good, "--expected", str(path), "--pe", pe),
                ("mutate", "--circuit", str(path), "--operators", operators,
                 "--fraction", fraction, "--rgi-count", rgi_count, "--seed", seed,
                 "--out", str(path if out == "subject" else Path(tmp) / out)),
            ]
            for argv in runs:
                code, err = self._run(*argv)
                assert code in (0, 2, 3) and "Traceback" not in err, (argv, code, err)


# JSON values of every type, nested a little
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=8)
# texts that are not JSON, or JSON nested past the decoder's recursion limit
_RAW_TEXTS = ["", "{", "[" * 5000 + "]" * 5000, '{"corpus": 1']
_MANIFEST = "<the generated manifest>"


def _small_count(value) -> bool:
    # a count field that validates stays small, so every example runs quickly
    return not (isinstance(value, int) and not isinstance(value, bool) and value > 3)


_VALID_FIELDS = {
    "corpus": st.just(_MANIFEST),
    "tests": st.lists(st.sampled_from(sorted(_TEST_NAMES.values())), min_size=1, max_size=3,
                      unique=True),
    "p_t": st.sampled_from([0.05, 0.5]),
    "p_e": st.sampled_from([0.05, 0.5]),
    "shot_cap_absolute": st.integers(1, 3),
    "cap_factor": st.sampled_from([0.5, 2.0]),
    "repetitions": st.integers(1, 3),
    "base_seed": st.integers(0, 2 ** 64),
    "mc_reps": st.integers(1, 3),
    "record_timing": st.booleans(),
}
_COUNT_FIELDS = ("shot_cap_absolute", "repetitions", "mc_reps")


@st.composite
def bench_configs(draw):
    """A config that validates, with at most one field, or an unknown key,
    holding any JSON value instead (a count that validates is at most 3, so
    every example runs quickly); any JSON value; or ("text", a text that is
    not JSON)."""
    form = draw(st.sampled_from(["fields"] * 4 + ["json", "text"]))
    if form == "json":
        return draw(_JSON_VALUES)
    if form == "text":
        return "text", draw(st.sampled_from(_RAW_TEXTS))
    config = {name: draw(valid) for name, valid in _VALID_FIELDS.items()
              if name in ("corpus", *_COUNT_FIELDS) or draw(st.booleans())}
    odd = draw(st.none() | st.sampled_from([*_VALID_FIELDS, "unknown"]))
    if odd is not None:
        config[odd] = draw(_JSON_VALUES.filter(_small_count) if odd in _COUNT_FIELDS
                           else _JSON_VALUES)
    return config


# A corpus manifest: mostly lines naming the generated files, now and then a
# missing file or a directory; some of any JSON value, or of a text that is
# not JSON.
_NAMED = st.sampled_from(["one.qasm", "other.qasm", "two.json"] * 3 + ["missing.qasm", "."])
_PAIR_LINES = st.fixed_dictionaries({"pair_id": st.sampled_from(["a", "b", 1]),
                                     "original": _NAMED, "mutant": _NAMED}).map(json.dumps)
bench_corpora = st.lists(st.one_of(_PAIR_LINES, _PAIR_LINES, _PAIR_LINES,
                                   _JSON_VALUES.map(json.dumps), st.sampled_from(_RAW_TEXTS)),
                         min_size=1, max_size=3)


class TestBenchContract:
    """`qut bench` on generated configs and corpora ends in exit 0, 2 or 3
    without a traceback."""

    @staticmethod
    def _run(config_text: str, directory: Path):
        path = directory / "config.json"
        path.write_text(config_text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["bench", "--config", str(path), "--out", str(directory / "out.csv")])
        return code, err.getvalue()

    @settings(max_examples=120, deadline=None)
    @given(config=bench_configs(), lines=bench_corpora)
    def test_every_config_and_corpus_ends_in_a_documented_exit_code(self, config, lines):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            _write_circuit(root, "one", Circuit(1, (GateApplication("h", (0,)),)), "qasm")
            _write_circuit(root, "other", Circuit(1), "qasm")
            _write_circuit(root, "two", Circuit(2, (GateApplication("h", (0,)),
                                                    GateApplication("cx", (0, 1)))), "json")
            manifest = root / "corpus.jsonl"
            manifest.write_text("\n".join(lines))
            if isinstance(config, tuple):
                text = config[1]
            else:
                if isinstance(config, dict) and config.get("corpus") == _MANIFEST:
                    config = {**config, "corpus": str(manifest)}
                text = json.dumps(config)
            code, err = self._run(text, root)
        assert code in (0, 2, 3) and "Traceback" not in err, (text[:200], lines, code, err)

    @pytest.mark.parametrize("config, message", [
        (json.dumps({"tests": "chi2"}), "bad config: tests must be a list of test names"),
        (json.dumps({"tests": {"chi2": 1}}), "bad config: tests must be a list of test names"),
        ("[" * 5000 + "]" * 5000, "bad config: maximum recursion depth exceeded"),
    ])
    def test_bad_config_is_three_with_its_reason(self, tmp_path, config, message):
        code, err = self._run(config, tmp_path)
        assert code == 3 and err.startswith(f"error: {message}"), err

    def test_deeply_nested_corpus_line_is_three(self, tmp_path):
        manifest = tmp_path / "corpus.jsonl"
        manifest.write_text("[" * 5000 + "]" * 5000)
        code, err = self._run(json.dumps({"corpus": str(manifest)}), tmp_path)
        assert code == 3 and err.startswith("error: cannot load corpus: maximum recursion"), err


# `qut -h` and each `qut <cmd> -h` at COLUMNS=80, as the eagerly declared
# parser printed them
_HELP_TEXTS = {
    (): """\
usage: qut [-h] {run,estimate-shots,mutate,bench,parse} ...

quantum unit-test runner

positional arguments:
  {run,estimate-shots,mutate,bench,parse}
    run                 run one quantum unit test
    estimate-shots      Chernoff-bound shot estimate
    mutate              generate mutants of a circuit
    bench               run a benchmark from a config file
    parse               parse and re-emit a circuit file

options:
  -h, --help            show this help message and exit
""",
    ("run",): """\
usage: qut run [-h] --program PROGRAM [--input INPUT] --expected EXPECTED
               --test
               {chi2,g,inverse,mc-chi2,mc-g,mc-multinomial,multinomial,statevector,swap}
               [--shots SHOTS] [--p-value P_VALUE] [--seed SEED]
               [--mc-reps MC_REPS] [--tolerance TOLERANCE]
               [--phase-mode {global,strict}]

options:
  -h, --help            show this help message and exit
  --program PROGRAM
  --input INPUT         preparation circuit W
  --expected EXPECTED
  --test {chi2,g,inverse,mc-chi2,mc-g,mc-multinomial,multinomial,statevector,swap}
  --shots SHOTS
  --p-value P_VALUE
  --seed SEED
  --mc-reps MC_REPS
  --tolerance TOLERANCE
  --phase-mode {global,strict}
""",
    ("estimate-shots",): """\
usage: qut estimate-shots [-h] --program PROGRAM --expected EXPECTED [--pe PE]

options:
  -h, --help           show this help message and exit
  --program PROGRAM
  --expected EXPECTED
  --pe PE
""",
    ("mutate",): """\
usage: qut mutate [-h] --circuit CIRCUIT [--operators OPERATORS]
                  [--fraction FRACTION] [--seed SEED] [--rgi-count RGI_COUNT]
                  --out OUT

options:
  -h, --help            show this help message and exit
  --circuit CIRCUIT
  --operators OPERATORS
  --fraction FRACTION
  --seed SEED
  --rgi-count RGI_COUNT
  --out OUT
""",
    ("bench",): """\
usage: qut bench [-h] --config CONFIG --out OUT

options:
  -h, --help       show this help message and exit
  --config CONFIG
  --out OUT
""",
    ("parse",): """\
usage: qut parse [-h] --in INFILE [--emit {json,qasm}]

options:
  -h, --help          show this help message and exit
  --in INFILE
  --emit {json,qasm}
""",
}


def _eager_parser() -> argparse.ArgumentParser:
    """Reference: every subcommand declared up front, each help text laid
    out at the terminal width argparse reads when it formats."""
    parser = argparse.ArgumentParser(prog="qut", description="quantum unit-test runner")
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
    run.add_argument("--phase-mode", choices=["global", "strict"], default="global")
    run.set_defaults(func=cli._cmd_run)

    est = sub.add_parser("estimate-shots", help="Chernoff-bound shot estimate")
    est.add_argument("--program", required=True)
    est.add_argument("--expected", required=True)
    est.add_argument("--pe", type=float, default=0.05)
    est.set_defaults(func=cli._cmd_estimate_shots)

    mut = sub.add_parser("mutate", help="generate mutants of a circuit")
    mut.add_argument("--circuit", required=True)
    mut.add_argument("--operators", default="qgr,qgd,qgi,rgi")
    mut.add_argument("--fraction", type=float, default=1.0)
    mut.add_argument("--seed", type=int, default=0)
    mut.add_argument("--rgi-count", type=int, default=1)
    mut.add_argument("--out", required=True)
    mut.set_defaults(func=cli._cmd_mutate)

    bnc = sub.add_parser("bench", help="run a benchmark from a config file")
    bnc.add_argument("--config", required=True)
    bnc.add_argument("--out", required=True)
    bnc.set_defaults(func=cli._cmd_bench)

    prs = sub.add_parser("parse", help="parse and re-emit a circuit file")
    prs.add_argument("--in", dest="infile", required=True)
    prs.add_argument("--emit", choices=["json", "qasm"], default="qasm")
    prs.set_defaults(func=cli._cmd_parse)
    return parser


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _eager_captured(argv):
    """Reference for `main`: `_eager_parser` parses every argv, and the
    handler it picks runs with `main`'s exit codes and error lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = _eager_parser().parse_args(list(argv))
            code = args.func(args)
        except SystemExit as exc:
            code = 2 if exc.code not in (0, None) else 0
        except cli.CliIoError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 3
        except (ValueError, IndexError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    return code, out.getvalue(), err.getvalue()


# Tokens of a `qut` argv: every subcommand's flags (so some land on the wrong
# subcommand), help, abbreviations and unknown flags, and values of each kind.
_FLAGS = ["--program", "--input", "--expected", "--test", "--shots", "--p-value", "--seed",
          "--mc-reps", "--tolerance", "--phase-mode", "--pe", "--circuit", "--operators",
          "--fraction", "--rgi-count", "--out", "--config", "--in", "--emit",
          "-h", "--help", "--prog", "--p", "--bogus", "--"]
_VALUES = ["{program}", "{expected}", "{state}", "{missing}", "{config}", "{out}",
           "0", "1", "3", "-1", "0.5", "nan", "x", "chi2", "multinomial", "mc-g", "swap",
           "inverse", "statevector", "bogus", "global", "strict", "json", "qasm", "qgd,rgi"]
# one argv per subcommand that parses, for examples that get past argparse
_VALID = {
    "run": ["--program", "{program}", "--expected", "{expected}", "--shots", "3",
            "--mc-reps", "5", "--test"],
    "estimate-shots": ["--program", "{program}", "--expected", "{expected}"],
    "mutate": ["--circuit", "{program}", "--operators", "qgd", "--out", "{out}"],
    "bench": ["--config", "{config}", "--out", "{out}/rows.csv"],
    "parse": ["--in", "{program}"],
}


@st.composite
def cli_argvs(draw):
    """A `qut` argv: a subcommand (or an unknown one, or none), then tokens
    drawn at random, or the subcommand's valid argv as it is, with a few
    tokens inserted, or followed by a few tokens it does not declare."""
    command = draw(st.sampled_from([*_VALID, "bogus", "-h", None]))
    tokens = st.sampled_from(_FLAGS) | st.sampled_from(_VALUES)
    form = draw(st.sampled_from(["valid", "edited", "trailing", "random"]))
    if command in _VALID and form != "random":
        argv = list(_VALID[command])
        if command == "run":
            argv.append(draw(st.sampled_from(sorted(_TEST_NAMES))))
        for token in draw(st.lists(tokens, min_size=1, max_size=3)) if form == "edited" else ():
            argv.insert(draw(st.integers(0, len(argv))), token)
        if form == "trailing":  # unknown options and stray values: the full parser's error
            argv += draw(st.lists(st.sampled_from(["--bogus", "--prog", "--", "x", "0", "-1",
                                                   "--bogus=1", "-q"]), min_size=1, max_size=3))
    else:
        argv = draw(st.lists(tokens, max_size=8))
    return ([command] if command else []) + argv


class TestParserDeclarations:
    """A call that names a subcommand first builds that subcommand's parser
    alone, with one help width; what a call prints and returns is as if
    every subcommand had been declared up front."""

    @pytest.mark.parametrize("command", sorted(_HELP_TEXTS))
    def test_help_text_is_pinned(self, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        assert _main_captured([*command, "-h"]) == (0, _HELP_TEXTS[command], "")

    # each `qut run --test` spelling and the test it names
    RUN_TEST_NAMES = {
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

    def test_run_test_spellings_are_pinned(self):
        # the CLI derives its table from testing.ALL_TESTS, so a new or
        # renamed test changes a spelling here first
        from qut.bench import ExperimentConfig

        assert _TEST_NAMES == self.RUN_TEST_NAMES
        for test in self.RUN_TEST_NAMES.values():
            assert ExperimentConfig(tests=[test]).tests == (test,)

    @settings(max_examples=150, deadline=None)
    @given(argv=cli_argvs(), columns=st.sampled_from(["80", "40", "200"]))
    def test_main_matches_an_eagerly_declared_parser(self, argv, columns):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            bell = Circuit(2, (GateApplication("h", (0,)), GateApplication("cx", (0, 1))))
            names = {
                "program": _write_circuit(root, "program", bell, "qasm"),
                "expected": _write_circuit(root, "expected", Circuit(2), "json"),
                "state": _write_circuit(root, "state", bell, "state"),
                "missing": str(root / "missing.qasm"),
                "config": str(root / "config.json"),
                "out": str(root / "out"),
            }
            (root / "corpus.jsonl").write_text(json.dumps(
                {"pair_id": "p", "original": "program.qasm", "mutant": "expected.json"}))
            Path(names["config"]).write_text(json.dumps(
                {"corpus": str(root / "corpus.jsonl"), "repetitions": 1, "mc_reps": 5}))
            (root / "out").mkdir()
            argv = [token.format(**names) for token in argv]
            with pytest.MonkeyPatch.context() as patch:
                patch.setenv("COLUMNS", columns)
                lazy = _main_captured(argv)
                eager = _eager_captured(argv)
        assert lazy == eager, argv

    def test_a_run_builds_one_parser(self, monkeypatch, files):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        code = run_cli("run", "--program", files["bell"], "--expected", files["bell"],
                       "--test", "swap", "--shots", "10")
        assert (code, built) == (0, ["qut run"])

    def test_import_loads_no_other_subcommand(self):
        # a fresh interpreter: `import qut.cli` leaves the bench, mutation and
        # shot-planning modules unloaded, and every re-export still resolves
        script = "\n".join([
            "import sys",
            "import qut.cli",
            "loaded = [m for m in ('qut.bench', 'qut.mutation', 'qut.shots') "
            "if m in sys.modules]",
            "assert not loaded, loaded",
            "import qut",
            "for name in qut.__all__:",
            "    assert getattr(qut, name).__module__.startswith('qut.'), name",
            "from qut import *",
            "assert qut.shots.qcb_exponent is qcb_exponent",
        ])
        src = str(Path(qut.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
