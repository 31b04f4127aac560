"""The four benchmark workloads.

Each workload is a closed loop with one client: a round is built from the
benchmark seed and the round index (`build`, timed as set-up), then run
through qut's public entry points (`run`, timed), and every round's outputs
are checked against `reference` afterwards (`check`).  A round always holds
the same operations, so the share of failed operations is the same in every
run.  Verdicts, bench rows, shot plans and exponents are the operations;
`cli.main` is called in-process exactly as the `qut` command would call it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import traceback
from pathlib import Path

import numpy as np

import qut.cli
import qut.shots
from qut import gates
from qut.circuit import Circuit, GateApplication, random_circuit
from qut.core import DensityMatrix, StateVector
from qut.jsonio import parse_json
from qut.qasm import emit_qasm
from qut.synth import synthesize_state_prep

import reference as ref

P_THRESHOLD = 0.05
P_E = 0.05


def round_rng(seed: int, index: int, tag: str) -> np.random.Generator:
    salt = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "big")
    return np.random.default_rng(np.random.SeedSequence([seed, index, salt]))


def draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def cli(argv: list[str]) -> tuple[int, str, str]:
    """Run `qut <argv>` in-process; return the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qut.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_qasm(path: Path, circuit: Circuit) -> str:
    path.write_text(emit_qasm(circuit))
    return str(path)


def write_state(path: Path, amplitudes: np.ndarray) -> str:
    path.write_text(json.dumps({"amplitudes": [[float(a.real), float(a.imag)]
                                               for a in amplitudes]}))
    return str(path)


def run_verdict(argv: list[str]) -> dict:
    """One `qut run`; a verdict is an operation that succeeded, anything
    else (usage or I/O exit, exception, unparsable output) failed."""
    try:
        code, text, err = cli(argv)
        verdict = json.loads(text) if code in (0, 1) else None
    except Exception:  # an operation that raises is counted as failed
        return {"failed": True, "error": traceback.format_exc()}
    if verdict is None:
        return {"failed": True, "error": f"exit {code}: {err.strip()}"}
    return {"failed": False, "code": code, **verdict}


class Workload:
    name = ""
    # rounds in a traced run; fixed so that traced counts repeat exactly
    trace_rounds = 1

    def build(self, seed: int, index: int, root: Path) -> dict:
        raise NotImplementedError

    def run(self, inputs: dict) -> dict:
        """Returns {"attempted": int, "failed": int, ...outputs}."""
        raise NotImplementedError

    def check(self, rounds: list[tuple[dict, dict]], alpha: float) -> list[str]:
        """Problems found in the outputs; `alpha` bounds the chance that a
        correct program trips a statistical check in this run."""
        raise NotImplementedError

    def recheck(self, rounds: list[tuple[dict, dict]]) -> list[str]:
        """Checks that run the program again, outside the measured window."""
        return []


class VerdictWorkload(Workload):
    """A round is a list of `qut run` invocations, `inputs["runs"]`."""

    def run(self, inputs):
        outs = [run_verdict(r["argv"]) for r in inputs["runs"]]
        return {"attempted": len(outs), "failed": sum(o["failed"] for o in outs), "verdicts": outs}


def verdict_errors(where: str, out: dict, test: str, shots: int) -> list[str]:
    """Laws every verdict obeys whatever the inputs."""
    if out["failed"]:
        return [f"{where}: operation failed: {out['error']}"]
    errs = []
    if out["code"] != (0 if out["outcome"] == "pass" else 1):
        errs.append(f"{where}: exit {out['code']} with outcome {out['outcome']}")
    first = out.get("first_failure_shot")
    if test in ("swap", "inverse") and (out["outcome"] == "fail") != (
            first is not None and 1 <= first <= shots):
        errs.append(f"{where}: outcome {out['outcome']} with first failing shot {first}")
    if "p_value" in out and (out["p_value"] >= P_THRESHOLD) != (out["outcome"] == "pass"):
        errs.append(f"{where}: p = {out['p_value']} but outcome {out['outcome']}")
    return errs


def statevector_errors(where: str, out: dict, actual: np.ndarray, expected: np.ndarray) -> list[str]:
    dev = ref.phase_aligned_deviation(actual, expected)
    want = "pass" if dev <= ref.AMPLITUDE_TOLERANCE else "fail"
    errs = []
    if out["outcome"] != want:
        errs.append(f"{where}: statevector {out['outcome']}, reference deviation {dev:.3g}")
    if abs(out.get("max_amplitude_deviation", math.inf) - dev) > 1e-9:
        errs.append(f"{where}: deviation {out.get('max_amplitude_deviation')} vs reference {dev:.3g}")
    return errs


# ---------------------------------------------------------------------------

class Verdict1e7(VerdictWorkload):
    """The paper's perturbed-Hadamard example: every family at 10^7 shots on
    the buggy program and on the correct one."""

    name = "verdict-1e7"
    trace_rounds = 2
    SHOTS = 10**7
    TESTS = ("chi2", "g", "swap", "inverse", "statevector")
    # the published buggy output state (0.7066, 0.7077), renormalized
    BUG_THETA = 2.0 * math.atan2(0.7077, 0.7066)

    def build(self, seed, index, root):
        root.mkdir(parents=True, exist_ok=True)
        hadamard = Circuit(1, (GateApplication("h", (0,)),))
        buggy = Circuit(1, (GateApplication("ry", (0,), (self.BUG_THETA,)),))
        rng = round_rng(seed, index, self.name)
        runs = []
        for label, program in (("buggy", buggy), ("correct", hadamard)):
            path = write_qasm(root / f"{label}.qasm", program)
            for test in self.TESTS:
                runs.append({"label": label, "test": test, "program": program,
                             "argv": ["run", "--program", path, "--expected", str(root / "expected.qasm"),
                                      "--test", test, "--shots", str(self.SHOTS),
                                      "--seed", str(draw_seed(rng))]})
        write_qasm(root / "expected.qasm", hadamard)
        return {"runs": runs, "expected": hadamard}

    def check(self, rounds, alpha):
        errs = []
        tally: dict[tuple[str, str], int] = {}
        trials: dict[tuple[str, str], int] = {}
        expected = ref.evolve(rounds[0][0]["expected"])
        for r, (inputs, outputs) in enumerate(rounds):
            for run, out in zip(inputs["runs"], outputs["verdicts"]):
                where = f"round {r} {run['label']} {run['test']}"
                errs += verdict_errors(where, out, run["test"], self.SHOTS)
                if out["failed"]:
                    continue
                if run["test"] == "statevector":
                    errs += statevector_errors(where, out, ref.evolve(run["program"]), expected)
                key = (run["label"], run["test"])
                tally[key] = tally.get(key, 0) + (out["outcome"] == "fail")
                trials[key] = trials.get(key, 0) + 1
        laws = self.fail_probabilities(rounds[0][0])
        checks = [k for k in trials if k[1] != "statevector"]
        for key in checks:
            p = laws[key]
            ok, detail = ref.detections_within_law(tally[key], [p] * trials[key], alpha / len(checks))
            if not ok:
                errs.append(f"{key[0]} {key[1]}: {detail} (per-verdict law {p:.4g})")
        return errs

    def fail_probabilities(self, inputs) -> dict[tuple[str, str], float]:
        """Chance that one verdict fails: 1 - F^S for inverse, 1 - ((1+F)/2)^S
        for swap, 0.05 for chi2 and g on the correct program, and the
        noncentral chi-square power on the buggy one."""
        from scipy import stats

        expected = ref.evolve(inputs["expected"])
        q = np.abs(expected) ** 2
        crit = stats.chi2.isf(P_THRESHOLD, 1)
        laws = {}
        for run in inputs["runs"]:
            actual = ref.evolve(run["program"])
            f = ref.overlap(actual, expected)
            p = np.abs(actual) ** 2
            if run["test"] == "inverse":
                law = -math.expm1(self.SHOTS * math.log(f)) if f < 1 else 0.0
            elif run["test"] == "swap":
                law = -math.expm1(self.SHOTS * math.log1p(-(1 - f) / 2)) if f < 1 else 0.0
            else:
                lam = self.SHOTS * float(((p - q) ** 2 / q).sum())
                law = P_THRESHOLD if lam < 1e-6 else float(stats.ncx2.sf(crit, 1, lam))
            laws[(run["label"], run["test"])] = law
        return laws


# ---------------------------------------------------------------------------

class DeskBench(Workload):
    """The mutation study at desk scale: `qut mutate` (QGD, RGI) on seeded
    random originals, then `qut bench` on a corpus of two mutants per
    original plus fixed near-equivalent pairs."""

    name = "desk-bench"
    trace_rounds = 2
    ORIGINALS = 40  # n = 1 + i % 4 qubits, depth 1 + i % 10; the same mix every round
    MUTANTS_PER_ORIGINAL = 2
    RGI_COUNT = 3
    REPETITIONS = 2
    TESTS = ("chi2", "swap", "inverse", "statevector")
    SHOT_CAP = 10**4
    # original + rz(2e-9): the amplitude deviation exceeds 1e-10, so the mutant
    # filter keeps it, but sigma_11 >= 1 - 1e-15, so shot planning refuses it
    NEAR_EQUIVALENT = (
        Circuit(1, (GateApplication("h", (0,)),)),
        Circuit(2, (GateApplication("h", (0,)), GateApplication("cx", (0, 1)))),
    )
    NEAR_ANGLE = 2e-9

    def build(self, seed, index, root):
        root.mkdir(parents=True, exist_ok=True)
        rng = round_rng(seed, index, self.name)
        originals = []
        for i in range(self.ORIGINALS):
            c = random_circuit(1 + i % 4, 1 + i % 10, seed=draw_seed(rng))
            originals.append({"circuit": c, "path": write_qasm(root / f"orig{i:02d}.qasm", c),
                              "mutate_seed": draw_seed(rng), "out": str(root / f"mutants{i:02d}")})
        near = []
        for j, c in enumerate(self.NEAR_EQUIVALENT):
            mutant = c.appended(GateApplication("rz", (c.num_qubits - 1,), (self.NEAR_ANGLE,)))
            near.append({"pair_id": f"near{j}", "original": c, "mutant": mutant,
                         "original_path": write_qasm(root / f"near{j}_orig.qasm", c),
                         "mutant_path": write_qasm(root / f"near{j}_mut.qasm", mutant)})
        config = {"corpus": str(root / "corpus.jsonl"), "tests": list(self.TESTS),
                  "p_t": P_THRESHOLD, "p_e": P_E, "shot_cap_absolute": self.SHOT_CAP,
                  "repetitions": self.REPETITIONS, "base_seed": draw_seed(rng)}
        (root / "config.json").write_text(json.dumps(config))
        return {"root": root, "originals": originals, "near": near, "config": config,
                "pick_seed": draw_seed(rng)}

    def run(self, inputs):
        root = inputs["root"]
        rng = np.random.default_rng(inputs["pick_seed"])
        manifest, pairs, kept_lists = [], {}, []
        for i, orig in enumerate(inputs["originals"]):
            code, _, err = cli(["mutate", "--circuit", orig["path"], "--operators", "qgd,rgi",
                                "--rgi-count", str(self.RGI_COUNT), "--seed", str(orig["mutate_seed"]),
                                "--out", orig["out"]])
            if code != 0:
                raise RuntimeError(f"qut mutate exited {code}: {err}")
            kept = [json.loads(line) for line in
                    Path(orig["out"], "manifest.jsonl").read_text().splitlines() if line]
            kept_lists.append(kept)
            if len(kept) < self.MUTANTS_PER_ORIGINAL:
                raise RuntimeError(f"original {i} kept {len(kept)} mutants")
            for j in sorted(rng.choice(len(kept), self.MUTANTS_PER_ORIGINAL, replace=False)):
                pair_id = f"c{i:02d}m{j:02d}"
                mutant_path = Path(orig["out"], kept[j]["path"])
                manifest.append({"pair_id": pair_id, "original": orig["path"],
                                 "mutant": str(mutant_path)})
                pairs[pair_id] = (orig["circuit"], mutant_path)
        for near in inputs["near"]:
            manifest.append({"pair_id": near["pair_id"], "original": near["original_path"],
                             "mutant": near["mutant_path"]})
            pairs[near["pair_id"]] = (near["original"], near["mutant"])
        Path(inputs["config"]["corpus"]).write_text(
            "".join(json.dumps(m) + "\n" for m in manifest))
        csv_path = root / "results.csv"
        code, _, err = cli(["bench", "--config", str(root / "config.json"), "--out", str(csv_path)])
        if code != 0:
            raise RuntimeError(f"qut bench exited {code}: {err}")
        csv_text = csv_path.read_text()
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        return {"attempted": len(rows), "failed": sum(r["verdict"] == "error" for r in rows),
                "rows": rows, "csv": csv_text, "pairs": pairs, "kept": kept_lists}

    def check(self, rounds, alpha):
        errs = []
        inverse_laws, swap_laws = [], []
        inverse_hits = swap_hits = 0
        for r, (inputs, outputs) in enumerate(rounds):
            errs += self.check_mutants(r, inputs, outputs["kept"])
            states = {}
            for pair_id, (original, mutant) in outputs["pairs"].items():
                if isinstance(mutant, Path):
                    mutant = parse_json(mutant.read_text())
                states[pair_id] = (ref.evolve(original), ref.evolve(mutant))
            # a pair that shot planning refuses gets one error row per test
            near = len(inputs["near"])
            want_rows = ((len(states) - near) * (1 + (len(self.TESTS) - 1) * self.REPETITIONS)
                         + near * len(self.TESTS))
            if len(outputs["rows"]) != want_rows:
                errs.append(f"round {r}: {len(outputs['rows'])} rows, expected {want_rows}")
            groups: dict[tuple[str, str], list[dict]] = {}
            base_seed = inputs["config"]["base_seed"]
            for row in outputs["rows"]:
                where = f"round {r} {row['pair_id']} {row['test']} rep {row['repetition']}"
                psi_o, psi_m = states[row["pair_id"]]
                sigma11 = ref.overlap(psi_o, psi_m)
                seed = mix_seed(base_seed, row["pair_id"], row["test"], int(row["repetition"]))
                if row["verdict"] != "error" and row["seed"] != str(seed):
                    errs.append(f"{where}: seed {row['seed']} does not follow the seed-mixing scheme")
                if sigma11 >= ref.EQUIVALENT_SIGMA11:
                    if row["verdict"] != "error":
                        errs.append(f"{where}: sigma11 {sigma11!r} is past planning, "
                                    f"verdict {row['verdict']}")
                    continue
                if row["verdict"] == "error":
                    errs.append(f"{where}: error row for sigma11 {sigma11:.6g}")
                    continue
                estimate = int(row["shot_estimate"])
                if not ref.shots_agree(estimate, sigma11, P_E):
                    errs.append(f"{where}: shot estimate {estimate}, reference "
                                f"{ref.planned_shots(sigma11, P_E)}")
                if row["test"] == "statevector":
                    dev = ref.phase_aligned_deviation(psi_m, psi_o)
                    want = "pass" if dev <= ref.AMPLITUDE_TOLERANCE else "fail"
                    if row["verdict"] != want:
                        errs.append(f"{where}: {row['verdict']}, reference deviation {dev:.3g}")
                    continue
                cap = max(min(self.SHOT_CAP, math.ceil(2.0 * estimate)), 1)
                used = int(row["shots_used"])
                if row["verdict"] == "fail":
                    if not 1 <= used <= cap:
                        errs.append(f"{where}: detected at shot {used} outside [1, {cap}]")
                elif row["verdict"] != "not_detected" or used != cap:
                    errs.append(f"{where}: {row['verdict']} with {used} shots, cap {cap}")
                hit = row["verdict"] == "fail"
                if row["test"] == "inverse":
                    inverse_laws.append(-math.expm1(cap * math.log(sigma11)) if sigma11 > 0 else 1.0)
                    inverse_hits += hit
                elif row["test"] == "swap":
                    swap_laws.append(-math.expm1(cap * math.log1p(-(1 - sigma11) / 2)))
                    swap_hits += hit
                groups.setdefault((row["pair_id"], row["repetition"]), []).append(row)
            errs += rank_errors(r, groups)
        for label, hits, laws in (("inverse", inverse_hits, inverse_laws),
                                  ("swap", swap_hits, swap_laws)):
            ok, detail = ref.detections_within_law(hits, laws, alpha / 2)
            if not ok:
                errs.append(f"bench {label}: {detail}")
        return errs

    def check_mutants(self, r: int, inputs: dict, kept_lists: list) -> list[str]:
        """Every kept mutant is non-equivalent with the fidelity the manifest
        states, and QGD kept exactly the non-equivalent single deletions."""
        errs = []
        for i, (orig, kept) in enumerate(zip(inputs["originals"], kept_lists)):
            c = orig["circuit"]
            psi = ref.evolve(c)
            deletions = [Circuit(c.num_qubits, c.gates[:k] + c.gates[k + 1:]) for k in range(len(c))]
            want_qgd = sum(ref.phase_aligned_deviation(ref.evolve(d), psi) > ref.AMPLITUDE_TOLERANCE
                           for d in deletions)
            got_qgd = sum(m["operator"] == "QGD" for m in kept)
            got_rgi = sum(m["operator"] == "RGI" for m in kept)
            if got_qgd != want_qgd or got_rgi > self.RGI_COUNT:
                errs.append(f"round {r} original {i}: kept {got_qgd} QGD / {got_rgi} RGI, "
                            f"reference keeps {want_qgd} QGD")
            for m in kept:
                phi = ref.evolve(parse_json(Path(orig["out"], m["path"]).read_text()))
                if ref.phase_aligned_deviation(phi, psi) <= ref.AMPLITUDE_TOLERANCE:
                    errs.append(f"round {r} original {i}: kept an equivalent mutant {m['path']}")
                if abs(m["fidelity"] - ref.overlap(phi, psi)) > 1e-9:
                    errs.append(f"round {r} original {i}: {m['path']} fidelity {m['fidelity']} "
                                f"vs reference {ref.overlap(phi, psi)}")
        return errs

    def recheck(self, rounds):
        """A second in-process `qut bench` on round 0's corpus gives the same bytes."""
        inputs, outputs = rounds[0]
        again = inputs["root"] / "results-again.csv"
        code, _, _ = cli(["bench", "--config", str(inputs["root"] / "config.json"),
                          "--out", str(again)])
        if code != 0 or again.read_text() != outputs["csv"]:
            return [f"rerun of qut bench on round 0 (exit {code}) differs from the first CSV"]
        return []


def mix_seed(base_seed: int, pair_id: str, test: str, repetition: int) -> int:
    """The documented per-task seed: first 8 bytes of SHA-256 over
    "{base_seed}|{pair_id}|{test}|{repetition}", big-endian."""
    digest = hashlib.sha256(f"{base_seed}|{pair_id}|{test}|{repetition}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rank_errors(r: int, groups: dict) -> list[str]:
    """Dense ranks of the sampled tests within each (pair, repetition):
    detections by shots used, ties shared, undetected last."""
    errs = []
    for (pair_id, rep), rows in groups.items():
        shots = sorted({int(x["shots_used"]) for x in rows if x["verdict"] == "fail"})
        last = len(shots) + 1
        for x in rows:
            want = shots.index(int(x["shots_used"])) + 1 if x["verdict"] == "fail" else last
            if x["rank"] != str(want):
                errs.append(f"round {r} {pair_id} rep {rep} {x['test']}: rank {x['rank']}, expected {want}")
    return errs


# ---------------------------------------------------------------------------

class WideRegister(VerdictWorkload):
    """Swap, inverse and statevector at 100 shots on 6-12 qubit programs: an
    equivalent and a buggy pair at each width, so gate application, harness
    construction and state-prep synthesis do the work."""

    name = "wide-register"
    trace_rounds = 1
    SHOTS = 100
    WIDTHS = (6, 8, 10, 12)
    SWAP_MAX_QUBITS = 8  # the swap harness is 2n + 1 = 17 qubits wide at n = 8
    STATE_JSON_WIDTHS = (6, 10)  # buggy pairs here give the expected state as a vector
    MIN_INFIDELITY = 0.5
    QGR_SITES = 3

    def build(self, seed, index, root):
        root.mkdir(parents=True, exist_ok=True)
        rng = round_rng(seed, index, self.name)
        pairs = []
        for n in self.WIDTHS:
            # a seeded ry layer first makes the state dense, so its synthesized
            # preparation has the same number of gates whatever the seed
            layer = tuple(GateApplication("ry", (q,), (float(rng.uniform(0.1, 3.0)),))
                          for q in range(n))
            body = random_circuit(n, n, seed=draw_seed(rng))
            original = Circuit(n, layer + body.gates, body.name)
            psi = ref.evolve(original)
            prep = synthesize_state_prep(StateVector.from_amplitudes(psi))
            pairs.append({"label": f"n{n}-equivalent", "program": original, "equivalent": True,
                          "expected_state": psi,
                          "program_path": write_qasm(root / f"n{n}_orig.qasm", original),
                          "expected_path": write_qasm(root / f"n{n}_prep.qasm", prep)})
            buggy = self.buggy_mutant(original, psi, rng)
            if n in self.STATE_JSON_WIDTHS:
                expected_path = write_state(root / f"n{n}_state.json", psi)
            else:
                expected_path = pairs[-1]["program_path"]
            pairs.append({"label": f"n{n}-buggy", "program": buggy, "equivalent": False,
                          "expected_state": psi,
                          "program_path": write_qasm(root / f"n{n}_bug.qasm", buggy),
                          "expected_path": expected_path})
        runs = []
        for pair in pairs:
            tests = ("swap", "inverse", "statevector")
            if pair["program"].num_qubits > self.SWAP_MAX_QUBITS:
                tests = tests[1:]
            for test in tests:
                runs.append({"pair": pair, "test": test,
                             "argv": ["run", "--program", pair["program_path"],
                                      "--expected", pair["expected_path"], "--test", test,
                                      "--shots", str(self.SHOTS), "--seed", str(draw_seed(rng))]})
        return {"runs": runs}

    def buggy_mutant(self, original: Circuit, psi: np.ndarray, rng) -> Circuit:
        """Replace QGR_SITES seeded gates by a class peer until 1 - F >= 0.5."""
        for _ in range(1000):
            body = list(original.gates)
            for site in rng.choice(len(body), self.QGR_SITES, replace=False):
                g = body[site]
                peers = sorted(gates.equivalence_class(g.kind) - {g.kind})
                if peers:
                    body[site] = GateApplication(peers[int(rng.integers(len(peers)))], g.targets, g.params)
            mutant = Circuit(original.num_qubits, tuple(body))
            if 1.0 - ref.overlap(ref.evolve(mutant), psi) >= self.MIN_INFIDELITY:
                return mutant
        raise RuntimeError("no mutant with infidelity >= 0.5 in 1000 draws")

    def check(self, rounds, alpha):
        # A buggy pair passes swap with chance ((1 + F) / 2)^100 <= 0.75^100,
        # far below any alpha used here, so each verdict is checked alone.
        errs = []
        for r, (inputs, outputs) in enumerate(rounds):
            for run, out in zip(inputs["runs"], outputs["verdicts"]):
                pair = run["pair"]
                where = f"round {r} {pair['label']} {run['test']}"
                errs += verdict_errors(where, out, run["test"], self.SHOTS)
                if out["failed"]:
                    continue
                actual = ref.evolve(pair["program"])
                if run["test"] == "statevector":
                    errs += statevector_errors(where, out, actual, pair["expected_state"])
                    continue
                want = "pass" if pair["equivalent"] else "fail"
                if out["outcome"] != want:
                    f = ref.overlap(actual, pair["expected_state"])
                    errs.append(f"{where}: {out['outcome']} with reference F = {f:.6g}")
        return errs


# ---------------------------------------------------------------------------

class ShotPlanning(Workload):
    """`qut estimate-shots` on 1-5 qubit pairs, and `qcb_exponent` on pure
    pairs and on diagonal mixed pairs: the numeric Chernoff minimizer and
    `fractional_power` do the work."""

    name = "shot-planning"
    trace_rounds = 10
    WIDTHS = (1, 2, 3, 4, 5)
    PURE_TOLERANCE = 1e-9
    DIAGONAL_TOLERANCE = 1e-9

    def build(self, seed, index, root):
        root.mkdir(parents=True, exist_ok=True)
        rng = round_rng(seed, index, self.name)
        plans, pure, diagonal = [], [], []
        for n in self.WIDTHS:
            for form in ("qasm", "json"):
                original = random_circuit(n, 2 + n, seed=draw_seed(rng))
                mutant = random_circuit(n, 2 + n, seed=draw_seed(rng))
                psi, phi = ref.evolve(original), ref.evolve(mutant)
                stem = root / f"n{n}_{form}"
                expected = (write_qasm(stem.with_suffix(".orig.qasm"), original) if form == "qasm"
                            else write_state(stem.with_suffix(".state.json"), psi))
                plans.append({"sigma11": ref.overlap(psi, phi),
                              "argv": ["estimate-shots", "--program",
                                       write_qasm(stem.with_suffix(".mut.qasm"), mutant),
                                       "--expected", expected, "--pe", str(P_E)]})
            while True:  # pure pairs away from orthogonality, where -ln sigma_11 is well-conditioned
                a, b = (ref.evolve(random_circuit(n, 2 + n, seed=draw_seed(rng))) for _ in range(2))
                if ref.overlap(a, b) > 1e-6:
                    break
            pure.append({"rho": DensityMatrix(np.outer(a, a.conj())),
                         "sigma": DensityMatrix(np.outer(b, b.conj())), "sigma11": ref.overlap(a, b)})
            p, q = (rng.dirichlet(np.ones(1 << n)) for _ in range(2))
            diagonal.append({"rho": DensityMatrix(np.diag(p).astype(complex)),
                             "sigma": DensityMatrix(np.diag(q).astype(complex)), "p": p, "q": q})
        return {"plans": plans, "pure": pure, "diagonal": diagonal}

    def run(self, inputs):
        plans = []
        for plan in inputs["plans"]:
            try:
                code, text, _ = cli(plan["argv"])
                plans.append(json.loads(text) if code == 0 else None)
            except Exception:  # an operation that raises is counted as failed
                plans.append(None)
        failed = plans.count(None)
        exponents = []
        for pair in inputs["pure"] + inputs["diagonal"]:
            try:
                exponents.append(qut.shots.qcb_exponent(pair["rho"], pair["sigma"]))
            except Exception:  # an operation that raises is counted as failed
                exponents.append(None)
                failed += 1
        return {"attempted": len(plans) + len(exponents), "failed": failed,
                "plans": plans, "exponents": exponents}

    def check(self, rounds, alpha):
        errs = []
        for r, (inputs, outputs) in enumerate(rounds):
            for k, (plan, out) in enumerate(zip(inputs["plans"], outputs["plans"])):
                where = f"round {r} plan {k}"
                s11 = plan["sigma11"]
                if out is None:
                    errs.append(f"{where}: estimate-shots failed")
                elif s11 >= ref.EQUIVALENT_SIGMA11:
                    if not out.get("equivalent"):
                        errs.append(f"{where}: sigma11 {s11!r} but planned {out}")
                elif out.get("equivalent") or not ref.shots_agree(out["shots"], s11, P_E) \
                        or abs(out["sigma11"] - s11) > 1e-12:
                    errs.append(f"{where}: planned {out}, reference sigma11 {s11!r} -> "
                                f"{ref.planned_shots(s11, P_E)} shots")
            pure = outputs["exponents"][:len(inputs["pure"])]
            diagonal = outputs["exponents"][len(inputs["pure"]):]
            for k, (pair, xi) in enumerate(zip(inputs["pure"], pure)):
                want = -math.log(pair["sigma11"])
                if xi is None or abs(xi - want) > self.PURE_TOLERANCE:
                    errs.append(f"round {r} pure pair {k}: exponent {xi} vs -ln sigma11 {want}")
            for k, (pair, xi) in enumerate(zip(inputs["diagonal"], diagonal)):
                want = ref.diagonal_qcb_exponent(pair["p"], pair["q"])
                if xi is None or abs(xi - want) > self.DIAGONAL_TOLERANCE:
                    errs.append(f"round {r} diagonal pair {k}: exponent {xi} vs reference {want}")
        return errs


WORKLOADS = {w.name: w for w in (Verdict1e7(), DeskBench(), WideRegister(), ShotPlanning())}
