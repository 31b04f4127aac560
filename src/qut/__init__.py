"""qut: unit tests for quantum programs on a noise-free simulator.

Four test families (statistical goodness-of-fit, swap, statevector, inverse)
plus Chernoff-bound shot planning, mutation operators for benchmarking, and a
small OpenQASM 2 / JSON circuit front end.
"""

from .circuit import Circuit, GateApplication, compose, invert_circuit, random_circuit
from .core import StateVector, DensityMatrix, fidelity
from .mutation import MutantRecord, mutate_qgd, mutate_qgi, mutate_qgr, mutate_rgi
from .qasm import parse_qasm, emit_qasm
from .jsonio import parse_json, emit_json
from .shots import ShotEstimate, estimate_shots, estimate_shots_for_pair, qcb_exponent
from .testing import (
    TestVerdict,
    inverse_test,
    statevector_test,
    statistical_test,
    swap_test,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "GateApplication",
    "StateVector",
    "DensityMatrix",
    "TestVerdict",
    "MutantRecord",
    "ShotEstimate",
    "compose",
    "invert_circuit",
    "random_circuit",
    "fidelity",
    "parse_qasm",
    "emit_qasm",
    "parse_json",
    "emit_json",
    "estimate_shots",
    "estimate_shots_for_pair",
    "qcb_exponent",
    "statistical_test",
    "swap_test",
    "statevector_test",
    "inverse_test",
    "mutate_qgr",
    "mutate_qgd",
    "mutate_qgi",
    "mutate_rgi",
]
