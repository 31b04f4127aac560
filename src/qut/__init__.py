"""qut: unit tests for quantum programs on a noise-free simulator.

Four test families (statistical goodness-of-fit, swap, statevector, inverse)
plus Chernoff-bound shot planning, mutation operators for benchmarking, and a
small OpenQASM 2 / JSON circuit front end.

The names below are imported from their modules on first access (PEP 562),
so importing one module, such as `qut.cli`, loads only what that module uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "circuit": ("Circuit", "GateApplication", "compose", "invert_circuit", "random_circuit"),
    "core": ("StateVector", "DensityMatrix", "fidelity"),
    "mutation": ("MutantRecord", "mutate_qgd", "mutate_qgi", "mutate_qgr", "mutate_rgi"),
    "qasm": ("parse_qasm", "emit_qasm"),
    "jsonio": ("parse_json", "emit_json"),
    "shots": ("ShotEstimate", "estimate_shots", "estimate_shots_for_pair", "qcb_exponent"),
    "testing": ("TestVerdict", "inverse_test", "statevector_test", "statistical_test",
                "swap_test"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
