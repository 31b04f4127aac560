"""Circuit representation, inversion, composition, harness assembly, and
seeded random-circuit generation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import gates
from .core import StateVector


class NonInvertibleGateError(ValueError):
    """Gate has no inverse within the catalog."""


@dataclass(frozen=True)
class GateApplication:
    """One gate acting on an ordered tuple of qubit indices."""

    kind: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate targets in {self.kind}: {self.targets}")
        if any(q < 0 for q in self.targets):
            raise IndexError(f"gate {self.kind} targets {self.targets}: a "
                             "negative qubit index is out of range")
        if self.kind == gates.CUSTOM:
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (1 << len(self.targets), 1 << len(self.targets)):
                raise ValueError("custom matrix shape does not match target count")
            if not gates.is_unitary(m):
                raise ValueError("custom matrix is not unitary within 1e-10")
            m = m.copy()
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)
        else:
            spec = gates.CATALOG.get(self.kind)
            if spec is None:
                raise ValueError(f"unknown gate kind '{self.kind}'")
            if len(self.targets) != spec.arity:
                raise ValueError(
                    f"gate '{self.kind}' has arity {spec.arity}, got {len(self.targets)} targets"
                )
            if len(self.params) != spec.num_params:
                raise ValueError(
                    f"gate '{self.kind}' takes {spec.num_params} parameter(s)"
                )

    def unitary(self) -> np.ndarray:
        if self.kind == gates.CUSTOM:
            return self.matrix
        return gates.gate_matrix(self.kind, self.params)

    def inverse(self) -> "GateApplication":
        if self.kind == gates.CUSTOM:
            return GateApplication(
                gates.CUSTOM, self.targets, (), self.matrix.conj().T
            )
        spec = gates.CATALOG[self.kind]
        params = tuple(s * p for s, p in zip(spec.param_signs, self.params))
        return GateApplication(spec.inverse_name, self.targets, params)

    def shifted(self, offset: int) -> "GateApplication":
        return GateApplication(
            self.kind, tuple(q + offset for q in self.targets), self.params, self.matrix
        )

    def structural_key(self):
        mat = None
        if self.matrix is not None:
            mat = tuple(map(tuple, self.matrix.round(15).tolist()))
        return (self.kind, self.targets, self.params, mat)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence over an n-qubit register."""

    num_qubits: int
    gates: tuple[GateApplication, ...] = ()
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        for g in self.gates:
            if any(q >= self.num_qubits for q in g.targets):
                raise IndexError(
                    f"gate {g.kind} targets {g.targets} exceed register of "
                    f"{self.num_qubits} qubits"
                )

    def __len__(self) -> int:
        return len(self.gates)

    def appended(self, *new_gates: GateApplication) -> "Circuit":
        return Circuit(self.num_qubits, self.gates + tuple(new_gates), self.name)

    def structural_key(self):
        return (self.num_qubits, tuple(g.structural_key() for g in self.gates))

    def structurally_equal(self, other: "Circuit") -> bool:
        return self.structural_key() == other.structural_key()


def apply_gate(state: StateVector, gate: GateApplication) -> StateVector:
    """Evolve `state` by one gate."""
    c = Circuit(state.num_qubits, (gate,))
    return StateVector(c.num_qubits, evolve(state.amplitudes, c.gates))


def evolve(amplitudes: np.ndarray, gs: Iterable[GateApplication]) -> np.ndarray:
    """Flat amplitudes (qubit 0 the least significant bit) after gates `gs`.

    The gate kernel: the state is one (2,)*n array whose axis a holds qubit
    order[a].  Each gate transposes its targets to the front (most
    significant first), reshapes to (2^k, -1), which copies once, and is
    left-multiplied by the gate's matrix; the new axis order is recorded
    instead of moving axes back.  One transpose restores the canonical order
    at the end.  Targets are assumed in range, as a `Circuit` checks.
    """
    n = amplitudes.size.bit_length() - 1
    shape = (2,) * n
    psi = amplitudes.reshape(shape)
    order = list(range(n - 1, -1, -1))
    for g in gs:
        front = [order.index(q) for q in reversed(g.targets)]
        perm = front + [a for a in range(n) if a not in front]
        block = psi.transpose(perm).reshape(1 << len(front), -1)
        psi = (g.unitary() @ block).reshape(shape)
        order = [order[a] for a in perm]
    return psi.transpose([order.index(q) for q in range(n - 1, -1, -1)]).reshape(-1)


def compose(*circuits: Circuit, name: str = "") -> Circuit:
    """Concatenate circuits on a shared register."""
    n = max(c.num_qubits for c in circuits)
    if any(c.num_qubits != n for c in circuits):
        raise ValueError("composed circuits must share a qubit count")
    gs: tuple[GateApplication, ...] = ()
    for c in circuits:
        gs += c.gates
    return Circuit(n, gs, name)


def invert_circuit(c: Circuit) -> Circuit:
    """Adjoint circuit: gate order reversed, each gate inverted."""
    return Circuit(
        c.num_qubits,
        tuple(g.inverse() for g in reversed(c.gates)),
        f"{c.name}_dg" if c.name else "",
    )


def build_swap_harness(prep_a: Circuit, prep_e: Circuit) -> Circuit:
    """Swap-test circuit: ancilla on qubit 0, the two preparations on qubits
    1..n and n+1..2n, and an H / n-cswap / H sandwich reading the ancilla."""
    if prep_a.num_qubits != prep_e.num_qubits:
        raise ValueError("swap harness requires equal qubit counts")
    n = prep_a.num_qubits
    body = [g.shifted(1) for g in prep_a.gates]
    body += [g.shifted(1 + n) for g in prep_e.gates]
    body.append(GateApplication("h", (0,)))
    body += [GateApplication("cswap", (0, i, n + i)) for i in range(1, n + 1)]
    body.append(GateApplication("h", (0,)))
    return Circuit(2 * n + 1, tuple(body), "swap_harness")


def build_inverse_harness(w: Circuit, u: Circuit, expected) -> Circuit:
    """Inverse-test circuit W.U.Z where Z undoes the expected preparation.

    `expected` is a Circuit preparing the expected state or a StateVector
    (synthesized to a preparation circuit first).
    """
    from .synth import synthesize_state_prep

    if expected.num_qubits != u.num_qubits or w.num_qubits != u.num_qubits:
        raise ValueError("inverse harness requires equal qubit counts")
    if isinstance(expected, StateVector):
        expected = synthesize_state_prep(expected)
    return compose(w, u, invert_circuit(expected), name="inverse_harness")


# Random-generator catalog: named gates only, grouped by arity.
_RANDOM_KINDS: dict[int, tuple[str, ...]] = {
    1: ("x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "p", "r"),
    2: ("cx", "cy", "cz", "swap", "crx", "cry", "crz", "cp"),
    3: ("ccx", "cswap"),
}


def random_circuit(num_qubits: int, depth: int, seed: int) -> Circuit:
    """Seeded layered random circuit.

    Each layer partitions the register into gates: every qubit is used by
    exactly one gate per layer, with gate arity at most min(n, 3) and
    parameters uniform in [0, 2*pi).
    """
    if num_qubits < 1 or depth < 1:
        raise ValueError("need num_qubits >= 1 and depth >= 1")
    rng = np.random.default_rng(seed)
    built: list[GateApplication] = []
    for _ in range(depth):
        free = list(rng.permutation(num_qubits))
        while free:
            max_arity = min(len(free), num_qubits, 3)
            arity = int(rng.integers(1, max_arity + 1))
            kinds = _RANDOM_KINDS[arity]
            kind = kinds[int(rng.integers(len(kinds)))]
            targets = tuple(int(free.pop()) for _ in range(arity))
            n_params = gates.CATALOG[kind].num_params
            params = tuple(float(t) for t in rng.uniform(0.0, 2 * np.pi, n_params))
            built.append(GateApplication(kind, targets, params))
    return Circuit(num_qubits, tuple(built), f"random_{num_qubits}q_d{depth}_s{seed}")
