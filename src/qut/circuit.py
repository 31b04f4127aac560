"""Circuit representation, inversion, composition, harness assembly, and
seeded random-circuit generation."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import gates
from .core import StateVector


@dataclass(frozen=True, init=False)
class GateApplication:
    """One gate acting on an ordered tuple of qubit indices."""

    kind: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __init__(self, kind: str, targets, params=(), matrix=None):
        # the one gate check: the kind, then the targets, then the arity and
        # parameters or the custom matrix.  Written as __init__ rather than
        # __post_init__ so that each field is set once.
        spec = gates.CATALOG.get(kind)
        if spec is None and kind != gates.CUSTOM:
            raise ValueError(f"unknown gate kind '{kind}'")
        targets = tuple(map(int, targets))
        params = tuple(map(float, params))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "params", params)
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate targets in {kind}: {targets}")
        if targets and min(targets) < 0:
            raise IndexError(f"gate {kind} targets {targets}: a "
                             "negative qubit index is out of range")
        if spec is not None:
            object.__setattr__(self, "matrix", matrix)
            if len(targets) != spec.arity:
                raise ValueError(
                    f"gate '{kind}' has arity {spec.arity}, got {len(targets)} targets"
                )
            if len(params) != spec.num_params:
                raise ValueError(f"gate '{kind}' takes {spec.num_params} parameter(s)")
            return
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (1 << len(targets), 1 << len(targets)):
            raise ValueError("custom matrix shape does not match target count")
        if not gates.is_unitary(m):
            raise ValueError("custom matrix is not unitary within 1e-10")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

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
            if g.targets and max(g.targets) >= self.num_qubits:
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
    order[a], copied once on entry so that `amplitudes` is never written.
    A gate whose matrix is a self-inverse 0/1 permutation (`gates.EXCHANGES`:
    x, cx, swap, ccx, cswap) exchanges, for each of its index pairs, the two
    2^(n-k)-amplitude sub-arrays those target values select, in place and
    with the axis order unchanged.  It selects them from a view in which each
    target axis stands alone between merged runs of the other axes, so each
    copy runs over at most k + 1 strides instead of up to n - k 2-wide
    dimensions; `_merged_exchange` works the view out per gate kind and
    target axes, and within one axis order it is looked up by the gate's
    kind and targets.  Every other gate is left-multiplied by its matrix on
    the (2^k, -1) block whose rows its targets index (most significant
    first).  When those targets already lead the axis order, as along a
    multiplexor whose rotations share one target, the block is a reshape of
    the state; otherwise the targets are transposed to the front and copied
    once to contiguous memory, and the new axis order is recorded instead of
    moving axes back.  A gate whose matrix is real (`gates.REAL`: h, z, ry,
    cz, cry) multiplies the block's float view, real and imaginary parts
    interleaved, by the matrix's real part: a real product with the complex
    one's bits, except that a real part that is exactly zero may read +0.0
    where the complex product gave -0.0.  A gate on the whole register
    (k == n) keeps the complex product, whose one-column block numpy
    multiplies as a matrix-vector product with other roundings.  The paths
    agree: each entry of a product with a 0/1 matrix is one amplitude times
    1 plus exact zeros, and the real product sums the complex one's terms
    less the exact zeros of the imaginary part.  One transpose restores the
    canonical order at the end.  Targets are assumed in range, as a
    `Circuit` checks, and parameter counts as a `GateApplication` does.
    """
    n = amplitudes.size.bit_length() - 1
    shape = (2,) * n
    psi = amplitudes.reshape(shape).copy()
    order = tuple(range(n - 1, -1, -1))
    exchanges: dict[tuple, tuple] = {}  # by (kind, targets), for this order
    EXCHANGES, CATALOG, REAL, CUSTOM = gates.EXCHANGES, gates.CATALOG, gates.REAL, gates.CUSTOM
    for g in gs:
        kind, targets = g.kind, g.targets
        if kind in EXCHANGES:
            exchange = exchanges.get((kind, targets))
            if exchange is None:
                exchange = exchanges[kind, targets] = _merged_exchange(
                    n, kind, tuple(map(order.index, targets)))
            runs, selections = exchange
            view = psi.reshape(runs) if len(runs) < n else psi  # else nothing merges
            for first, second in selections:
                a, b = view[first], view[second]
                held = a.copy()
                a[...] = b
                b[...] = held
            continue
        k = len(targets)
        m = g.matrix if kind == CUSTOM else CATALOG[kind].matrix_fn(*g.params)
        if order[0] == targets[0] if k == 1 else order[:k] == targets[::-1]:
            block = psi.reshape(1 << k, -1)
        else:
            front = [order.index(q) for q in reversed(targets)]
            perm = front + [a for a in range(n) if a not in front]
            block = np.ascontiguousarray(psi.transpose(perm)).reshape(1 << k, -1)
            order = tuple([order[a] for a in perm])
            exchanges = {}
        if kind in REAL and k < n:
            psi = (m.real @ block.view(float)).view(complex).reshape(shape)
        else:
            psi = (m @ block).reshape(shape)
    return psi.transpose([order.index(q) for q in range(n - 1, -1, -1)]).reshape(-1)


@functools.lru_cache(maxsize=4096)
def _merged_exchange(n: int, kind: str, axes: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The shape of the view of a (2,)*n state in which target j's axis
    axes[j] stands alone between merged runs of the other axes, and, for
    each index pair the permutation gate `kind` exchanges, the two indices
    into it selecting the sub-arrays where target j has the value of bit j
    of the pair's index.  The trailing Ellipsis keeps a full index a
    writable 0-d view instead of a scalar.  Both depend only on the
    arguments, so they are kept across calls."""
    runs: list[int] = []
    where = [0] * len(axes)  # the view axis of each target
    prev = -1
    for axis in sorted(axes):
        if axis > prev + 1:
            runs.append(1 << (axis - prev - 1))
        where[axes.index(axis)] = len(runs)
        runs.append(2)
        prev = axis
    if prev < n - 1:
        runs.append(1 << (n - 1 - prev))
    selections = []
    for i, j in gates.EXCHANGES[kind]:
        first = [slice(None)] * len(runs)
        second = first.copy()
        for t, w in enumerate(where):
            first[w] = (i >> t) & 1
            second[w] = (j >> t) & 1
        selections.append(((*first, Ellipsis), (*second, Ellipsis)))
    return tuple(runs), tuple(selections)


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
