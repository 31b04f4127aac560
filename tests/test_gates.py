import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qut import gates
from qut.circuit import GateApplication

from oracles import inverse_gate


def test_catalog_matrices_unitary():
    for name, spec in gates.CATALOG.items():
        params = tuple(0.3 + 0.1 * i for i in range(spec.num_params))
        m = spec.matrix_fn(*params)
        assert gates.unitarity_defect(m) <= gates.UNITARY_ATOL, name
        assert m.shape == (2 ** spec.arity, 2 ** spec.arity)


def test_every_gate_has_catalog_inverse():
    # the oracle's inversion rule, checked against the matrices: every catalog
    # kind at generic parameters inverts to a catalog kind, and a random custom
    # two-qubit unitary to its adjoint
    rng = np.random.default_rng(19)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    applications = [GateApplication(gates.CUSTOM, (1, 0), matrix=q)] + [
        GateApplication(name, range(spec.arity), [0.7 + 0.4 * i for i in range(spec.num_params)])
        for name, spec in gates.CATALOG.items()]
    for g in applications:
        inv = inverse_gate(g)
        assert inv.kind == g.kind or inv.kind in gates.CATALOG, g.kind
        prod = inv.unitary() @ g.unitary()
        np.testing.assert_allclose(prod, np.eye(len(prod)), rtol=0, atol=1e-10, err_msg=g.kind)


def test_r_gate_inverse_negates_theta_only():
    inv = inverse_gate(GateApplication("r", (0,), [0.5, 1.25]))
    assert inv.kind == "r"
    assert inv.params == (-0.5, 1.25)


def test_s_inverse_is_sdg():
    assert inverse_gate(GateApplication("s", (0,))).kind == "sdg"
    assert inverse_gate(GateApplication("t", (0,))).kind == "tdg"


def test_hadamard_entries():
    m = gates.CATALOG["h"].matrix_fn()
    inv = 1 / math.sqrt(2)
    np.testing.assert_allclose(m, [[inv, inv], [inv, -inv]], atol=1e-15)


def test_controlled_builder_cx():
    cx = gates.controlled(gates.CATALOG["x"].matrix_fn(), 1)
    np.testing.assert_array_equal(cx, gates.CATALOG["cx"].matrix_fn())


def test_ccx_structure():
    m = gates.CATALOG["ccx"].matrix_fn()
    # acts only when both low (control) bits are set
    assert m[3, 7] == 1 and m[7, 3] == 1
    diag = np.diag(m)
    assert diag[3] == 0 and diag[7] == 0
    assert all(diag[i] == 1 for i in range(8) if i not in (3, 7))


def test_r_gate_matches_definition():
    theta, phi = 0.7, 1.2
    m = gates.CATALOG["r"].matrix_fn(theta, phi)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    from scipy.linalg import expm
    expected = expm(-1j * theta / 2 * (math.cos(phi) * x + math.sin(phi) * y))
    np.testing.assert_allclose(m, expected, atol=1e-12)


def test_equivalence_classes_share_signature():
    for cls in gates.EQUIVALENCE_CLASSES:
        arities = {gates.CATALOG[k].arity for k in cls}
        nparams = {gates.CATALOG[k].num_params for k in cls}
        assert len(arities) == 1 and len(nparams) == 1


def test_equivalence_classes_are_the_catalog_signature_groups():
    # computed from the catalog, one class per (arity, parameter count) in
    # catalog order; the QGR and QGI mutant sets depend on these classes
    assert gates.EQUIVALENCE_CLASSES == (
        frozenset({"id", "x", "y", "z", "h", "s", "sdg", "t", "tdg"}),
        frozenset({"rx", "ry", "rz", "p"}),
        frozenset({"r"}),
        frozenset({"cx", "cy", "cz", "swap"}),
        frozenset({"crx", "cry", "crz", "cp"}),
        frozenset({"ccx", "cswap"}),
    )
    assert all(gates.equivalence_class(name) for name in gates.CATALOG)


def test_equivalence_class_lookup():
    assert set(gates.equivalence_class("h")) == {
        "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg"}
    assert set(gates.equivalence_class("cx")) == {"cx", "cy", "cz", "swap"}
    assert set(gates.equivalence_class("r")) == {"r"}
    assert set(gates.equivalence_class("ccx")) == {"ccx", "cswap"}
    assert set(gates.equivalence_class("crx")) == {"crx", "cry", "crz", "cp"}


def test_fixed_catalog_matrices_are_read_only():
    # every application of a fixed gate shares one matrix
    for name, spec in gates.CATALOG.items():
        if spec.num_params == 0:
            with pytest.raises(ValueError):
                spec.matrix_fn()[0, 0] = 5
    np.testing.assert_array_equal(gates.CATALOG["x"].matrix_fn(), [[0, 1], [1, 0]])


def test_unknown_gate_rejected():
    assert "nope" not in gates.CATALOG
    with pytest.raises(ValueError, match="unknown gate kind 'nope'"):
        GateApplication("nope", (0,))


def test_is_unitary_rejects_defect():
    # a custom gate is unitary when its defect is at most UNITARY_ATOL; a
    # matrix with a nan entry has a nan defect and is not
    for m in ([[1, 0], [0, 0.999]], [[1, 0], [0, np.nan]]):
        with pytest.raises(ValueError, match="not unitary within 1e-10"):
            GateApplication(gates.CUSTOM, (0,), matrix=np.array(m, dtype=complex))


def test_is_unitary_compares_the_defect_with_atol_alone():
    # diag(1 + 1e-6, 1) has defect (1 + 1e-6)^2 - 1; np.allclose's default
    # rtol of 1e-5 used to accept it on the diagonal
    m = np.diag([1 + 1e-6, 1]).astype(complex)
    assert gates.unitarity_defect(m) == pytest.approx(2e-6 + 1e-12, rel=1e-9)
    assert gates.UNITARY_ATOL == 1e-10
    within = np.diag([1 + 4e-11, 1]).astype(complex)
    assert gates.unitarity_defect(within) <= gates.UNITARY_ATOL < gates.unitarity_defect(m)
    GateApplication(gates.CUSTOM, (0,), matrix=within)
    with pytest.raises(ValueError, match="not unitary"):
        GateApplication(gates.CUSTOM, (0,), matrix=m)


def test_exchange_pairs_rebuild_exactly_the_permutation_gates():
    # `circuit.evolve` exchanges amplitudes in place for the kinds in
    # EXCHANGES, so a kind there must be a fixed 0/1 permutation, and every
    # such catalog kind must be there: one that is not its own inverse has
    # no exchange pairs and fails here until the kernel learns to cycle
    def is_permutation(m):
        return (np.isin(m, (0, 1)).all() and (m.sum(axis=0) == 1).all()
                and (m.sum(axis=1) == 1).all())

    fixed = [name for name, spec in gates.CATALOG.items() if spec.num_params == 0]
    assert set(gates.EXCHANGES) == {
        name for name in fixed if is_permutation(gates.CATALOG[name].matrix_fn())}
    for name, pairs in gates.EXCHANGES.items():
        m = gates.CATALOG[name].matrix_fn()
        rebuilt = np.eye(len(m), dtype=complex)
        for i, j in pairs:
            rebuilt[[i, j]] = rebuilt[[j, i]]
        assert np.array_equal(rebuilt, m), name
    assert gates.EXCHANGES == {
        "id": (), "x": ((0, 1),), "cx": ((1, 3),), "swap": ((1, 2),),
        "ccx": ((3, 7),), "cswap": ((3, 5),)}


@pytest.mark.parametrize("theta", [0.0, 0.3, -1.7, math.pi, 5.0])
def test_real_kinds_are_the_non_exchanges_with_real_matrices(theta):
    # `circuit.evolve` multiplies the state's float view by the real part of
    # these kinds' matrices, so none may have an imaginary part at any angle
    assert gates.REAL == {"h", "z", "ry", "cz", "cry"}
    assert gates.REAL.isdisjoint(gates.EXCHANGES)
    for name in gates.REAL:
        spec = gates.CATALOG[name]
        assert not spec.matrix_fn(*(theta,) * spec.num_params).imag.any(), name


def _controlled_loop(base, num_controls=1):
    """Reference: `gates.controlled` entry by entry."""
    k = base.shape[0]
    mask = (1 << num_controls) - 1
    out = np.eye(k << num_controls, dtype=complex)
    for i in range(k):
        for j in range(k):
            out[(i << num_controls) | mask, (j << num_controls) | mask] = base[i, j]
    return out


def _rotation_reference(kind, theta, phi=0.0):
    """Reference: the rotation matrices written as nested lists, the phases
    from numpy's scalar `np.exp`."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "rz":
        return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex)
    if kind == "p":
        return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)
    return np.array([[c, -1j * s * np.exp(-1j * phi)], [-1j * s * np.exp(1j * phi), c]],
                    dtype=complex)


def _assert_rotations_keep_every_bit(theta, phis):
    # signed zeros included: tobytes compares them, array_equal would not
    for kind in ("rx", "ry", "rz", "p"):
        assert gates.CATALOG[kind].matrix_fn(theta).tobytes() == \
            _rotation_reference(kind, theta).tobytes(), kind
    for phi in phis:
        assert gates.CATALOG["r"].matrix_fn(theta, phi).tobytes() == \
            _rotation_reference("r", theta, phi).tobytes(), phi
    for kind in ("crx", "cry", "crz", "cp"):
        assert gates.CATALOG[kind].matrix_fn(theta).tobytes() == \
            _controlled_loop(_rotation_reference(kind[1:], theta)).tobytes(), kind


@pytest.mark.parametrize("theta", [0.0, -0.0, 0.3, -0.3, math.pi, -2 * math.pi, 7.5, 1e-300,
                                   -1e300])
def test_rotation_and_controlled_matrices_keep_every_bit(theta):
    _assert_rotations_keep_every_bit(theta, (0.0, -0.0, 1.2, -2.5))
    base = gates.CATALOG["rx"].matrix_fn(theta)
    assert gates.controlled(base, 2).tobytes() == _controlled_loop(base, 2).tobytes()
    swap = gates.CATALOG["swap"].matrix_fn()
    assert gates.controlled(swap, 1).tobytes() == _controlled_loop(swap, 1).tobytes()


# every finite angle, with magnitudes from subnormal to the largest float
_ANGLES = st.floats(allow_nan=False, allow_infinity=False)


@given(theta=_ANGLES, phi=_ANGLES)
def test_rotation_matrices_match_the_np_exp_builders_at_any_angle(theta, phi):
    _assert_rotations_keep_every_bit(theta, (phi,))
