import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qut import gates


def test_catalog_matrices_unitary():
    for name, spec in gates.CATALOG.items():
        params = tuple(0.3 + 0.1 * i for i in range(spec.num_params))
        m = gates.gate_matrix(name, params)
        assert gates.is_unitary(m), name
        assert m.shape == (2 ** spec.arity, 2 ** spec.arity)


def test_every_gate_has_catalog_inverse():
    for name, spec in gates.CATALOG.items():
        assert spec.inverse_name in gates.CATALOG, name
        params = tuple(0.5 for _ in range(spec.num_params))
        inv_spec = gates.CATALOG[spec.inverse_name]
        inv_params = tuple(s * p for s, p in zip(inv_spec.param_signs, params))
        prod = gates.gate_matrix(spec.inverse_name, inv_params) @ \
            gates.gate_matrix(name, params)
        np.testing.assert_allclose(prod, np.eye(prod.shape[0]), atol=1e-10)


def test_r_gate_inverse_negates_theta_only():
    spec = gates.CATALOG["r"]
    assert spec.inverse_name == "r"
    assert spec.param_signs == (-1.0, 1.0)


def test_s_inverse_is_sdg():
    assert gates.CATALOG["s"].inverse_name == "sdg"
    assert gates.CATALOG["t"].inverse_name == "tdg"


def test_hadamard_entries():
    m = gates.gate_matrix("h", ())
    inv = 1 / math.sqrt(2)
    np.testing.assert_allclose(m, [[inv, inv], [inv, -inv]], atol=1e-15)


def test_controlled_builder_cx():
    cx = gates.controlled(gates.gate_matrix("x", ()), 1)
    np.testing.assert_array_equal(
        cx, gates.gate_matrix("cx", ())
    )


def test_ccx_structure():
    m = gates.gate_matrix("ccx", ())
    # acts only when both low (control) bits are set
    assert m[3, 7] == 1 and m[7, 3] == 1
    diag = np.diag(m)
    assert diag[3] == 0 and diag[7] == 0
    assert all(diag[i] == 1 for i in range(8) if i not in (3, 7))


def test_r_gate_matches_definition():
    theta, phi = 0.7, 1.2
    m = gates.gate_matrix("r", (theta, phi))
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
                gates.gate_matrix(name)[0, 0] = 5
    np.testing.assert_array_equal(gates.gate_matrix("x"), [[0, 1], [1, 0]])


def test_unknown_gate_rejected():
    with pytest.raises(KeyError):
        gates.gate_matrix("nope", ())


def test_is_unitary_rejects_defect():
    assert not gates.is_unitary(np.array([[1, 0], [0, 0.999]], dtype=complex))


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
        name for name in fixed if is_permutation(gates.gate_matrix(name))}
    for name, pairs in gates.EXCHANGES.items():
        m = gates.gate_matrix(name)
        rebuilt = np.eye(len(m), dtype=complex)
        for i, j in pairs:
            rebuilt[[i, j]] = rebuilt[[j, i]]
        assert np.array_equal(rebuilt, m), name
    assert gates.EXCHANGES == {
        "id": (), "x": ((0, 1),), "cx": ((1, 3),), "swap": ((1, 2),),
        "ccx": ((3, 7),), "cswap": ((3, 5),)}


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
        assert gates.gate_matrix(kind, (theta,)).tobytes() == \
            _rotation_reference(kind, theta).tobytes(), kind
    for phi in phis:
        assert gates.gate_matrix("r", (theta, phi)).tobytes() == \
            _rotation_reference("r", theta, phi).tobytes(), phi
    for kind in ("crx", "cry", "crz", "cp"):
        assert gates.gate_matrix(kind, (theta,)).tobytes() == \
            _controlled_loop(_rotation_reference(kind[1:], theta)).tobytes(), kind


@pytest.mark.parametrize("theta", [0.0, -0.0, 0.3, -0.3, math.pi, -2 * math.pi, 7.5, 1e-300,
                                   -1e300])
def test_rotation_and_controlled_matrices_keep_every_bit(theta):
    _assert_rotations_keep_every_bit(theta, (0.0, -0.0, 1.2, -2.5))
    base = gates.gate_matrix("rx", (theta,))
    assert gates.controlled(base, 2).tobytes() == _controlled_loop(base, 2).tobytes()
    swap = gates.gate_matrix("swap")
    assert gates.controlled(swap, 1).tobytes() == _controlled_loop(swap, 1).tobytes()


# every finite angle, with magnitudes from subnormal to the largest float
_ANGLES = st.floats(allow_nan=False, allow_infinity=False)


@given(theta=_ANGLES, phi=_ANGLES)
def test_rotation_matrices_match_the_np_exp_builders_at_any_angle(theta, phi):
    _assert_rotations_keep_every_bit(theta, (phi,))
