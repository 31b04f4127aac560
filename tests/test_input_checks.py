"""The library's own input checks, each asserted with its message: the
constructors and helpers that the commands call with inputs they have already
checked."""

import numpy as np
import pytest

from qut.circuit import GateApplication, random_circuit
from qut.core import DensityMatrix, StateVector, fractional_power
from qut.jsonio import CircuitJsonError, circuit_from_dict
from qut.shots import ShotEstimate
from qut.testing import failure_probability, statistical_p_value

HALF = DensityMatrix(np.eye(2) / 2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: GateApplication("unitary", (0,), matrix=np.eye(4)),
     ValueError, "custom matrix shape does not match target count"),
    (lambda: StateVector(0, np.ones(1)), ValueError, "num_qubits must be >= 1"),
    (lambda: StateVector(2, np.ones(3) / np.sqrt(3)),
     ValueError, "expected 4 amplitudes, got 3"),
    (lambda: DensityMatrix(np.ones((2, 4)) / 2),
     ValueError, "entries must be a square 2^n x 2^n matrix"),
    (lambda: DensityMatrix(np.diag([1.5, -0.5])),
     ValueError, "density matrix must be positive semidefinite"),
    (lambda: fractional_power(HALF, 1.5), ValueError, "exponent must lie in [0, 1]"),
    (lambda: fractional_power(HALF, -0.1), ValueError, "exponent must lie in [0, 1]"),
    (lambda: ShotEstimate(0, 0.5, 0.05), ValueError, "shots must be >= 1"),
    (lambda: random_circuit(0, 3, seed=0),
     ValueError, "need num_qubits >= 1 and depth >= 1"),
    (lambda: random_circuit(2, 0, seed=0),
     ValueError, "need num_qubits >= 1 and depth >= 1"),
    (lambda: statistical_p_value(np.array([3, 4]), np.array([0.5, 0.5]), "t_test"),
     ValueError, "unknown statistical kind 't_test'"),
    # the kind is checked before the support rules decide: a count outside
    # the support, and a one-outcome support
    (lambda: statistical_p_value(np.array([0, 3]), np.array([1.0, 0.0]), "t_test"),
     ValueError, "unknown statistical kind 't_test'"),
    (lambda: statistical_p_value(np.array([3, 0]), np.array([1.0, 0.0]), "t_test"),
     ValueError, "unknown statistical kind 't_test'"),
    (lambda: failure_probability("chi2", 0.5),
     ValueError, "no per-shot law for test 'chi2'"),
    (lambda: circuit_from_dict([]),
     CircuitJsonError, "top-level JSON value must be an object"),
])
def test_bad_input_raises_its_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
