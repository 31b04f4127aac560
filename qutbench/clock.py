"""Timing at a nominal machine speed.

The machines this benchmark runs on are shared: their speed drifts by up to
a quarter over a few seconds, so wall-clock rates of the same work spread by
9-22% between runs.  `Clock` samples the drift while work runs: a SIGALRM
handler runs a fixed calibration kernel every `INTERVAL` seconds, and a
timed section's duration is rescaled by NOMINAL / (mean kernel time during
the section), after removing the time the handler itself took.  The kernel
mixes interpreter work, small NumPy and LAPACK calls and a small statevector
sweep, like qut's own work; its time tracks qut's from one moment to the next
(correlation 0.8-0.95 per round), and the rescaled rates spread by 3-15%.
Raw wall-clock figures are kept too.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy import stats

INTERVAL = 0.08
# Seconds the kernel takes on a quiet 2-vCPU reference machine; a constant,
# so rescaled durations are comparable between commits and runs.
NOMINAL = 0.004
PROBES = 5

_RNG = np.random.default_rng(0)
_VECTOR = _RNG.random(4096)
_MATRIX = _RNG.random((16, 16))
_MATRIX = _MATRIX + _MATRIX.T
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_QUBITS = 10


def kernel() -> None:
    """Interpreter arithmetic, small containers, NumPy scans, small
    Hermitian eigensolves, one-qubit gates swept across a 10-qubit state and
    scalar chi-square tails.  Some parts slow down less than qut does when
    the machine is contended and some more; their sum tracks all four
    workloads."""
    s = 0
    for i in range(4000):
        s += i * i % 7
    table = {}
    for i in range(1000):
        table[str(i)] = (i, i * 0.5)
    sorted(table)
    for _ in range(30):
        c = np.cumsum(_VECTOR)
        np.searchsorted(c, _VECTOR[:64] * c[-1])
    for _ in range(12):
        np.linalg.eigh(_MATRIX)
    state = np.zeros(1 << _QUBITS, dtype=complex)
    state[0] = 1.0
    for i in range(30):
        psi = np.moveaxis(state.reshape((2,) * _QUBITS), i % _QUBITS, 0)
        psi = (_HADAMARD @ psi.reshape(2, -1)).reshape(psi.shape)
        state = np.moveaxis(psi, 0, i % _QUBITS).reshape(-1).copy()
        np.linalg.norm(state)
        np.isfinite(state).all()
    for _ in range(10):
        stats.chi2.sf(3.0, 2)


def kernel_time() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Clock:
    """Accumulates wall time and nominal time over timed sections."""

    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0
        self.sections: list[tuple[float, float]] = []  # (wall, nominal) seconds
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel_time())
        self.handler_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn, *args):
        """Run fn(*args); add its wall and nominal durations; return its result."""
        n0, h0 = len(self.samples), self.handler_s
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0 - (self.handler_s - h0)
        # a section shorter than INTERVAL may hold no sample: use the latest ones
        window = self.samples[n0:] or self.samples[-3:] or [kernel_time()]
        self.sections.append((wall, wall * NOMINAL / statistics.fmean(window)))
        return result

    @property
    def wall_s(self) -> float:
        return sum(w for w, _ in self.sections)

    @property
    def nominal_s(self) -> float:
        return sum(n for _, n in self.sections)


def nominal_duration(fn) -> float:
    """Nominal duration of fn() for work the handler cannot sample, such
    as a child process: the kernel runs PROBES times before and after, and
    the median of those runs gives the speed."""
    before = [kernel_time() for _ in range(PROBES)]
    t0 = time.perf_counter()
    fn()
    wall = time.perf_counter() - t0
    after = [kernel_time() for _ in range(PROBES)]
    return wall * NOMINAL / statistics.median(before + after)
