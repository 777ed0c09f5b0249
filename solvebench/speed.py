"""Interpreter-speed probe: converts measured wall seconds to reference seconds.

The benchmark runs on a core of a shared host, whose speed drifts by up to 2x
within a minute as other tenants load it. CPU time drifts with it (the host
slows the core rather than taking it away), so neither wall nor CPU seconds of
the same solve repeat from one run to the next.

While a timed call runs, a wall-clock timer interrupts it every ``INTERVAL_S``
and times ``kernel``, a fixed pure-Python loop over a NumPy array in the style
of the fallback kernels (scalar indexing, ``np.int64`` counters, short
branches). A call's cost in reference seconds is its wall time, less the time
spent in probes, times the mean over its probes of ``REFERENCE_KERNEL_S`` /
kernel time: each probe stands for an equal slice of wall time, and a slice
in which the kernel ran k times slower did 1/k of a reference slice's work.
The raw wall seconds stay available as ``wall``.
"""

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.005
# Median kernel time on an idle core of the 2-vCPU Intel Xeon VM the benchmark
# was written on, CPython 3.11.7 and NumPy 2.4; it only fixes the unit of
# reference seconds.
REFERENCE_KERNEL_S = 4.0e-05

_SYMBOLS = np.array([0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1,
                     0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1], dtype=np.int64)


def kernel() -> int:
    """The fixed work each probe times: odd palindrome radii of ``_SYMBOLS``."""
    sym = _SYMBOLS
    n = sym.size
    radius = np.empty(n, np.int64)
    ops = np.int64(0)
    left, right = 0, -1
    for i in range(n):
        k = 1 if i > right else min(radius[left + right - i], right - i + 1)
        while i - k >= 0 and i + k < n and sym[i - k] == sym[i + k]:
            k += 1
            ops += 1
        radius[i] = k
        ops += 2
        if i + k - 1 > right:
            left, right = i - k + 1, i + k - 1
    return int(ops)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedProbe:
    """Accumulates wall time and interpreter-speed samples over timed regions."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall = 0.0
        self.probe_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.probe_s += time.perf_counter() - t0

    @contextmanager
    def timing(self):
        """Time the body; probe the interpreter's speed before and during it."""
        self.samples.append(kernel_seconds())  # at least one sample per region
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.wall += time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)

    @property
    def factor(self) -> float:
        """Reference seconds per wall second of the timed work."""
        return statistics.fmean(REFERENCE_KERNEL_S / t for t in self.samples)

    def reference_seconds(self) -> float:
        """Wall seconds of all timed regions, less probe time, at reference speed."""
        return (self.wall - self.probe_s) * self.factor
