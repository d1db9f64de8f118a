"""Contention-normalised timing.

On a shared machine the speed of one core changes by up to 2x within
seconds, as other tenants come and go, and CPU time rises with wall time, so
neither clock alone gives numbers that repeat.  A ``Speedometer`` runs a
fixed calibration kernel from a SIGALRM timer every ``INTERVAL_S`` seconds,
on the benchmark's own thread, while the program runs.  The kernel slows
down with the program, so a timed region converts to *reference seconds*:

    normalised = (elapsed - kernel time inside) * reference / kernel time

The kernel time is the mean of the samples taken inside the region, or
the latest sample for regions shorter than the interval.  About 0.5 % of
the time goes to the kernel, and that time is subtracted from the region.

Two kernels, each with its own reference time, match the two kinds of work:
``INTERPRETER`` (plain Python) for set-up, which is mostly imports and runs
before numpy is loaded, and ``NUMPY`` (a tiny gradient flow on small
arrays) for the operations, whose cost is numpy call overhead much like the
program's hot loop.  Raw times are reported next to the normalised ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

INTERVAL_S = 0.05


def _interpreter_kernel():
    """Fixed interpreter-bound work: integer arithmetic and dict stores."""
    acc, table = 0, {}
    for i in range(1500):
        acc = (acc * 31 + i) % 1000003
        table[i & 63] = acc
    return acc


def _numpy_kernel():
    """Fixed work shaped like the program's hot loop: ten explicit steps of
    a four-agent quadratic gradient flow (fancy indexing, einsum, add.at)."""
    import numpy as np

    tails, heads = np.array([0, 0, 1, 2]), np.array([1, 2, 2, 3])
    x = np.array([[12.0, 2.0], [-12.0, 2.0], [0.0, -2.0], [0.0, 9.28]])
    for _ in range(10):
        z = x[tails] - x[heads]
        f = (np.einsum("ij,ij->i", z, z) - 16.0)[:, None] * z
        u = np.zeros_like(x)
        np.subtract.at(u, tails, f)
        np.add.at(u, heads, f)
        x = x + 1e-4 * u
    return x


# kernel, and its time that defines one reference second
INTERPRETER = (_interpreter_kernel, 250e-6)
NUMPY = (_numpy_kernel, 250e-6)


class Speedometer:
    """Context manager that samples the kernel while the program runs."""

    def __init__(self, kind):
        self.kernel, self.reference = kind
        self.durations = array("d")
        self._previous = None

    def __enter__(self):
        for _ in range(3):
            self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        self.durations.append(time.perf_counter() - t0)

    def mark(self) -> int:
        return len(self.durations)

    def split(self, mark, elapsed) -> tuple[float, float]:
        """(raw, normalised) seconds of a region that started at ``mark``."""
        inside = self.durations[mark:]
        raw = elapsed - sum(inside)
        cal = sum(inside) / len(inside) if inside else self.durations[-1]
        return raw, raw * self.reference / cal

    def median(self) -> float:
        return statistics.median(self.durations)
