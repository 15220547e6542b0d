"""Host-speed calibration: a fixed kernel timed between library calls.

The benchmark host is a shared VM whose speed drifts by up to 2x for
minutes at a time, in the same way for the library and for any other
code.  A run therefore times this kernel before every library call and
rescales each call to a nominal host, one on which the kernel takes
NOMINAL_S:

    nominal call seconds = call seconds * NOMINAL_S / kernel seconds nearby

The kernel uses no ppxfer code, so no change to the library moves it.  It
is an interpreter loop and Gaussian elimination on 4 x 4 complex blocks
with small numpy operations, as the det/perm kernels do.  Of the parts
tried (also eigh, LAPACK det, Givens rotations on a 384 x 384 matrix, an
exp pass over 1 MB of phases) these two left the least spread in
rescaled call times of every workload over a 4-minute trace.  It calls
no LAPACK routine and no numpy.random, so it maps no library code that a
workload would not load, and it adds little to the peak RSS.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.010        # about the kernel's time on the 2-core Xeon VM it was sized on
TICK_SAMPLES = 3         # kernel runs per tick
WINDOW_S = 2.0           # samples this close to a call describe its host speed

_BLOCKS = np.exp(0.7j * np.arange(160 * 16).reshape(160, 4, 4)) + 3.0 * np.eye(4)


def kernel() -> float:
    total = 0
    for i in range(40_000):
        total += (i * i) % 7
    for block in _BLOCKS:
        a = block.copy()
        det = 1.0 + 0.0j
        for k in range(4):
            det *= a[k, k]
            a[k + 1:] -= np.outer(a[k + 1:, k] / a[k, k], a[k])
        total += abs(det)
    return total


def sample() -> tuple:
    """(midpoint, seconds) of one timed kernel run."""
    start = time.perf_counter()
    kernel()
    end = time.perf_counter()
    return 0.5 * (start + end), end - start


def steady(samples: int = 5) -> float:
    """Median kernel time over `samples` runs after one untimed run."""
    kernel()
    return statistics.median(sample()[1] for _ in range(samples))


class HostClock:
    """Kernel samples taken between calls, and the calls they rescale."""

    def __init__(self):
        self.samples = []   # (midpoint, seconds), in time order
        self.calls = []     # (start, seconds), in time order

    def tick(self) -> None:
        for _ in range(TICK_SAMPLES):
            self.samples.append(sample())

    def kernel_seconds(self, start: float, end: float) -> float:
        """Median kernel time within WINDOW_S of [start, end].

        A tick comes just before every call and after the last one, so
        the window always holds the two samples around the call.
        """
        return statistics.median(s for mid, s in self.samples
                                 if start - WINDOW_S <= mid <= end + WINDOW_S)

    def nominal(self, start: float, seconds: float) -> float:
        return seconds * NOMINAL_S / self.kernel_seconds(start, start + seconds)
