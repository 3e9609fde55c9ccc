"""Speed probe: a fixed reference kernel timed alongside the simulations.

On a shared host the speed of single-threaded code drifts between levels
for seconds at a time, and the drift moves wall times far more than the
program does. The benchmark therefore runs a small reference kernel, which
does not call gaspower, before set-up, after set-up and every
``PROBE_EVERY`` seconds between time steps. A span of the program is scaled
by ``REF_S[size] / local``, where ``local`` is the median kernel time of the
probes within ``WINDOW`` seconds of the span. The scaled time is the time the
span would take at the speed at which the kernel takes ``REF_S``. The kernel mixes
interpreter work, NumPy vector arithmetic and a small sparse LU solve, the
three kinds of work the simulations do.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# Median kernel time, by array size, at the faster of the two speed levels of
# the baseline machine (2-vCPU x86_64 virtual machine, Intel Xeon 2.0 GHz,
# Python 3.11, NumPy 2.4, SciPy 1.17, one BLAS thread).
REF_S = {500: 0.30e-3, 10000: 0.56e-3}
PROBE_EVERY = 0.02      # seconds of stepping between two probes
WINDOW = 0.1            # probes this close to a span set its speed
EDGE_PROBES = 3         # probes before set-up and after set-up or a run

_N = 400
_A = scipy.sparse.diags([-np.ones(_N - 1), 4.0 * np.ones(_N), -np.ones(_N - 1)],
                        [-1, 0, 1], format="csc")
_B = np.ones(_N)


def kernel(x: np.ndarray) -> float:
    """The reference work on ``x``; returns a checksum so that nothing is skipped."""
    s = 0.0
    for i in range(100):
        s += (i % 7) * 0.5
    y = x
    for _ in range(40):
        y = np.maximum(0.5 * y + 1.0, y)
    z = scipy.sparse.linalg.spsolve(_A, _B)
    return s + float(y[-1]) + float(z[0])


class SpeedProbe:
    """Timed kernel runs of one workload, and the scaling derived from them.

    ``size`` is the length of the kernel's arrays, one of the keys of
    ``REF_S``: the slow level slows small-array and large-array NumPy work
    by different factors, so the kernel works on arrays of the size the
    workload works on.
    """

    def __init__(self, size: int = 500):
        self.x = np.linspace(0.0, 1.0, size)
        self.ref_s = REF_S[size]
        self.times: list[float] = []     # midpoints, sorted
        self.durations: list[float] = []
        self.spent = 0.0                 # wall time spent in probes
        self.last = 0.0

    def probe(self, n: int = 1) -> None:
        """Time ``n`` kernel runs, each after an untimed one that warms the caches."""
        for _ in range(n):
            begin = time.perf_counter()
            kernel(self.x)
            start = time.perf_counter()
            kernel(self.x)
            end = time.perf_counter()
            self.times.append(0.5 * (start + end))
            self.durations.append(end - start)
            self.spent += end - begin
            self.last = end

    def maybe_probe(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """The reference time over the local kernel time around [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        if lo == hi:  # no probe in the window: take the nearest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            if (lo + 1 < len(self.times)
                    and abs(self.times[lo + 1] - end) < abs(self.times[lo] - start)):
                lo += 1
            hi = lo + 1
        return self.ref_s / statistics.median(self.durations[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.durations)
