"""Host-speed calibration.

On a shared machine the same computation runs up to 30% slower for minutes
at a time, because of other tenants.  The probe times a fixed kernel that
does not use hyperpoly (a pencil contraction, a small generalized symmetric
eigenproblem and some interpreter arithmetic, like the library's inner
loops) every CAL_INTERVAL_S during a run.  An operation's time is scaled by
REFERENCE_S / (the mean duration of the probes just before and after it),
which gives it at the reference speed: the speed at which the kernel takes
REFERENCE_S.  The host's speed changes from one second to the next, so the
probes next to an operation describe it better than any average over a run.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy import linalg as sla

# Seconds between probes inside a timed loop.
CAL_INTERVAL_S = 0.5
# The kernel's duration at the reference speed (about its median on the 2-core
# Xeon, Sapphire Rapids under KVM, the benchmark was written on).
REFERENCE_S = 0.016
_ITERATIONS = 200


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(12345)
        g = rng.standard_normal((20, 10, 10))
        self._pencil = g + g.transpose(0, 2, 1)
        self._points = rng.standard_normal((8, 20))
        h = rng.standard_normal((10, 10))
        self._spd = h @ h.T + 10.0 * np.eye(10)
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._kernel()  # finish lazy loading before the first timed probe

    def _kernel(self) -> float:
        total = 0.0
        for i in range(_ITERATIONS):
            m = np.tensordot(self._points[i % 8], self._pencil, axes=1)
            total += float(sla.eigh(m, self._spd, eigvals_only=True)[0])
            total += sum(k * k for k in range(40))
        return total

    def measure(self) -> None:
        start = time.perf_counter()
        self._kernel()
        self._starts.append(start)
        self._durations.append(time.perf_counter() - start)

    def due(self) -> bool:
        return not self._starts or time.perf_counter() - self._starts[-1] >= CAL_INTERVAL_S

    def factor_at(self, moment: float) -> float:
        """REFERENCE_S over the mean duration of the probes just before and after ``moment``."""
        i = bisect.bisect_right(self._starts, moment)
        return REFERENCE_S / statistics.fmean(self._durations[max(0, i - 1) : i + 1])

    def factor(self) -> float:
        """REFERENCE_S over the mean duration of every probe so far."""
        return REFERENCE_S / statistics.fmean(self._durations)
