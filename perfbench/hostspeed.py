"""Host-speed reference: a fixed kernel timed between requests.

On a shared two-vCPU host the same work takes up to 1.5-2x longer from one
minute to the next, and the host switches between fast and slow states
within seconds, so raw wall times of runs minutes apart do not compare.
A fixed kernel, timed about every 0.1 s between requests, tracks those
states: the mean kernel time within 0.2 s of a request's midpoint, divided
by ``NOMINAL_S``, is the host slowness at that request, and each request
time is divided by it.  The timing metrics of the loop are thus at nominal
host speed.  On recorded 25-second runs this cut the coefficient of
variation of requests per second from 7-10% to 2-3%.

The kernel mixes the two kinds of work the library spends its time on:
NumPy operations on a few hundred complex points (the Horner loop of the
dilogarithm series) and interpreted Python arithmetic.  It never calls
the library, so a change to the library cannot move it.

Process start-up drifts with the host too, but the kernel does not track
it (start-up is process creation, imports and file reads).  There the
reference is a second child process that only imports NumPy: the set-up
time over that reference start-up, times ``STARTUP_NOMINAL_S``, varied
by +-3.5% across 30-second windows where the raw set-up time varied by
+-17%.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

NOMINAL_S = 8.5e-4  # mean kernel time, shared 2-vCPU Xeon VM, Python 3.11
EVERY_S = 0.1       # least wall time between two kernel samples
# samples this close to a request set its slowness; slow spells last a few
# requests, and on three sets of ten seeded runs (two of sweep, one of
# points) a 0.2 s window gave a tail-latency spread of 4-7% where 0.5 s
# gave 6-10%
WINDOW_S = 0.2

STARTUP_REFERENCE = "import numpy; print('ready', flush=True)"
STARTUP_NOMINAL_S = 0.155  # its start-up time on the same VM, median

_Z = np.exp(2j * np.pi * np.arange(256) / 256) * np.linspace(0.1, 0.7, 256)


def kernel() -> float:
    acc = np.zeros_like(_Z)
    for n in range(150, 0, -1):
        acc = acc * _Z + 1.0 / (n * n)
    s = 0.0
    for i in range(3000):
        s += math.sqrt(i + 0.5)
    return float(acc.real.sum()) + s


class HostClock:
    """Kernel samples of one measured phase, as (midpoint, duration)."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self._next = 0.0

    def sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)
        return t1 - t0

    def tick(self) -> float:
        """Sample once EVERY_S has passed; returns the time spent."""
        now = time.perf_counter()
        if now < self._next:
            return 0.0
        dt = self.sample()
        self._next = now + dt + EVERY_S
        return dt

    def slowness_at(self, t: float) -> float:
        """Host slowness around perf_counter time t (nearest sample if
        none lies within WINDOW_S)."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if hi == lo:
            j = bisect.bisect_left(self.times, t)
            near = [k for k in (j - 1, j) if 0 <= k < len(self.times)]
            lo = min(near, key=lambda k: abs(self.times[k] - t))
            hi = lo + 1
        return statistics.fmean(self.durations[lo:hi]) / NOMINAL_S
