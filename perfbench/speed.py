"""Machine-speed normalisation.

On a shared CPU the same code runs at about 1x or 1.2-1.9x its quiet time
from one second to the next, on both cores at once, and CPU time moves with
wall time, so raw wall times spread by 20-45 % between runs.  Each run
samples the machine's speed with a fixed calibration slice and reports
every end-to-end time in reference seconds: a measured interval times
REFERENCE_SLICE_S over the median slice time around that interval.  One
reference second is about one second on a quiet machine.  Raw times are
kept in the run's output file.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

# about the time of one calibration slice on a quiet 2-vCPU machine with
# Python 3.11; only ratios to it matter, and both sides of a comparison use
# the same constant
REFERENCE_SLICE_S = 0.00012
SAMPLE_PERIOD_S = 0.01
WINDOW_S = 0.05
MIN_SAMPLES = 5

_MODULUS = 3 ** 2000 + 7
_START = 5 ** 1900


def calibration_slice() -> int:
    """Fixed work in the checker's mix: interpreter-bound small-integer,
    tuple and dict operations, then multi-thousand-bit modular products
    like those of the HNF.  The two slow down by different factors when
    the machine is busy (about 1.85x and 1.25x); the mix slows down about
    as much as the checker does."""
    x, d = 1, {}
    for i in range(280):
        x = (x * 1103515245 + 12345) % (1 << 61)
        d[i & 15] = (x, i)
    y = _START
    for _ in range(2):
        y = (y * y + x) % _MODULUS
    return y


def time_slices(n: int) -> List[float]:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        calibration_slice()
        out.append(time.perf_counter() - t0)
    return out


class SpeedSampler:
    """Runs a calibration slice every SAMPLE_PERIOD_S from SIGALRM.

    `spent` is the total time inside the handler, so callers can take it
    out of what they time; `clock_ns` does so for a clock.
    """

    def __init__(self):
        self.times: List[float] = []
        self.durations: List[float] = []
        self.spent = 0.0
        self._old = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        calibration_slice()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.durations.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def clock_ns(self) -> int:
        """`time.perf_counter_ns()` with the handler's time taken out."""
        return time.perf_counter_ns() - round(self.spent * 1e9)

    def slice_time(self, start: float, end: float) -> float:
        """Median slice time within WINDOW_S of [start, end], or of the
        MIN_SAMPLES samples nearest to it when the window holds fewer."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return statistics.median(self.durations[lo:hi])

    def reference(self, seconds: float, start: float, end: float) -> float:
        return seconds * REFERENCE_SLICE_S / self.slice_time(start, end)
