"""Scale measured times to a reference CPU speed.

The benchmark runs on shared 2-core virtual machines whose single-thread
speed switches between regimes about 1.45x apart, each lasting seconds to
tens of seconds.  Raw timings of identical work therefore spread by 15-50%
between runs, more than any useful regression bound.

A fixed pure-Python kernel (dict inserts, a set, a sort) is timed right
before each stretch of measured work; each measured time is multiplied by
``REFERENCE_NS / kernel time``, i.e. reported as the time the work would
have taken had the machine run the kernel in ``REFERENCE_NS``.  On the
reference host this cut the run-to-run spread of a 1,000-update dynamic
pass from ~15% to ~4%.  A slower library still reads slower: the kernel
does not touch it.  The raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: kernel time on the reference host (2-vCPU VM, Python 3.11, fast regime)
REFERENCE_NS = 340_000

#: re-time the kernel after this much measured work
PERIOD_NS = 50_000_000


def _kernel_ns() -> int:
    start = time.perf_counter_ns()
    table = {}
    for i in range(3000):
        table[i * 7 % 1009] = i
    acc = 0
    for key in sorted(set(table)):
        acc += table[key] & 3
    return time.perf_counter_ns() - start


def speed_factor() -> float:
    """``REFERENCE_NS`` over the kernel's current time (best of three)."""
    return REFERENCE_NS / min(_kernel_ns() for _ in range(3))


class ScaledClock:
    """Scales raw nanosecond intervals by the current speed factor,
    re-measured once per ``PERIOD_NS`` of measured time.  An interval
    longer than the period is scaled by the mean of the factors measured
    just before and just after it."""

    def __init__(self) -> None:
        self.factor = speed_factor()
        self.factors: List[float] = [self.factor]
        #: raw time spent timing the kernel between measurements
        self.overhead_ns = 0
        self._since = 0

    def scale(self, raw_ns: int) -> float:
        before = self.factor
        self._since += raw_ns
        if self._since < PERIOD_NS:
            return raw_ns * before
        self._since = 0
        start = time.perf_counter_ns()
        self.factor = speed_factor()
        self.overhead_ns += time.perf_counter_ns() - start
        self.factors.append(self.factor)
        if raw_ns >= PERIOD_NS:
            return raw_ns * (before + self.factor) / 2
        return raw_ns * before

    def mean_factor(self) -> float:
        return statistics.fmean(self.factors)
