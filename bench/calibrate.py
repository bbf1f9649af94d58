"""Host-speed calibration: a fixed pure-Python kernel, timed between
items, by which item and set-up times are scaled to one host speed.

On a shared machine, other tenants slow this process's CPU by up to
1.6x, in phases that last from milliseconds to minutes (most likely a
sibling hyperthread busy or idle); over a run the share of slow phases
drifts, and with it every raw timing.  A slow phase slows the reference
kernel and the program alike, so an item's time times REF_MS over the
kernel's time around it reads about the same in fast and slow phases:
a change to the program moves it, a change of the host's load moves it
much less (item times follow the kernel's with a slope of 0.6 to 0.9).
The kernel runs no symsq code, and runs with the garbage collector off
so that the size of the program's heap does not reach it.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import time
from fractions import Fraction

REF_MS = 14.0       # a sample's time on the host the figures are scaled to
EVERY_S = 0.25      # item time between two samples
WINDOW = 8          # samples nearest an item that set its scale
REPEATS = 8         # kernel calls in one sample (about 14 ms)


def _kernel():
    """Big-int modular products, Fraction sums, dict updates and JSON:
    the operations the symsq layers spend their time in."""
    m, acc = 7**40, 1
    for i in range(1, 4000):
        acc = acc * (i | 1) % m
    total = sum(Fraction(1, i) for i in range(1, 150))
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    json.loads(json.dumps([str(x * x) for x in range(400)]))
    return acc, total, counts


def sample_s() -> float:
    """Seconds one calibration sample takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Calibration samples taken through a run, in time order."""

    def __init__(self):
        self.at: list[float] = []       # perf_counter() at each sample
        self.took: list[float] = []     # its duration, seconds

    def take(self, n: int = 1):
        for _ in range(n):
            self.at.append(time.perf_counter())
            self.took.append(sample_s())

    def scale(self, t: float) -> float:
        """Factor taking a time measured at `t` to the reference host:
        REF_MS over the median of the WINDOW samples nearest `t`."""
        j = bisect.bisect(self.at, t)
        lo = max(0, min(j - WINDOW // 2, len(self.took) - WINDOW))
        near = self.took[lo:lo + WINDOW]
        return REF_MS / 1e3 / statistics.median(near)
