"""Host speed, from a fixed calibration loop timed between operations.

The host this benchmark was built on is shared: the same operation takes
up to twice as long when neighbours are busy, in phases that last from
seconds to minutes, and CPU time slows down with wall time.  The loop
below does the kinds of work gathersim does (small objects, attribute
access, dict updates, float math, sorting) without calling gathersim, so
its time moves with the host and never with a change to the package.

A 10 ms loop reads either fast or about 1.7 times slower: the host flips
between two speeds faster than an operation lasts.  The mean of many
samples therefore tracks the share of slow time, where a median would
jump between the two.  Timings are reported as host seconds multiplied by
REFERENCE_S / (mean loop time in the run): seconds on the reference host
at its quiet speed.
"""

from __future__ import annotations

import math
import statistics
import time

# Median loop time on the reference host (2-core VM, Python 3.11) in its
# quiet phases; only the ratio to it enters the reported figures.
REFERENCE_S = 0.008
# Host seconds of operations between two calibration samples.
SAMPLE_EVERY_S = 0.1


class _P:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _loop(n: int = 10_000) -> int:
    ring: list = [None] * 256
    totals: dict[int, float] = {}
    x = 0.1
    for i in range(n):
        p = _P(x, 1.0 - x)
        ring[i & 255] = p
        x = (x * 3.7 * (1.0 - x)) % 1.0 or 0.3
        k = i & 63
        totals[k] = totals.get(k, 0.0) + math.hypot(p.x - 0.5, p.y - 0.5)
        if i & 255 == 255:
            ring.sort(key=lambda q: (q.x, q.y))
    return len(totals)


class HostSpeed:
    """Calibration samples taken through a run."""

    def __init__(self):
        self.samples: list[float] = []
        self._since = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - t0)

    def after_op(self, seconds: float) -> None:
        """Account for an operation: one sample per SAMPLE_EVERY_S of
        operation time, so long operations weigh as much as many short
        ones."""
        self._since += seconds
        while self._since >= SAMPLE_EVERY_S:
            self.sample()
            self._since -= SAMPLE_EVERY_S

    def factor(self) -> float:
        """Multiply host seconds by this to get reference seconds."""
        return REFERENCE_S / statistics.fmean(self.samples)
