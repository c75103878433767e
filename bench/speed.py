"""Host speed, sampled between operations, to put every time on one scale.

The benchmark runs on a few cores of a shared machine, and how fast those
cores run moves with the other tenants' load.  On the 2-core host this
package was written on, a fixed pure-Python loop took 7.5 ms (median of
5 s of repeats) and 10.1 ms a few seconds later, in CPU time as well as
wall time, and an operation's host time moved by about the same factor.
So the measured run times :func:`kernel` between operations, and each
time is multiplied by ``REFERENCE_S`` over the kernel's median time
around it: the time the work would have taken on a host that runs the
kernel in ``REFERENCE_S``.  The kernel is this package's own code, so a
change to ``repro`` moves the scaled times exactly as it moves the raw
ones.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from typing import Callable

__all__ = ["HostSpeed", "REFERENCE_S", "kernel"]

#: Kernel arithmetic rounds and table lookups.  Arithmetic alone slows
#: less than the fleet's requests when the neighbours contend for memory;
#: lookups alone slow more than its registrations.  With these counts,
#: lookups take a bit over half the kernel's time (see README.md).
ROUNDS = 15_000
LOOKUPS = 3_000
#: Dict of 2**18 int keys, far larger than a core's private caches.  It
#: holds only ints, so the garbage collector stops tracking it.
_TABLE = {key * 7919: key for key in range(1 << 18)}
#: Its keys in random order.  Each sample looks up the next ``LOOKUPS``
#: of them, so a sample finds none of its entries in cache even right
#: after another sample: every sample measures the same memory path,
#: whatever ran before it.
_ORDER = random.Random(0).sample(list(_TABLE), len(_TABLE))
PARTS = len(_ORDER) // LOOKUPS
#: Kernel time that defines the reference speed (the 2-core Xeon this
#: package was written on, at its faster setting).
REFERENCE_S = 0.0022
#: Least host time between two samples taken at operation ends.
INTERVAL_S = 0.1
#: Samples taken in a row before every set-up and round, and after the
#: last round.
BLOCK = 15
#: A time is scaled by the median of this many samples nearest to it.
NEAREST = 15


def kernel(part: int = 0) -> int:
    """Fixed interpreter work: small-int arithmetic, then part ``part`` of
    the dict lookups, in random order over a table beyond the private
    caches."""
    total = 0
    for i in range(ROUNDS):
        total += i * i % 7
    start = part % PARTS * LOOKUPS
    for key in _ORDER[start:start + LOOKUPS]:
        total += _TABLE[key]
    return total


class HostSpeed:
    """Kernel samples over one run, and the scale they give each interval."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Start and duration of each sample, in the order taken.
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._last = float("-inf")
        self._local: list[float] | None = None

    def sample(self, times: int = BLOCK) -> None:
        """Time the kernel ``times`` times in a row."""
        for _ in range(times):
            part = len(self.durations)
            start = self.clock()
            kernel(part)
            end = self.clock()
            self.starts.append(start)
            self.durations.append(end - start)
        self._last = end
        self._local = None

    def tick(self) -> None:
        """One sample, if ``INTERVAL_S`` has passed since the last."""
        if self.clock() - self._last >= INTERVAL_S:
            self.sample(1)

    def busy_s(self, start: float, end: float) -> float:
        """Host seconds spent sampling inside ``[start, end]``."""
        return sum(d for s, d in zip(self.starts, self.durations)
                   if start <= s and s + d <= end)

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the local kernel time at the interval's
        midpoint: the median of the ``NEAREST`` samples around it."""
        if self._local is None:
            window = min(NEAREST, len(self.durations))
            self._local = [
                statistics.median(self.durations[i:i + window])
                for i in range(len(self.durations) - window + 1)]
        last = len(self._local) - 1
        middle = bisect.bisect(self.starts, (start + end) / 2)
        first = min(max(middle - NEAREST // 2, 0), last)
        return REFERENCE_S / self._local[first]

    def factor(self) -> float:
        """Host speed over the whole run, relative to the reference."""
        return REFERENCE_S / statistics.median(self.durations)
