"""Machine-speed correction for op and set-up times.

On a shared host the speed of this process drifts by up to a factor of
two, from one second to the next as well as over minutes, and all
pure-Python work slows down together.  A `SpeedClock` times a fixed
pure-Python probe between ops (never inside an op timer) and scales each
op's wall time by how fast the probes next to it ran:

    scaled = wall * PROBE_NOMINAL_S / mean(the probe just before, the probe just after)

so a scaled time is the op's time on a machine where the probe takes
PROBE_NOMINAL_S.  The probe uses no part of decomp_lab, so a change to
the library moves the scaled times as much as the wall times.  The probes
right next to an op track its slowdown much better than probes further
away: the speed changes within a second.
"""

from __future__ import annotations

import statistics
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

PROBE_NOMINAL_S = 0.001  # about the probe's time on an idle 2-CPU Xeon VM
PROBE_EVERY_S = 0.025  # least time between two probes in the op loop
BURST = 5  # probes taken at once around a set-up, whose median scales it


def probe() -> int:
    """Fixed dict and integer work with no garbage-collected allocations."""
    table: dict = {}
    acc = 0
    for i in range(5000):
        k = (i * 2654435761) & 1023
        table[k] = table.get(k, 0) + i
        acc ^= k
    return acc


class SpeedClock:
    def __init__(self) -> None:
        self.mid = array("d")  # midpoint of each probe, perf_counter seconds
        self.took = array("d")  # its duration
        self.last = float("-inf")

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = perf_counter()
            probe()
            t1 = perf_counter()
            self.mid.append((t0 + t1) / 2)
            self.took.append(t1 - t0)
        self.last = perf_counter()

    def maybe_sample(self) -> None:
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """PROBE_NOMINAL_S over the mean of the probes just before `start`
        and just after `end`."""
        lo = bisect_left(self.mid, start)
        hi = bisect_right(self.mid, end)
        near = self.took[max(0, lo - 1):lo] + self.took[hi:hi + 1]
        return PROBE_NOMINAL_S / statistics.fmean(near or self.took)

    def median_probe_s(self) -> float:
        return statistics.median(self.took)
