"""Machine-speed calibration for the timed metrics.

The host's speed drifts: the same exact computation runs up to ~1.5x slower
in spells that last from under a second to minutes (other tenants on shared
cores; no steal time shows).  Medians over many operations cannot remove a
drift that lasts a whole run.
So the loop also times a fixed reference computation right before and
right after every operation: an exact Fraction elimination of a fixed 12x12
integer matrix, written in this package (`linalg.rank_q`), so no change to
the program can move it.  An operation's calibrated time is its wall time
scaled by `NOMINAL_S / r`, where r is the mean of the two reference samples
that bracket it: the time it would have taken at the reference speed.  The
host switches between fast and slow states within a second, so a wider
window tracks the speed during the operation less well (see README.md).
"""

from __future__ import annotations

import bisect
import random
import statistics
from fractions import Fraction
from time import perf_counter

from linalg import rank_q

NEIGHBOURS = 2       # reference samples per local speed estimate
NOMINAL_S = 0.003    # the reference's time at the nominal speed

_rng = random.Random(20261018)
REFERENCE = [[Fraction(_rng.randint(-9, 9)) for _ in range(12)] for _ in range(12)]


class Calibration:
    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        rank_q(REFERENCE)
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)

    def scale(self, at: float) -> float:
        """NOMINAL_S over the local reference time around time `at`."""
        n = len(self.samples)
        k = min(NEIGHBOURS, n)
        lo = min(max(0, bisect.bisect(self.times, at) - k // 2), n - k)
        return NOMINAL_S / statistics.median(self.samples[lo:lo + k])


def calibrated_call(fn):
    """(result, wall seconds, calibrated seconds) of one call, scaled by the
    median of three reference samples just before and three just after it."""
    cal = Calibration()
    for _ in range(3):
        cal.sample()
    t0 = perf_counter()
    result = fn()
    t1 = perf_counter()
    for _ in range(3):
        cal.sample()
    return result, t1 - t0, (t1 - t0) * NOMINAL_S / statistics.median(cal.samples)
