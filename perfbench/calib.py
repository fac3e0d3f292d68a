"""Host-speed calibration for the end-to-end timings.

On a shared host the speed of one core changes with the load of its
neighbours.  On the 2-core Intel Xeon host this benchmark was written on, a
fixed piece of Python work took anywhere from 10 to 19 ms, in phases of one
to a few seconds that came and went for minutes, and the median of a 45 s
run of either workload moved by up to 50% from one run to the next.

The benchmark therefore runs a fixed kernel of its own in a window just
before and just after each timed request, outside the timed regions, and
scales the request's time by REFERENCE_S over the mean kernel time of the
two windows.  A timing then reads as it would on a host where the kernel
takes REFERENCE_S.  The kernel uses no qnspace code, so a change to qnspace
moves the scaled timings as much as the raw ones.  Like the work it
calibrates, it is pure Python on Fraction coefficients in dicts: a power of
a Laurent polynomial.

On that host the fast phases sped the kernel and every size of expr-dense
expression alike, by 1.6-1.7x.  Over 21 `qspace check` processes, whose
times ran from 4.6 to 7.2 s, each time over the mean of its two one-second
windows stayed within 13% of their median.  A window takes the mean kernel
time, not the median: the phases make kernel times bimodal, and the work
slows in proportion to the share of slow phases.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The kernel's usual time on the host named above, Python 3.11.7.
REFERENCE_S = 0.0165
# Window lengths: around each block of 15 expressions (about 1.3 s of work)
# and each set-up interpreter, and around each `qspace check` process (5 to
# 7 s).  A window much shorter than a phase samples one instant of it.
SHORT_S = 0.04
LONG_S = 2.0


def kernel() -> dict:
    """The fifth power of a fixed Laurent polynomial with 17 rational coefficients."""
    a = {k: Fraction(2 * k + 3, 7 + k % 5) for k in range(-8, 9)}
    p = {0: Fraction(1)}
    for _ in range(5):
        out: dict = {}
        for i, x in p.items():
            for j, y in a.items():
                out[i + j] = out.get(i + j, 0) + x * y
        p = out
    return p


def window(seconds: float) -> float:
    """The mean wall time of the kernel over runs lasting ``seconds`` in all.

    One untimed run comes first: in a fresh process the first run is up to
    twice as slow.
    """
    kernel()
    times = []
    end = time.perf_counter() + seconds
    while not times or times[-1][1] < end:
        start = time.perf_counter()
        kernel()
        times.append((start, time.perf_counter()))
    return statistics.fmean(stop - start for start, stop in times)


def factor(before: float, after: float) -> float:
    """What turns the raw time of work between two windows into a calibrated one."""
    return 2 * REFERENCE_S / (before + after)
