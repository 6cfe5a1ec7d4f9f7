"""Host-speed calibration for the benchmark's timings.

On a shared VM the host's speed drifts: one fixed piece of pure-Python
work runs at 1.0x to 1.8x its fastest time, in phases that last from a
fraction of a second to many minutes.  Raw wall times then move by more
than any useful bound between two sets of runs of the same code.

So the benchmark runs a fixed calibration kernel between every two timed
invocations, and reports each invocation's time divided by the median of
the kernel times nearest to it, times :data:`REFERENCE_S`.  A value is
then the time at the speed of the reference host, the one on which the
kernel's median was :data:`REFERENCE_S`.  The kernel is exact rational
arithmetic, like the program's own work, and uses nothing of torsionforge,
so no change to the program moves it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# Median seconds of one kernel() on the reference host: a shared 2-vCPU
# x86_64 VM running CPython 3.11.
REFERENCE_S = 0.55e-3

# Kernel runs in each gap between two timed steps.
GAP_SAMPLES = 3

_A = tuple(Fraction(7 * i + 1, i + 3) for i in range(12))
_B = tuple(Fraction(2 * i - 5, 3 * i + 1) for i in range(12))


def kernel() -> list:
    """A fixed schoolbook product of two rational polynomials."""
    out = [Fraction(0)] * (len(_A) + len(_B) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            out[i + j] += x * y
    return out


def gap() -> list[float]:
    """Seconds taken by each of GAP_SAMPLES kernel() runs."""
    times = []
    for _ in range(GAP_SAMPLES):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return times


def speed_factors(gaps: list[list[float]], count: int) -> list[float]:
    """Factor that brings each of ``count`` timed steps to reference speed.

    ``gaps[k]`` holds the kernel times taken just before step k and
    ``gaps[k + 1]`` those just after it, so there are ``count + 1`` gaps.
    Step k's factor is REFERENCE_S over the median of both gaps' times.
    """
    if len(gaps) != count + 1:
        raise ValueError("%d gaps for %d steps" % (len(gaps), count))
    return [factor(gaps[k] + gaps[k + 1]) for k in range(count)]


def factor(times: list[float]) -> float:
    """REFERENCE_S over the median of some kernel times."""
    return REFERENCE_S / statistics.median(times)
