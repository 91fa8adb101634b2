"""Host speed: a fixed yardstick timed between the measured intervals.

The benchmark is sized for a 2-vCPU VM on a shared host, and that host
changes speed in steps — by up to a factor of two, for tens of seconds
to minutes at a time — while the VM's CPU time still reads as its own
(no steal time is reported).  Wall times taken a few minutes apart
therefore differ by more than any regression worth catching, and more
work per run does not average the steps out.

So every timed interval is bracketed by a *yardstick*: a fixed piece of
work that never changes with the program (plain Python, many NumPy
calls on small arrays and one sort of a large one, about equal in
time: the kinds of work the program does).  An interval is reported at
reference speed::

    reported = measured * REFERENCE_S / yardstick

where ``yardstick`` is the mean of the yardstick times just before and
just after the interval and ``REFERENCE_S`` is a constant, the
yardstick's time on the 2-vCPU VM while its host was quiet.  The result
keeps its unit and its magnitude (seconds on that reference host); only
the host's speed steps are divided out, as far as the yardstick slows
as the program does (``bench/README.md`` has the measured fit).  The
yardstick runs only between intervals, never inside one, so it never
competes with the program for the CPU.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Tuple

import numpy as np

clock = time.perf_counter

#: the yardstick's time on the 2-vCPU VM with a quiet host, in seconds;
#: a fixed unit, never re-measured, so reported numbers stay comparable
REFERENCE_S = 0.0065
#: yardstick repetitions per probe; the probe keeps their median, so an
#: interrupt during one repetition does not move it
REPS = 3

_SMALL = np.random.default_rng(7).random(2048)
_LARGE = np.random.default_rng(8).random(160_000)


def _interpreter() -> int:
    """Dicts, lists and integer arithmetic, as the program's glue runs them."""
    table = {}
    acc = 0
    for i in range(12000):
        key = (i * 7919) & 511
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 13
    items = sorted(table.items(), key=lambda kv: kv[1])
    return acc + items[0][0]


def _small_arrays() -> float:
    """Many NumPy calls on small arrays: per-call overhead dominates."""
    x = _SMALL
    total = 0.0
    for _ in range(15):
        order = np.argsort(x, kind="stable")
        c = np.cumsum(x[order])
        pos = np.searchsorted(c, c[-1] * 0.5)
        total += float(c[pos]) + float(np.maximum(x, 0.5).sum())
    return total


def _large_array() -> float:
    """One sort and a reduction over an array larger than the L2 cache."""
    y = np.sort(_LARGE * 1.000001)
    return float(y[len(y) // 2] + np.add.reduce(y * y))


def yardstick() -> float:
    """Seconds one pass of the fixed yardstick takes now."""
    t0 = clock()
    _interpreter()
    _small_arrays()
    _large_array()
    return clock() - t0


class HostSpeed:
    """Probes taken between intervals; intervals scaled to reference speed."""

    def __init__(self) -> None:
        #: (start, end, yardstick seconds) of every probe, in time order
        self.probes: List[Tuple[float, float, float]] = []

    def probe(self) -> float:
        """Time the yardstick now; return its seconds (median of ``REPS``)."""
        t0 = clock()
        seconds = statistics.median(yardstick() for _ in range(REPS))
        self.probes.append((t0, clock(), seconds))
        return seconds

    def factor(self, t0: float, t1: float) -> float:
        """``REFERENCE_S`` over the yardstick around the interval [t0, t1].

        The probes just before ``t0`` and just after ``t1`` must exist.
        """
        ends = [p[1] for p in self.probes]
        i = bisect.bisect_right(ends, t0) - 1
        starts = [p[0] for p in self.probes]
        j = bisect.bisect_left(starts, t1)
        if i < 0 or j >= len(self.probes):
            raise ValueError("interval is not bracketed by probes")
        return REFERENCE_S / (0.5 * (self.probes[i][2] + self.probes[j][2]))

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] in seconds at reference speed."""
        return (t1 - t0) * self.factor(t0, t1)

    def ratio(self) -> float:
        """Median yardstick over ``REFERENCE_S``: how slow the host ran."""
        return statistics.median(p[2] for p in self.probes) / REFERENCE_S

    def probing_s(self) -> float:
        """Wall seconds spent probing."""
        return sum(p[1] - p[0] for p in self.probes)
