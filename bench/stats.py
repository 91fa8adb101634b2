"""Percentiles and the tail-percentile rule.

A timing is reported as its median and its *tail*: the highest percentile
that still has at least ten samples beyond it.  A percentile with fewer
samples beyond it moves by a whole sample from run to run, so each
workload fixes its tail percentile up front and the run asserts the
sample count instead of picking a percentile from whatever it measured
(a floating choice would jump to a higher percentile when a faster
program fits more samples into the same seconds).
"""

from __future__ import annotations

import math
from typing import Sequence

#: the percentiles a workload may name as its tail, highest first
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def samples_beyond(pct: float, n: int) -> float:
    """How many of ``n`` samples lie above the ``pct`` percentile."""
    return n * (1.0 - pct / 100.0)


def min_samples(pct: float) -> int:
    """The smallest sample count that leaves ten samples beyond ``pct``."""
    # rounded first: 1 - 99.9/100 is not exactly 0.001 in binary
    return math.ceil(round(MIN_BEYOND / (1.0 - pct / 100.0), 6))


def check_tail(pct: float, n: int) -> None:
    """Raise unless ``n`` samples leave ten beyond the ``pct`` percentile."""
    if samples_beyond(pct, n) < MIN_BEYOND - 1e-9:
        raise ValueError(
            f"p{pct:g} needs at least {min_samples(pct)} samples "
            f"({MIN_BEYOND} beyond it), got {n}"
        )


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_name(pct: float) -> str:
    """``99.0`` -> ``"p99"``, ``99.9`` -> ``"p99.9"``."""
    return f"p{pct:g}"
