"""Order statistics with the sample-count rule the benchmark reports by.

A timing is reported as its median plus the highest percentile that still
has at least ``TAIL_MIN_BEYOND`` samples beyond it, capped at p99, with
the sample count beside it. Below 20 samples no percentile above the
median qualifies, so the tail falls back to the median.
"""

from __future__ import annotations

import math

TAIL_MIN_BEYOND = 10
TAIL_CAP = 0.99


def quantile(values, q: float) -> float:
    """Linearly interpolated quantile (numpy's default rule), 0 <= q <= 1."""
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def tail_level(n: int) -> float:
    """Highest quantile level with at least ten of ``n`` samples beyond it."""
    if n < 1:
        raise ValueError("need at least one sample")
    return max(0.5, min(TAIL_CAP, 1.0 - TAIL_MIN_BEYOND / n))


def summarize(values) -> dict:
    """Median, tail level, tail value and sample count of one timing."""
    level = tail_level(len(values))
    return {"median": median(values), "tail_level": level,
            "tail": quantile(values, level), "n": len(values)}
