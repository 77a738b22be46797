"""Medians, percentiles and whether the sample supports them, spread."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A percentile is reported only when this many samples lie beyond it.
SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def supported(n: int, p: float) -> bool:
    """True when ``n`` samples leave at least ten beyond percentile p."""
    # 1e-9: 120 * (1 - 0.9) is 11.999999999999996 in floating point.
    return math.floor(n * (1.0 - p / 100.0) + 1e-9) >= SAMPLES_BEYOND


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile by nearest rank.  Whether the sample
    supports it is :func:`supported`'s to say."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return float(ordered[rank - 1])


def spread(values: Sequence[float]) -> Optional[float]:
    """Distance between the quartiles as a share of the median.

    The driver's own measure: ``statistics.quantiles(values, n=4)``.
    None when there are fewer than two values or the median is 0.
    """
    if len(values) < 2:
        return None
    mid = statistics.median(values)
    if mid == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs((q3 - q1) / mid)
