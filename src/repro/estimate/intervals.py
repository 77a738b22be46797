"""Confidence intervals and error summaries from bootstrap replicas.

G-OLA reports, with every refined answer, a bootstrap confidence interval
against the ground truth and a relative standard deviation (the error
metric of the paper's Figure 3(a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval at the given confidence level."""

    low: float
    high: float
    confidence: float

    @property
    def width(self) -> float:
        return self.high - self.low

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:
        pct = 100.0 * self.confidence
        return f"[{self.low:.6g}, {self.high:.6g}] @{pct:.0f}%"


def percentile_interval(replicas: np.ndarray,
                        confidence: float = 0.95) -> ConfidenceInterval:
    """The bootstrap percentile interval over a 1-D replica vector."""
    replicas = np.asarray(replicas, dtype=np.float64)
    alpha = (1.0 - confidence) / 2.0
    # NaN replicas (groups with no estimate yet) legally yield NaN
    # bounds; silence numpy's interpolation warning for that case.
    with np.errstate(invalid="ignore"):
        low, high = np.percentile(
            replicas, [100 * alpha, 100 * (1 - alpha)]
        )
    return ConfidenceInterval(float(low), float(high), confidence)


def percentile_intervals(replica_matrix: np.ndarray,
                         confidence: float = 0.95
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise percentile bounds for a ``(G, B)`` replica matrix."""
    matrix = np.asarray(replica_matrix, dtype=np.float64)
    alpha = (1.0 - confidence) / 2.0
    with np.errstate(invalid="ignore"):
        low = np.percentile(matrix, 100 * alpha, axis=1)
        high = np.percentile(matrix, 100 * (1 - alpha), axis=1)
    return low, high


def basic_interval(estimate: float, replicas: np.ndarray,
                   confidence: float = 0.95) -> ConfidenceInterval:
    """The basic (reverse-percentile) bootstrap interval.

    ``[2*est - q_hi, 2*est - q_lo]`` reflects the replica quantiles
    around the point estimate.  For symmetric, unbiased replica
    distributions this coincides with the percentile interval; when the
    resampling itself biases the replicas (nested-aggregate queries whose
    uncertain predicate threshold is recomputed per replica, amplifying
    selection bias), the reflection puts the interval on the side of the
    estimate where the truth actually lies.  The ``repro.qa`` calibration
    harness measures the difference directly: percentile intervals
    under-cover TPC-H Q17 badly; basic intervals stay inside the binomial
    acceptance band.
    """
    replicas = np.asarray(replicas, dtype=np.float64)
    alpha = (1.0 - confidence) / 2.0
    q_lo, q_hi = np.percentile(replicas, [100 * alpha, 100 * (1 - alpha)])
    return ConfidenceInterval(
        float(2.0 * estimate - q_hi), float(2.0 * estimate - q_lo),
        confidence,
    )


def basic_intervals(estimates: np.ndarray, replica_matrix: np.ndarray,
                    confidence: float = 0.95
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise basic bootstrap bounds for a ``(G, B)`` replica matrix."""
    estimates = np.asarray(estimates, dtype=np.float64)
    q_lo, q_hi = percentile_intervals(replica_matrix, confidence)
    return 2.0 * estimates - q_hi, 2.0 * estimates - q_lo


def relative_stdev(estimate: float, replicas: np.ndarray) -> float:
    """Bootstrap standard deviation relative to the estimate's magnitude.

    Returns ``inf`` when the estimate is zero but replicas vary, and 0.0
    when both are degenerate.
    """
    sd = float(np.std(np.asarray(replicas, dtype=np.float64)))
    denom = abs(float(estimate))
    if denom == 0.0:
        return 0.0 if sd == 0.0 else float("inf")
    return sd / denom


def relative_stdevs(estimates: np.ndarray,
                    replica_matrix: np.ndarray) -> np.ndarray:
    """Row-wise relative standard deviations for grouped results."""
    with np.errstate(invalid="ignore"):
        sd = np.std(np.asarray(replica_matrix, dtype=np.float64), axis=1)
    return relative_sds(estimates, sd)


def relative_sds(estimates: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Row-wise ``sd / |estimate|``: ``inf`` where the estimate is zero
    but ``sd`` is not, 0.0 where both are."""
    estimates = np.asarray(estimates, dtype=np.float64)
    out = np.full(len(estimates), np.inf)
    nonzero = estimates != 0
    out[nonzero] = sd[nonzero] / np.abs(estimates[nonzero])
    out[(~nonzero) & (sd == 0.0)] = 0.0
    return out
