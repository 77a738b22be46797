"""Closed-form (CLT) error bars for SUM, COUNT and AVG.

The paper contrasts bootstrap against Central-Limit-Theorem estimators:
closed forms only exist for simple SPJA aggregates, which is exactly why
G-OLA needs the bootstrap for nested queries.  Where a lineage block's
replicas would feed nothing but its own error bars and every output is
a SUM, COUNT or AVG (``repro.core.meta_plan`` decides), the engine folds
exact moments instead and reads the variance the Poisson(1) bootstrap's
replicas would have in expectation:

* SUM: ``scale² · Σx²`` (each weight has variance 1);
* COUNT: ``scale² · n``;
* AVG: ``M2 / n²`` (the ratio estimator's delta-method variance, with
  ``M2 = Σ(x - mean)²``).

Intervals are ``estimate ± z · sd``.  ``z_value`` also serves the
classical-OLA baseline.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

# Normal quantiles for common confidence levels; scipy-free inverse CDF
# below handles the rest.
_Z_TABLE = {0.90: 1.6448536269514722, 0.95: 1.959963984540054,
            0.99: 2.5758293035489004}


def normal_quantile(p: float) -> float:
    """Acklam's rational approximation to the standard normal inverse CDF.

    Max absolute error ~1.15e-9 — more than enough for error bars.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > p_high:
        q = math.sqrt(-2 * math.log(1 - p))
        return -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                  + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q
                             + 1))
    q = p - 0.5
    r = q * q
    return ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
             + a[5]) * q /
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1))


def z_value(confidence: float) -> float:
    """Two-sided normal critical value for a confidence level."""
    if confidence in _Z_TABLE:
        return _Z_TABLE[confidence]
    return normal_quantile(0.5 + confidence / 2.0)


def sum_variance(sum_sq: np.ndarray, scale: float) -> np.ndarray:
    """Replica variance of a SUM estimate from its rows' ``Σx²``."""
    return scale * scale * np.asarray(sum_sq, dtype=np.float64)


def count_variance(count: np.ndarray, scale: float) -> np.ndarray:
    """Replica variance of a COUNT estimate from its row count."""
    return scale * scale * np.asarray(count, dtype=np.float64)


def mean_variance(m2: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Replica variance of an AVG estimate: ``M2 / n²`` (0 with no rows)."""
    count = np.asarray(count, dtype=np.float64)
    out = np.zeros(np.shape(m2))
    np.divide(m2, count * count, out=out, where=count > 0)
    return out


def normal_intervals(estimates: np.ndarray, sd: np.ndarray,
                     confidence: float = 0.95
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise ``estimate ± z · sd`` bounds."""
    z = z_value(confidence)
    return estimates - z * sd, estimates + z * sd
