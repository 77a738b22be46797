"""Variation ranges for uncertain values (paper section 3.2).

The variation range ``R(u)`` of an uncertain value ``u`` is the set of all
values ``u`` may take during online execution.  It cannot be known until
the query finishes, so G-OLA approximates it from the bootstrap outputs
``û`` of the running estimate::

    R(u) = [min(û) − ε, max(û) + ε]

with a user-controlled slack ``ε``; setting ``ε`` to the standard
deviation of ``û`` balances the recomputation probability against the
size of the uncertain sets.  Deterministic values have the degenerate
range ``{d}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class VariationRange:
    """A closed interval ``[low, high]`` of possible values."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"inverted range [{self.low}, {self.high}]")

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def contains_all(self, values: np.ndarray) -> bool:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return True
        return bool(
            (values.min() >= self.low) and (values.max() <= self.high)
        )

    def overlaps(self, other: "VariationRange") -> bool:
        """Whether ``R(x) ∩ R(y) ≠ ∅`` — the uncertainty test."""
        return self.low <= other.high and other.low <= self.high

    def intersect(self, other: "VariationRange") -> "VariationRange":
        """The intersection (used to tighten consumer guards)."""
        low = max(self.low, other.low)
        high = min(self.high, other.high)
        if low > high:
            # Disjoint guards mean an (already detected) failure; collapse
            # to a point so containment checks keep failing loudly.
            low = high = (low + high) / 2.0
        return VariationRange(low, high)

    @property
    def width(self) -> float:
        return self.high - self.low

    @staticmethod
    def degenerate(value: float) -> "VariationRange":
        """The range of a deterministic value: itself."""
        return VariationRange(value, value)


def range_from_replicas(estimate: float, replicas: np.ndarray,
                        epsilon_multiplier: float = 1.0) -> VariationRange:
    """Approximate ``R(u)`` from the running estimate and its replicas.

    Only finite replicas bound the range: a MIN/MAX trial that never
    sampled the value's rows holds +-inf, which says nothing about where
    ``u`` may go.  With no finite replica the range is unbounded.
    """
    replicas = np.asarray(replicas, dtype=np.float64)
    if replicas.size == 0:
        return VariationRange.degenerate(estimate)
    replicas = replicas[np.isfinite(replicas)]
    if replicas.size == 0:
        return VariationRange(-np.inf, np.inf)
    eps = epsilon_multiplier * float(np.std(replicas))
    low = min(float(np.min(replicas)), estimate) - eps
    high = max(float(np.max(replicas)), estimate) + eps
    return VariationRange(low, high)


def ranges_from_replica_matrix(
    estimates: np.ndarray,
    replica_matrix: np.ndarray,
    epsilon_multiplier: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized per-group ranges for keyed uncertain values.

    Returns ``(lows, highs)`` arrays of shape ``(G,)``.  A group with a
    non-finite replica takes :func:`range_from_replicas`' rule.
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    matrix = np.asarray(replica_matrix, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # such rows are redone below
        sd = matrix.std(axis=1)
        eps = epsilon_multiplier * sd
        lows = np.minimum(matrix.min(axis=1), estimates) - eps
        highs = np.maximum(matrix.max(axis=1), estimates) + eps
    # A non-finite replica makes its row's sd non-finite.
    for g in np.flatnonzero(~np.isfinite(sd)):
        vrange = range_from_replicas(float(estimates[g]), matrix[g],
                                     epsilon_multiplier)
        lows[g], highs[g] = vrange.low, vrange.high
    return lows, highs
