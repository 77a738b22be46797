"""User-facing snapshots of an online query's progress.

One :class:`OnlineSnapshot` is produced per mini-batch: the current
approximate answer, bootstrap error bars per numeric output column, and
the delta-maintenance accounting (uncertain-set sizes, rows touched,
rebuilds) that the benchmarks consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..estimate.intervals import ConfidenceInterval
from ..storage.table import Table


@dataclass
class ColumnErrors:
    """Error summary for one numeric output column (row-aligned)."""

    lows: np.ndarray
    highs: np.ndarray
    rel_stdev: np.ndarray


@dataclass
class OnlineSnapshot:
    """The state of an online query after one mini-batch.

    Attributes:
        batch_index: 1-based index ``i`` of the batch just folded.
        num_batches: Total batch count ``k``.
        table: The approximate answer ``Q(D_i, k/i)``.
        errors: Per-column error bars for columns with replica support.
        uncertain_sizes: block id -> size of its uncertain set.
        rows_processed: block id -> rows touched this batch (candidates
            plus any rebuild work) — the quantity Figure 3(b) compares.
        rebuilds: block ids that recomputed due to a range violation.
        elapsed_s: Wall-clock seconds this batch took in this process.
        phase_seconds: phase name (fold/publish/snapshot) -> wall-clock
            seconds, populated when tracing is enabled (None otherwise).
    """

    batch_index: int
    num_batches: int
    table: Table
    errors: Dict[str, ColumnErrors]
    uncertain_sizes: Dict[str, int]
    rows_processed: Dict[str, int]
    rebuilds: List[str]
    elapsed_s: float
    confidence: float
    phase_seconds: Optional[Dict[str, float]] = None

    @property
    def fraction(self) -> float:
        """Fraction of the dataset processed so far."""
        return self.batch_index / self.num_batches

    @property
    def is_final(self) -> bool:
        return self.batch_index == self.num_batches

    # -- single-value conveniences (1x1 results like the SBI query) ------

    def _single_column(self) -> str:
        names = self.table.schema.names
        if self.table.num_rows != 1 or len(names) != 1:
            raise ValueError(
                "snapshot is not a single value; inspect .table instead"
            )
        return names[0]

    @property
    def estimate(self) -> float:
        """The scalar estimate, for single-cell results."""
        return float(self.table.column(self._single_column())[0])

    @property
    def interval(self) -> ConfidenceInterval:
        """The scalar confidence interval, for single-cell results."""
        name = self._single_column()
        err = self.errors.get(name)
        if err is None:
            value = self.estimate
            return ConfidenceInterval(value, value, self.confidence)
        return ConfidenceInterval(
            float(err.lows[0]), float(err.highs[0]), self.confidence
        )

    @property
    def relative_stdev(self) -> float:
        """The scalar relative standard deviation, for single-cell results.

        Returns ``nan`` when the column has no bootstrap replica support
        (e.g. a non-replicable projection): "unknown error" must not
        read as "fully converged", or ``rsd < target`` early-stop loops
        would silently accept an answer with no error estimate.
        """
        name = self._single_column()
        err = self.errors.get(name)
        if err is None or len(err.rel_stdev) == 0:
            return float("nan")
        return float(err.rel_stdev[0])

    @property
    def total_rows_processed(self) -> int:
        return sum(self.rows_processed.values())

    @property
    def total_uncertain(self) -> int:
        return sum(self.uncertain_sizes.values())

    def describe(self) -> str:
        """A one-line progress summary for consoles."""
        pct = 100.0 * self.fraction
        parts = [f"batch {self.batch_index}/{self.num_batches} ({pct:.0f}%)"]
        try:
            parts.append(
                f"estimate={self.estimate:.6g} {self.interval} "
                f"rsd={format_rsd(self.relative_stdev)}"
            )
        except ValueError:
            parts.append(f"{self.table.num_rows} rows")
        parts.append(f"uncertain={self.total_uncertain}")
        if self.rebuilds:
            parts.append(f"rebuilt={','.join(self.rebuilds)}")
        if self.phase_seconds:
            parts.append(
                "phases[" + " ".join(
                    f"{name}={seconds * 1e3:.1f}ms"
                    for name, seconds in self.phase_seconds.items()
                ) + "]"
            )
        return "  ".join(parts)


def format_rsd(value: float, digits: int = 3) -> str:
    """Render a relative stdev; NaN (no replica support) reads ``n/a``."""
    if value != value:  # NaN
        return "n/a"
    return f"{value:.{digits}%}"
