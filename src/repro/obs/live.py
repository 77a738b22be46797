"""Log-bucketed histograms: the store behind every metrics histogram.

:class:`LogBuckets` is an HDR-style log-bucketed value histogram:
bounded memory (bucket count is bounded by the float64 exponent range
times the per-octave resolution, independent of observation count),
quantile estimates accurate to one bucket (~9% relative), and
associative/commutative merges — the same mergeable-snapshot discipline
as :class:`~repro.obs.metrics.MetricsSnapshot`, so histograms from
worker processes combine exactly.  ``GET /metrics`` exports the buckets
cumulatively, so a scraper derives windowed rates and quantiles itself.

Everything here is plain Python over dicts — no numpy in the hot path —
because observations arrive one at a time from scheduler threads.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Sequence, Tuple

#: Buckets per power of two; 8 gives a bucket width (growth factor) of
#: ``2**(1/8) ~ 1.09``, i.e. quantiles accurate to ~9% relative error.
BUCKETS_PER_OCTAVE = 8

#: Multiplicative width of one bucket.
GROWTH = 2.0 ** (1.0 / BUCKETS_PER_OCTAVE)


def bucket_key(value: float) -> Tuple[int, int]:
    """The (sign, index) bucket a value falls into.

    ``sign`` is -1/0/+1; for nonzero values ``index`` is
    ``floor(log2(|v|) * BUCKETS_PER_OCTAVE)``, so bucket ``(1, i)``
    covers ``[2**(i/8), 2**((i+1)/8))``.  The index range representable
    by float64 is about [-8600, 8200] — the hard memory bound.
    """
    if value == 0.0:
        return (0, 0)
    magnitude = abs(value)
    index = math.floor(math.log2(magnitude) * BUCKETS_PER_OCTAVE)
    return (1 if value > 0.0 else -1, index)


def bucket_upper_edge(sign: int, index: int) -> float:
    """The least upper bound (in *value* order) of bucket (sign, index).

    Positive bucket i covers values up to ``2**((i+1)/8)``; negative
    bucket i covers ``(-2**((i+1)/8), -2**(i/8)]`` so its value-order
    upper edge is ``-2**(i/8)``; the zero bucket's is 0.
    """
    if sign == 0:
        return 0.0
    try:
        if sign > 0:
            return 2.0 ** ((index + 1) / BUCKETS_PER_OCTAVE)
        return -(2.0 ** (index / BUCKETS_PER_OCTAVE))
    except OverflowError:
        return math.inf if sign > 0 else -math.inf


class LogBuckets:
    """Sparse log-bucketed histogram of float observations.

    Not thread-safe on its own — its owner (``obs.Histogram``)
    serializes access behind its lock.  NaN observations are ignored
    (they have no place on the value axis); +/-inf land in the extreme
    buckets.
    """

    __slots__ = ("zero", "pos", "neg", "count")

    def __init__(self) -> None:
        self.zero = 0
        self.pos: Dict[int, int] = {}
        self.neg: Dict[int, int] = {}
        self.count = 0

    def observe(self, value: float) -> None:
        if value != value:  # NaN: not representable on the value axis
            return
        self.count += 1
        if value == 0.0:
            self.zero += 1
            return
        sign, index = bucket_key(value)
        store = self.pos if sign > 0 else self.neg
        store[index] = store.get(index, 0) + 1

    # -- merging (associative and commutative by construction) -----------

    def merge_from(self, other: "LogBuckets") -> None:
        self.zero += other.zero
        self.count += other.count
        for store, theirs in ((self.pos, other.pos), (self.neg, other.neg)):
            for index, n in theirs.items():
                store[index] = store.get(index, 0) + n

    def merge(self, other: "LogBuckets") -> "LogBuckets":
        out = self.copy()
        out.merge_from(other)
        return out

    def copy(self) -> "LogBuckets":
        out = LogBuckets()
        out.zero = self.zero
        out.count = self.count
        out.pos = dict(self.pos)
        out.neg = dict(self.neg)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogBuckets):
            return NotImplemented
        return (self.count == other.count and self.zero == other.zero
                and self.pos == other.pos and self.neg == other.neg)

    def __repr__(self) -> str:
        return (f"LogBuckets(count={self.count}, "
                f"buckets={self.num_buckets})")

    @property
    def num_buckets(self) -> int:
        """Occupied buckets — the memory footprint, independent of count."""
        return len(self.pos) + len(self.neg) + (1 if self.zero else 0)

    # -- reading ---------------------------------------------------------

    def items(self) -> Iterator[Tuple[int, int, int]]:
        """(sign, index, count) triples in ascending *value* order."""
        for index in sorted(self.neg, reverse=True):
            yield (-1, index, self.neg[index])
        if self.zero:
            yield (0, 0, self.zero)
        for index in sorted(self.pos):
            yield (1, index, self.pos[index])

    def cumulative(self) -> List[Tuple[float, int]]:
        """(value upper edge, cumulative count) per occupied bucket,
        ascending — the shape Prometheus ``le`` buckets want."""
        out: List[Tuple[float, int]] = []
        running = 0
        for sign, index, n in self.items():
            running += n
            out.append((bucket_upper_edge(sign, index), running))
        return out

    def quantile(self, q: float) -> float:
        """The q-quantile, accurate to one bucket.

        Uses the ``lower`` order-statistic definition (rank
        ``floor(q * (count - 1))``) so the selected bucket is exactly
        the one holding that order statistic; the returned value is the
        bucket's value-order upper edge, hence within one bucket of the
        exact answer.  NaN when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return float("nan")
        rank = math.floor(q * (self.count - 1))
        running = 0
        for sign, index, n in self.items():
            running += n
            if running > rank:
                return bucket_upper_edge(sign, index)
        # Unreachable unless counts were mutated mid-iteration.
        return bucket_upper_edge(*max(
            [(1, i) for i in self.pos] or [(0, 0)]
        ))

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        return [self.quantile(q) for q in qs]

    # -- plain-data state (for snapshots / cross-process transfer) -------

    def state_dict(self) -> dict:
        return {"zero": self.zero, "count": self.count,
                "pos": dict(self.pos), "neg": dict(self.neg)}

    @classmethod
    def from_state(cls, state: dict) -> "LogBuckets":
        out = cls()
        out.zero = int(state.get("zero", 0))
        out.count = int(state.get("count", 0))
        out.pos = {int(k): int(v) for k, v in state.get("pos", {}).items()}
        out.neg = {int(k): int(v) for k, v in state.get("neg", {}).items()}
        return out
