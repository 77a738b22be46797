"""Counters, gauges and histograms with mergeable snapshots.

The registry mirrors the mergeable-aggregate discipline of the engine
itself: every instrument folds into a plain-data snapshot, and snapshots
from independent runs (or pool workers) merge associatively — the
property PF-OLA identifies as the precondition for cheap runtime
introspection in a parallel OLA framework.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict

from .live import LogBuckets


class Counter:
    """A monotonically increasing count (rows folded, rebuilds, ...).

    Increments are serialized behind a lock so concurrent threads (the
    supervisor's background thread, serve request handlers) never lose
    updates.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """A last-write-wins level (current uncertain-set size, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming summary of a value distribution (batch seconds, ...).

    Keeps count/total/min/max plus a sum of squares so snapshots expose
    mean and standard deviation, and a bounded log-bucket store
    (:class:`~repro.obs.live.LogBuckets`) so they expose quantiles.
    Memory is O(occupied buckets) — bounded by the float64 exponent
    range, never by the number of observations — and everything merges
    associatively.
    """

    __slots__ = ("count", "total", "sq_total", "min", "max", "buckets",
                 "_lock")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.sq_total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets = LogBuckets()
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.sq_total += value * value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self.buckets.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    @property
    def stdev(self) -> float:
        if self.count == 0:
            return float("nan")
        var = self.sq_total / self.count - self.mean ** 2
        return math.sqrt(max(var, 0.0))

    def snapshot(self) -> "HistogramSnapshot":
        """A consistent plain-data view (taken under the lock)."""
        with self._lock:
            return HistogramSnapshot(
                count=self.count, total=self.total, sq_total=self.sq_total,
                min=self.min, max=self.max, buckets=self.buckets.copy(),
            )


@dataclass
class HistogramSnapshot:
    """Plain-data view of one histogram, mergeable with another."""

    count: int = 0
    total: float = 0.0
    sq_total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    buckets: LogBuckets = field(default_factory=LogBuckets)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Quantile estimate, accurate to one log bucket (~9%)."""
        return self.buckets.quantile(q)

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        return HistogramSnapshot(
            count=self.count + other.count,
            total=self.total + other.total,
            sq_total=self.sq_total + other.sq_total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
            buckets=self.buckets.merge(other.buckets),
        )


@dataclass
class MetricsSnapshot:
    """All instruments of a registry at one moment; mergeable."""

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramSnapshot] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two snapshots: counters add, gauges last-write-wins,
        histograms merge component-wise."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        gauges.update(other.gauges)
        histograms = dict(self.histograms)
        for name, hist in other.histograms.items():
            mine = histograms.get(name)
            histograms[name] = hist if mine is None else mine.merge(hist)
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )

    def describe(self) -> str:
        """An aligned, stable-order text rendering for consoles/tests."""
        lines = []
        for name in sorted(self.counters):
            lines.append(f"counter   {name:<32} {self.counters[name]:>14,}")
        for name in sorted(self.gauges):
            lines.append(f"gauge     {name:<32} {self.gauges[name]:>14,.6g}")
        for name in sorted(self.histograms):
            h = self.histograms[name]
            lines.append(
                f"histogram {name:<32} n={h.count:<8,} mean={h.mean:.6g} "
                f"min={h.min:.6g} max={h.max:.6g}"
            )
        return "\n".join(lines)


class MetricsRegistry:
    """Lazily-created named instruments behind one ``enabled`` flag.

    Call sites hold the instrument and guard updates with
    ``registry.enabled`` (or just update — instruments are cheap); a
    disabled registry still hands out working instruments so code never
    branches on existence, only on cost.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter()
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge()
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram()
        return inst

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters={n: c.value for n, c in self._counters.items()},
            gauges={n: g.value for n, g in self._gauges.items()},
            histograms={
                n: h.snapshot() for n, h in self._histograms.items()
            },
        )

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
