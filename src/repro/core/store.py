"""The session's batch store: each streamed table planned and weighted once.

A mini-batch ``ΔD_i`` and its Poisson(1) weights depend only on the
table, ``(num_batches, seed, shuffle)`` and ``(master_seed, trials)``
(paper §2, §2.2), so a session draws each streamed table's batch plan
(its permutation and batch bounds) once and each batch's weights once,
and every query, lineage block and rebuild after that reads the same
objects.  The store keeps no batch: a read gathers the columns its query
uses at the batch's rows.  Concurrent serve queries and sequential
library queries take the same path.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence

import numpy as np

from ..estimate.bootstrap import BatchWeights, stream_label
from ..storage.colstore.dataset import ColstoreDataset
from ..storage.partition import BatchPlan
from ..storage.table import Table, table_bytes


class _Entry:
    """One streamed table's latest batch plan and weight set."""

    def __init__(self, table=None, key=None, source=None,
                 plan: Optional[BatchPlan] = None) -> None:
        #: The registered object; another object under the name misses.
        self.table = table
        #: ``(num_batches, seed, shuffle)`` of ``plan``.
        self.key = key
        #: What batches are gathered from: ``table`` itself, or a
        #: mismatched dataset's one ``to_table()``, which only the
        #: store holds and so counts.
        self.source = source
        self.plan = plan
        self.held_bytes = (0 if plan is None else plan.nbytes) + (
            table_bytes(source) if source is not table else 0)
        #: ``(master_seed, trials)`` of ``rects``.
        self.weight_key = None
        #: batch index -> read-only F-order uint8 ``(rows, trials)``.
        self.rects: Dict[int, np.ndarray] = {}

    @property
    def nbytes(self) -> int:
        return self.held_bytes + sum(r.nbytes for r in self.rects.values())

    def batch(self, j: int, columns: Optional[Sequence[str]] = None
              ) -> Table:
        """Batch ``j`` (0-based) holding only ``columns``, gathered now:
        :meth:`ColstoreDataset.batch`'s call."""
        return self.plan.batch(self.source, j, columns)


class BatchStore:
    """Batch plans and weight rectangles, one entry per streamed table.

    The bound is structural: an entry keeps only its table's latest
    batch plan and latest ``(master_seed, trials)`` weight set; a new
    partition key replaces the whole entry and a new weight key its
    rectangles.  So the store holds 8 bytes per row of each shuffled
    streamed table (its permutation) plus ``trials`` bytes per row (its
    weights), and a mismatched colstore dataset's materialized table;
    ``session.store_bytes`` counts all of it.  Re-registering a table
    drops its entry (:meth:`drop`).

    Entry hits and misses are also counted on the caller's registry
    as ``serve.scan_cache_hits``/``serve.scan_cache_misses``: the
    ledger's serve client reads those names.

    One lock covers every fill, so concurrent callers get the very same
    objects and each plan and rectangle is built once.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: weight-stream label -> entry
        self._entries: Dict[str, _Entry] = {}
        self.hits = self.misses = 0

    @property
    def nbytes(self) -> int:
        """Bytes held, over every entry."""
        return sum(e.nbytes for e in list(self._entries.values()))

    def partitions(self, name: str, table, config, metrics=None):
        """What ``table``'s mini-batches under ``config``'s partition
        knobs are read from: an object whose ``batch(j, columns)``
        returns batch ``j`` holding only ``columns``.

        A colstore dataset whose stored layout matches the config is
        returned as it is: it streams its own partition files, and
        nothing is stored.  Any other table, a mismatched dataset
        included (materialized once, in original row order), gets an
        entry holding it and its batch plan, which every query of the
        session shares.
        """
        if isinstance(table, ColstoreDataset) and table.config_matches(config):
            return table
        key = (config.num_batches, config.seed, config.shuffle)
        label = stream_label(name)
        with self._lock:
            entry = self._entries.get(label)
            if entry is None or entry.table is not table or entry.key != key:
                source = (table.to_table()
                          if isinstance(table, ColstoreDataset) else table)
                entry = self._entries[label] = _Entry(
                    table, key, source, BatchPlan(
                        source.num_rows, config.num_batches,
                        seed=config.seed, shuffle=config.shuffle))
                self.misses += 1
                outcome = "misses"
            else:
                self.hits += 1
                outcome = "hits"
            if metrics is not None and metrics.enabled:
                metrics.counter(f"serve.scan_cache_{outcome}").inc()
            self._publish(metrics)
            return entry

    def rectangle(self, handle: BatchWeights) -> np.ndarray:
        """``handle``'s rectangle, drawn now if the store lacks it."""
        key = (handle.master_seed, handle.trials)
        with self._lock:
            entry = self._entries.setdefault(handle.label, _Entry())
            if entry.weight_key != key:
                entry.weight_key, entry.rects = key, {}
            rect = entry.rects.get(handle.batch_index)
            if rect is not None and len(rect) == handle.num_rows:
                return rect
            rect = handle.draw()
            rect.flags.writeable = False
            # A stored rectangle of another length belongs to another
            # partitioning still running (a concurrent query with other
            # knobs): serve the draw, keep the stored one.
            if handle.batch_index not in entry.rects:
                entry.rects[handle.batch_index] = rect
                self._publish(handle.metrics)
            return rect

    def drop(self, name: str, metrics=None) -> None:
        """Forget one table's entry (it was re-registered)."""
        with self._lock:
            self._entries.pop(stream_label(name), None)
            self._publish(metrics)

    @property
    def stats(self) -> dict:
        with self._lock:
            return {"entries": len(self._entries), "hits": self.hits,
                    "misses": self.misses, "bytes": self.nbytes}

    def _publish(self, metrics) -> None:
        if metrics is not None and metrics.enabled:
            metrics.gauge("session.store_bytes").set(self.nbytes)
