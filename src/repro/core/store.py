"""The session's batch store: each streamed table cut and weighted once.

A mini-batch ``ΔD_i`` and its Poisson(1) weights depend only on the
table, ``(num_batches, seed, shuffle)`` and ``(master_seed, trials)``
(paper §2, §2.2), so a session partitions each streamed table once and
draws each batch's weights once, and every query, lineage block and
rebuild after that reads the same objects.  Concurrent serve queries and
sequential library queries take the same path.
"""

from __future__ import annotations

import threading
from typing import Dict

import numpy as np

from ..estimate.bootstrap import BatchWeights, stream_label
from ..storage.colstore.dataset import ColstoreDataset
from ..storage.partition import MiniBatchPartitioner
from ..storage.table import table_bytes


class _Entry:
    """One streamed table's latest partitioning and weight set."""

    def __init__(self, table=None, key=None, batches=None) -> None:
        #: The registered object; another object under the name misses.
        self.table = table
        #: ``(num_batches, seed, shuffle)`` of ``batches``.
        self.key = key
        self.batches = batches
        self.batch_bytes = sum(table_bytes(b) for b in batches or ())
        #: ``(master_seed, trials)`` of ``rects``.
        self.weight_key = None
        #: batch index -> read-only F-order uint8 ``(rows, trials)``.
        self.rects: Dict[int, np.ndarray] = {}

    @property
    def nbytes(self) -> int:
        return self.batch_bytes + sum(r.nbytes for r in self.rects.values())


class BatchStore:
    """Partition lists and weight rectangles, one entry per streamed table.

    The bound is structural: an entry keeps only its table's latest
    partitioning and latest ``(master_seed, trials)`` weight set; a new
    partition key replaces the whole entry and a new weight key its
    rectangles.  So the store never holds more than one partitioned copy
    plus ``trials`` bytes per row of each streamed table;
    ``session.store_bytes`` counts both.  Re-registering a table drops
    its entry (:meth:`drop`).

    Partition hits and misses are also counted on the caller's registry
    as ``serve.scan_cache_hits``/``serve.scan_cache_misses``: the
    ledger's serve client reads those names.

    One lock covers every fill, so concurrent callers get the very same
    objects and each partition list and rectangle is built once.
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
        """``table``'s mini-batches under ``config``'s partition knobs.

        A colstore dataset whose stored layout matches the config
        streams its own partition files (nothing is stored); any other
        table, a mismatched dataset included (materialized in original
        row order), is cut once and stored.
        """
        if isinstance(table, ColstoreDataset) and table.config_matches(config):
            return table.batches()
        key = (config.num_batches, config.seed, config.shuffle)
        label = stream_label(name)
        with self._lock:
            entry = self._entries.get(label)
            if entry is None or entry.table is not table or entry.key != key:
                source = (table.to_table()
                          if isinstance(table, ColstoreDataset) else table)
                entry = self._entries[label] = _Entry(
                    table, key, MiniBatchPartitioner(
                        config.num_batches, seed=config.seed,
                        shuffle=config.shuffle,
                    ).partition(source))
                self.misses += 1
                outcome = "misses"
            else:
                self.hits += 1
                outcome = "hits"
            if metrics is not None and metrics.enabled:
                metrics.counter(f"serve.scan_cache_{outcome}").inc()
            self._publish(metrics)
            return entry.batches

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
            rect = handle.draw(0, handle.trials)
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
