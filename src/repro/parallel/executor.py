"""The coordinator side of parallel bootstrap folds.

:class:`ParallelExecutor` is injected into every
:class:`~repro.core.delta.BlockRuntime` by the controller (the default is
the disabled :data:`SERIAL_EXECUTOR`).  It owns one supervised **shard
pool** (process or thread per :class:`~repro.config.ParallelConfig`)
that fans a batch's bootstrap trial columns out as independent shard
tasks and merges the returned partial states column-wise — PF-OLA's
partial-state parallelism applied to the trial axis.  Lineage blocks
themselves fold one at a time on the calling thread.

Two transport/scheduling optimizations ride on top (both default-on,
both pure transport — outputs never change):

* **Zero-copy publishing** — each folded batch's columns and its
  stored uint8 weight rectangle are written once into a shared-memory
  segment (``repro.parallel.shm``) and every shard payload carries only
  specs, so no worker draws a weight column; the executor holds the
  segment's lease until the batch's shards have merged, then releases
  it (the registry unlinks at refcount zero, and ``close()``
  force-unlinks on teardown so no run can leak ``/dev/shm`` segments).
* **Pipelined folds** — with ``lazy=True`` a sharded fold returns right
  after dispatch and is merged at the next drain point (the caller's
  publish/snapshot/checkpoint), so the coordinator's single-threaded
  merge/classify/publish work overlaps the workers' compute.  Deferred
  merges apply in dispatch order per states dict — float addition is
  not associative, so that order is exactly what keeps every bit
  identical to the eager path.

Without a pool (and for batches under ``min_shard_rows``) a fold is
inline: each state takes the batch's whole stored weight rectangle in
one ``update``, with no shard tasks and no merge.

Everything here is a pure throughput optimization: outputs are
bit-identical for any worker count because every shard reads its
columns of the one stored weight rectangle and per-cell accumulation
order is fixed by ``_grouped_sum`` (see ``repro.parallel.shards``) —
a full-width update and a column-merged set of shards fold the same
cells in the same order.  The one thing column widths can pick is
which NaN payload a sum cell keeps when a live NaN meets a batch NaN
of another payload: numpy's add keeps one or the other depending on
where in its loop the cell falls.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import ParallelConfig
from ..engine.aggregates import AggState
from ..estimate.bootstrap import as_batch_weights
from ..faults import FaultInjector, NULL_INJECTOR, RetryPolicy
from ..obs import NULL_TRACER
from .shards import make_shard_payloads, run_fold_shard, shard_ranges
from .shm import ShmRegistry
from .supervisor import SupervisedPool, validate_fold_shard

logger = logging.getLogger("repro.parallel")


class _PendingFold:
    """One dispatched-but-unmerged sharded fold (the pipeline slot).

    Holds a strong reference to the target states dict (so its ``id``
    cannot be recycled while pending), the dispatch handle, and the
    shared-memory lease to release once the merge lands or fails.
    """

    __slots__ = ("states", "ranges", "handle", "lease", "dispatched_at")

    def __init__(self, states: Dict[str, AggState],
                 ranges: List[Tuple[int, int]], handle, lease):
        self.states = states
        self.ranges = ranges
        self.handle = handle
        self.lease = lease
        self.dispatched_at = time.perf_counter()


class ParallelExecutor:
    """Shards bootstrap folds across a supervised worker pool."""

    def __init__(self, config: Optional[ParallelConfig] = None,
                 tracer=None, injector: Optional[FaultInjector] = None):
        self.config = config if config is not None else ParallelConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Fault source for the supervised shard pool (worker kill/hang/
        #: corrupt plans); disabled by default.
        self.injector = injector if injector is not None else NULL_INJECTOR
        self._shard_pool: Optional[SupervisedPool] = None
        self._shm: Optional[ShmRegistry] = None
        #: id(states dict) -> _PendingFold, in dispatch order.  At most
        #: one entry per states dict: dispatching the next fold first
        #: merges the previous one, so drains always apply merges in
        #: dispatch order (the bit-identity invariant).
        self._pending: "OrderedDict[int, _PendingFold]" = OrderedDict()
        self._pending_lock = threading.Lock()

    @classmethod
    def from_config(cls, config, tracer=None,
                    injector: Optional[FaultInjector] = None
                    ) -> "ParallelExecutor":
        """Build from a :class:`~repro.config.GolaConfig` (or a
        :class:`~repro.config.ParallelConfig` directly).

        Given a full ``GolaConfig`` and no explicit ``injector``, an
        injector is derived from its faults section so the shard pool
        injects the run's configured worker faults.
        """
        parallel = getattr(config, "parallel", config)
        if injector is None and hasattr(config, "faults"):
            injector = FaultInjector.from_config(config, tracer=tracer)
        return cls(parallel, tracer=tracer, injector=injector)

    @property
    def enabled(self) -> bool:
        return self.config.workers > 0

    # -- bootstrap trial sharding ---------------------------------------

    def fold_boot_states(self, boot_states: Dict[str, AggState],
                         group_idx: np.ndarray,
                         values: Dict[str, np.ndarray],
                         weights,
                         row_idx: Optional[np.ndarray] = None,
                         lazy: bool = False) -> None:
        """Fold one batch's rows into every bootstrap state.

        ``weights`` is an ``(n, B)`` array or a batch-weight handle over
        the *original* batch rows; ``row_idx`` selects the rows that
        survived the certain pipeline (None = all).  Without a pool, or
        below ``min_shard_rows``, every state takes the whole stored
        rectangle in one ``update``.  On a pool, column-mergeable states
        are sharded along the trial axis and merged back column-wise;
        the rest (reservoir quantiles, UDAFs) take the inline path.
        Both paths produce bit-identical states.

        With ``lazy=True`` a pooled fold returns right after its shards
        are dispatched; the caller must :meth:`drain` before reading
        ``boot_states`` (the block runtime drains at
        publish/snapshot/checkpoint/reset).  Dispatching the
        next fold for the same states dict first merges the previous
        one, so deferred merges always land in dispatch order and the
        result stays bit-identical to the eager path.
        """
        weights = as_batch_weights(weights)
        n = len(group_idx)
        if n == 0:
            return
        shardable = [
            (alias, type(state)) for alias, state in boot_states.items()
            if state.supports_column_merge and state.width > 1
        ]
        cfg = self.config
        if not (self.enabled and shardable and n >= cfg.min_shard_rows):
            # Inline: every state takes the whole stored rectangle in one
            # update.  Any deferred merge for this states dict must land
            # first (fold order is accumulation order).
            self.drain(boot_states)
            dense = weights.rows(row_idx)
            for alias, state in boot_states.items():
                state.update(group_idx, values[alias], dense)
            return

        dense_aliases = [
            alias for alias in boot_states
            if alias not in {a for a, _ in shardable}
        ]
        if dense_aliases:
            dense = weights.rows(row_idx)
            for alias in dense_aliases:
                boot_states[alias].update(group_idx, values[alias], dense)

        trials = boot_states[shardable[0][0]].width
        ranges = shard_ranges(trials, cfg.workers)
        tracer = self.tracer
        shard_values = {alias: values[alias] for alias, _ in shardable}
        # One read of the stored rectangle: shards reach it through the
        # batch's segment, or an inline slice.
        rect = weights.dense()
        with tracer.span("parallel.shard", rows_in=n, trials=trials,
                         shards=len(ranges), backend=cfg.backend):
            lease = self._publish_columns(group_idx, shard_values,
                                          row_idx, rect)
            payloads = make_shard_payloads(
                shardable, group_idx, shard_values, rect, ranges,
                row_idx=row_idx,
                published=lease.specs if lease is not None else None,
            )
            handle = self._ensure_shard_pool().map_async(
                run_fold_shard, payloads
            )
        if tracer.metrics.enabled:
            tracer.metrics.counter("parallel.sharded_folds").inc()
            tracer.metrics.counter("parallel.shard_tasks").inc(len(ranges))
            tracer.metrics.counter("parallel.sharded_cells").inc(n * trials)
        pending = _PendingFold(boot_states, ranges, handle, lease)
        with self._pending_lock:
            previous = self._pending.pop(id(boot_states), None)
            self._pending[id(boot_states)] = pending
        if previous is not None:
            # Pipeline step: the new dispatch is already running while
            # the previous batch's partial states merge here.
            self._merge_pending(previous)
        if not lazy:
            self.drain(boot_states)

    def _publish_columns(self, group_idx, shard_values, row_idx, rect):
        """Publish one batch's columns and weights to shared memory
        (None = inline).

        The weights go in as ``rect.T``: the store's F-order ``(n, B)``
        rectangle is a C-contiguous ``(B, n)``, copied once into the
        segment with no transpose.  Only worth it for process pools —
        threads share the address space already — and silently skipped
        where shared memory is unavailable (the registry degrades itself
        after one warning).
        """
        if self.config.backend != "process":
            return None
        if self._shm is None:
            self._shm = ShmRegistry(metrics=self.tracer.metrics)
        if not self._shm.available:
            return None
        arrays = {"group_idx": group_idx, "weights_t": rect.T}
        for alias, arr in shard_values.items():
            arrays[f"value:{alias}"] = arr
        if row_idx is not None:
            arrays["row_idx"] = row_idx
        return self._shm.publish(arrays)

    def _merge_pending(self, pending: _PendingFold) -> None:
        """Gather one deferred fold's shards and merge them (in order)."""
        tracer = self.tracer
        overlap_s = time.perf_counter() - pending.dispatched_at
        try:
            results = pending.handle.result()
            with tracer.span("parallel.merge", shards=len(results)):
                _merge_shards(pending.states, pending.ranges, results)
        finally:
            if pending.lease is not None:
                pending.lease.release()
        if tracer.metrics.enabled:
            tracer.metrics.counter(
                "parallel.pipeline_overlap_s"
            ).inc(overlap_s)

    def drain(self, boot_states: Optional[Dict[str, AggState]] = None,
              ) -> None:
        """Merge deferred sharded folds (one states dict, or all).

        The synchronization point of the pipelined path: callers invoke
        it before any read of ``boot_states`` (publish, snapshot,
        checkpoint, reset, inline folds).  No-op when nothing is
        pending; merges apply in dispatch order.
        """
        if not self._pending:
            return
        with self._pending_lock:
            if boot_states is None:
                items = list(self._pending.values())
                self._pending.clear()
            else:
                pending = self._pending.pop(id(boot_states), None)
                items = [pending] if pending is not None else []
        for pending in items:
            self._merge_pending(pending)

    # -- lifecycle -------------------------------------------------------

    def _ensure_shard_pool(self) -> SupervisedPool:
        """The shard pool, started on first use.

        Shard tasks are stateless — their specs resolve to the same
        segment bytes on every attempt while the batch's lease is held —
        exactly the contract :class:`SupervisedPool` needs for
        bit-identical re-dispatch.
        """
        if self._shard_pool is None:
            cfg = self.config
            self._shard_pool = SupervisedPool(
                cfg.workers, backend=cfg.backend,
                deadline_s=cfg.task_deadline_s,
                retries=cfg.task_retries,
                injector=self.injector, tracer=self.tracer,
                validate=validate_fold_shard,
                backoff=RetryPolicy.from_faults(self.injector.config),
                start_method=cfg.start_method,
            )
        return self._shard_pool

    @property
    def shm_registry(self) -> Optional[ShmRegistry]:
        """The live segment registry (None before the first publish)."""
        return self._shm

    def worker_pids(self) -> List[int]:
        """Live shard-pool worker PIDs ([] before first use / threads).

        The chaos harness uses this to pick real SIGKILL/SIGSTOP victims
        while a run is in flight.
        """
        pool = self._shard_pool
        return pool.worker_pids() if pool is not None else []

    def close(self) -> None:
        """Drain, unlink shared memory, release the pool (idempotent).

        A failed leftover merge is logged and dropped — the states are
        being discarded anyway — because cleanup must be guaranteed:
        after ``close()`` no shared-memory segment of this executor
        exists, whatever the pool was doing.
        """
        try:
            self.drain()
        except Exception:
            logger.warning(
                "pending sharded folds abandoned at close", exc_info=True
            )
        if self._shm is not None:
            self._shm.close()
            self._shm = None
        if self._shard_pool is not None:
            self._shard_pool.close()
            self._shard_pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _merge_shards(boot_states: Dict[str, AggState],
                  ranges: List[Tuple[int, int]], results: List) -> None:
    """Column-merge shard states back into the live states, in order."""
    for (lo, _hi), shard_states in zip(ranges, results):
        for alias, shard_state in shard_states:
            boot_states[alias].merge_columns(shard_state, lo)


#: Shared disabled executor: the default wiring of every BlockRuntime.
SERIAL_EXECUTOR = ParallelExecutor(ParallelConfig())
