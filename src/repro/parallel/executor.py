"""The coordinator side of parallel bootstrap folds.

:class:`ParallelExecutor` is injected into every
:class:`~repro.core.delta.BlockRuntime` by the controller (the default is
the disabled :data:`SERIAL_EXECUTOR`).  It owns one supervised process
**shard pool** that fans a batch's bootstrap trial columns out as
independent shard tasks and merges the returned partial states
column-wise — PF-OLA's partial-state parallelism applied to the trial
axis.  Lineage blocks themselves fold one at a time on the calling
thread, and every pooled fold is eager: it dispatches, supervises,
gathers and merges before it returns.

Each pooled batch's columns and its stored uint8 weight rectangle are
written once into a shared-memory segment (``repro.parallel.shm``) and
every shard payload carries only specs, so no worker draws a weight
column.  The fold holds the segment's lease until its shards have
returned and releases it in a ``finally``, so a fold that ends in
:class:`~repro.errors.ShardLostError` releases it too (the registry
unlinks at refcount zero, and ``close()`` force-unlinks on teardown so
no run can leak ``/dev/shm`` segments).

Without a pool (serial, a batch under ``min_shard_rows``, or a host
that cannot start a process pool) a fold is inline: each state takes
the batch's whole stored weight rectangle in one ``update``, with no
shard tasks and no merge.

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

from typing import Dict, List, Optional

import numpy as np

from ..config import ParallelConfig
from ..engine.aggregates import AggState
from ..estimate.bootstrap import as_batch_weights
from ..faults import FaultInjector, NULL_INJECTOR
from ..obs import NULL_TRACER
from .shards import make_shard_payloads, run_fold_shard, shard_ranges
from .shm import ShmRegistry
from .supervisor import SupervisedPool, validate_fold_shard


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
                         row_idx: Optional[np.ndarray] = None) -> None:
        """Fold one batch's rows into every bootstrap state.

        ``weights`` is an ``(n, B)`` array or a batch-weight handle over
        the *original* batch rows; ``row_idx`` selects the rows that
        survived the certain pipeline (None = all).  Without a pool
        (or one that cannot start), or below ``min_shard_rows``, every
        state takes the whole stored rectangle in one ``update``.  On a
        pool, column-mergeable states are sharded along the trial axis
        and merged back column-wise before this returns; the rest
        (reservoir quantiles, UDAFs) take the inline path.  Both paths
        produce bit-identical states.
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
        if not (self.enabled and shardable and n >= cfg.min_shard_rows
                and self._ensure_shard_pool().start()):
            # Inline: every state takes the whole stored rectangle in one
            # update.
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
        lease = None
        try:
            with tracer.span("parallel.shard", rows_in=n, trials=trials,
                             shards=len(ranges)):
                lease = self._publish_columns(group_idx, shard_values,
                                              row_idx, rect)
                payloads = make_shard_payloads(
                    shardable, group_idx, shard_values, rect, ranges,
                    row_idx=row_idx,
                    published=lease.specs if lease is not None else None,
                )
            if tracer.metrics.enabled:
                tracer.metrics.counter("parallel.sharded_folds").inc()
                tracer.metrics.counter(
                    "parallel.shard_tasks").inc(len(ranges))
                tracer.metrics.counter(
                    "parallel.sharded_cells").inc(n * trials)
            results = self._shard_pool.map(run_fold_shard, payloads)
        finally:
            if lease is not None:
                lease.release()
        with tracer.span("parallel.merge", shards=len(results)):
            for (lo, _hi), shard_states in zip(ranges, results):
                for alias, shard_state in shard_states:
                    boot_states[alias].merge_columns(shard_state, lo)

    def _publish_columns(self, group_idx, shard_values, row_idx, rect):
        """Publish one batch's columns and weights to shared memory
        (None = inline).

        The weights go in as ``rect.T``: the store's F-order ``(n, B)``
        rectangle is a C-contiguous ``(B, n)``, copied once into the
        segment with no transpose.  Skipped where shared memory is
        unavailable (the registry degrades itself after one warning).
        """
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

    # -- lifecycle -------------------------------------------------------

    def _ensure_shard_pool(self) -> SupervisedPool:
        """The shard pool, created on first use.

        Shard tasks are stateless — their specs resolve to the same
        segment bytes on every attempt while the batch's lease is held —
        exactly the contract :class:`SupervisedPool` needs for
        bit-identical re-dispatch.
        """
        if self._shard_pool is None:
            cfg = self.config
            self._shard_pool = SupervisedPool(
                cfg.workers,
                deadline_s=cfg.task_deadline_s,
                retries=cfg.task_retries,
                injector=self.injector, tracer=self.tracer,
                validate=validate_fold_shard,
            )
        return self._shard_pool

    @property
    def shm_registry(self) -> Optional[ShmRegistry]:
        """The live segment registry (None before the first publish)."""
        return self._shm

    def worker_pids(self) -> List[int]:
        """Live shard-pool worker PIDs ([] before first use).

        The chaos harness uses this to pick real SIGKILL/SIGSTOP victims
        while a run is in flight.
        """
        pool = self._shard_pool
        return pool.worker_pids() if pool is not None else []

    def close(self) -> None:
        """Unlink shared memory, release the pool (idempotent).

        After ``close()`` no shared-memory segment of this executor
        exists, whatever the pool was doing.
        """
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


#: Shared disabled executor: the default wiring of every BlockRuntime.
SERIAL_EXECUTOR = ParallelExecutor(ParallelConfig())
