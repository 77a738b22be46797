"""The coordinator side of parallel bootstrap folds.

:class:`ParallelExecutor` is injected into every
:class:`~repro.core.delta.BlockRuntime` by the controller (the default is
the disabled :data:`SERIAL_EXECUTOR`).  It fans a batch's bootstrap
trial columns out as independent shard tasks on a supervised process
**shard pool** and merges the returned partial states column-wise —
PF-OLA's partial-state parallelism applied to the trial axis.  Lineage
blocks themselves fold one at a time on the calling thread, and every
pooled fold is eager: it dispatches, supervises, gathers and merges
before it returns.

One executor serves one run.  Its pool is borrowed from a
:class:`~repro.parallel.supervisor.ShardPools` — the session's, so
workers are persistent across queries and the fork is paid once per
session — and called with the run's own tracer.
Each pooled batch's columns and its stored uint8 weight rectangle are
written into the run's one shared-memory segment
(``repro.parallel.shm``), reused fold after fold, and every shard
payload carries only specs, so no worker draws a weight column.
:meth:`ParallelExecutor.end_run` unlinks the segment when the run
finishes, stops or fails (a fold that ends in
:class:`~repro.errors.ShardLostError` fails the run), so no run leaks
``/dev/shm`` segments.

Without a pool (serial, a batch under ``min_shard_rows``, or a host
that cannot start a process pool or publish to shared memory) a fold
is inline: each state takes the batch's whole stored weight rectangle
in one ``update``, with no shard tasks and no merge.

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

from typing import Dict, Optional

import numpy as np

from ..config import ParallelConfig
from ..engine.aggregates import AggState
from ..estimate.bootstrap import as_batch_weights
from ..obs import NULL_TRACER
from .shards import make_shard_payloads, run_fold_shard, shard_ranges
from .shm import ShmRegistry
from .supervisor import ShardPools, SupervisedPool


class ParallelExecutor:
    """Shards one run's bootstrap folds across a supervised worker pool.

    ``pools`` lends the pool (a session's :class:`ShardPools`); without
    one the executor keeps a private set that :meth:`close` closes.
    """

    def __init__(self, config: Optional[ParallelConfig] = None,
                 tracer=None, pools: Optional[ShardPools] = None):
        self.config = config if config is not None else ParallelConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._owns_pools = pools is None
        self.pools = pools if pools is not None else ShardPools()
        self._shard_pool: Optional[SupervisedPool] = None
        self._shm: Optional[ShmRegistry] = None

    @classmethod
    def from_config(cls, config, tracer=None,
                    pools: Optional[ShardPools] = None
                    ) -> "ParallelExecutor":
        """Build from a :class:`~repro.config.GolaConfig` (or a
        :class:`~repro.config.ParallelConfig` directly)."""
        return cls(getattr(config, "parallel", config), tracer=tracer,
                   pools=pools)

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
        (or one that cannot start, or no shared memory to publish the
        batch to), or below ``min_shard_rows``, every state takes the
        whole stored rectangle in one ``update``.  On a pool,
        column-mergeable states are sharded along the trial axis and
        merged back column-wise before this returns; the rest
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
        tracer = self.tracer
        lease = None
        if (self.enabled and shardable and n >= cfg.min_shard_rows
                and self._ensure_shard_pool().start(tracer)):
            trials = boot_states[shardable[0][0]].width
            ranges = shard_ranges(trials, cfg.workers)
            with tracer.span("parallel.shard", rows_in=n, trials=trials,
                             shards=len(ranges)):
                lease = self._publish_columns(
                    group_idx,
                    {alias: values[alias] for alias, _ in shardable},
                    row_idx, weights.dense(),
                )
        if lease is None:
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
        payloads = make_shard_payloads(shardable, lease.specs, ranges)
        if tracer.metrics.enabled:
            tracer.metrics.counter("parallel.sharded_folds").inc()
            tracer.metrics.counter("parallel.shard_tasks").inc(len(ranges))
            tracer.metrics.counter(
                "parallel.sharded_cells").inc(n * trials)
        # The lease's region stays valid until this run's next publish,
        # so a serial fallback inside map still reads this batch.
        results = self._shard_pool.map(run_fold_shard, payloads,
                                       tracer=tracer)
        with tracer.span("parallel.merge", shards=len(results)):
            for (lo, _hi), shard_states in zip(ranges, results):
                for alias, shard_state in shard_states:
                    boot_states[alias].merge_columns(shard_state, lo)

    def _publish_columns(self, group_idx, shard_values, row_idx, rect):
        """Publish one batch's columns and weights into the run's
        segment (None = shared memory is unavailable; fold inline).

        The weights go in as ``rect.T``: the store's F-order ``(n, B)``
        rectangle is a C-contiguous ``(B, n)``, copied once into the
        segment with no transpose.  The registry disables itself after
        one failed creation and one warning.
        """
        if self._shm is None:
            self._shm = ShmRegistry(metrics=self.tracer.metrics)
        arrays = {"group_idx": group_idx, "weights_t": rect.T}
        for alias, arr in shard_values.items():
            arrays[f"value:{alias}"] = arr
        if row_idx is not None:
            arrays["row_idx"] = row_idx
        return self._shm.publish(arrays)

    # -- lifecycle -------------------------------------------------------

    def _ensure_shard_pool(self) -> SupervisedPool:
        """The pool for this run's config, borrowed on first use.

        Shard tasks are stateless — their specs resolve to the same
        segment bytes on the pool and on the coordinator until the
        run's next publish — exactly the contract
        :class:`SupervisedPool` needs for a bit-identical serial
        fallback.
        """
        if self._shard_pool is None:
            self._shard_pool = self.pools.get(self.config)
        return self._shard_pool

    @property
    def shm_registry(self) -> Optional[ShmRegistry]:
        """The run's segment registry (None before the first publish)."""
        return self._shm

    def end_run(self) -> None:
        """Unlink the run's segment (idempotent; the next fold starts a
        new one).  The pool is left running for the next run."""
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def close(self) -> None:
        """End the run and close the pool if this executor owns it
        (idempotent).

        After ``close()`` no shared-memory segment of this executor
        exists, whatever the pool was doing.
        """
        self.end_run()
        if self._owns_pools:
            self.pools.close()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Shared disabled executor: the default wiring of every BlockRuntime.
SERIAL_EXECUTOR = ParallelExecutor(ParallelConfig())
