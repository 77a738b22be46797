"""The G-OLA query controller (paper section 4, component 2).

Drives one online query end to end:

* reads the streamed relation's ``k`` uniform random mini-batches and
  their Poisson bootstrap weights from the session's
  :class:`~repro.core.store.BatchStore` (cut and drawn once per
  session), so every lineage block sees consistent simulated databases
  per trial — weights only for relations some bootstrap block folds
  (closed-form blocks read none);
* evaluates *static* subqueries (those over non-streamed dimension
  tables) exactly once, publishing them as certain (degenerate-range)
  slot states;
* per batch, steps the lineage blocks in dependency order — inner blocks
  refresh their uncertain values first, outer blocks then validate their
  guards (recomputing on a range violation) and fold the batch;
* assembles an :class:`~repro.core.result.OnlineSnapshot` from the main
  block after each batch.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..config import GolaConfig
from ..engine.aggregates import GroupIndex, UDAFRegistry
from ..engine.executor import BatchExecutor
from ..errors import CheckpointError, ExecutionError
from ..estimate.bootstrap import BatchWeights, PoissonWeightSource, \
    stream_label
from ..estimate.variation import VariationRange
from ..expr.expressions import Environment
from ..expr.functions import DEFAULT_FUNCTIONS, FunctionRegistry
from ..faults import RunCheckpoint, config_fingerprint, query_fingerprint
from ..obs import Timer, Tracer, tracer_from_config
from ..parallel import ParallelExecutor, ShardPools
from ..plan.logical import Query
from ..storage.table import Table
from .meta_plan import compile_meta_plan
from .result import ColumnErrors, OnlineSnapshot
from .store import BatchStore
from .uncertain import (
    TRI_FALSE,
    TRI_TRUE,
    KeyedSlotState,
    ScalarSlotState,
    SetSlotState,
)

#: Shared no-op scope used when tracing is disabled (nullcontext is
#: stateless, so one instance is safely re-entered).
_NO_SCOPE = nullcontext()


class QueryController:
    """Coordinates one online query run."""

    def __init__(self, query: Query, tables: Dict[str, Table],
                 streamed: Dict[str, bool], config: GolaConfig,
                 udafs: Optional[UDAFRegistry] = None,
                 functions: FunctionRegistry = DEFAULT_FUNCTIONS,
                 tracer: Optional[Tracer] = None,
                 parallel: Optional[ParallelExecutor] = None,
                 batch_store: Optional[BatchStore] = None,
                 pools: Optional[ShardPools] = None):
        self.query = query
        self.config = config
        #: Table -> the columns the query reads; every scan, streamed or
        #: not, is read at this width.
        self.scan_columns = query.scan_columns
        tables = {k.lower(): v for k, v in tables.items()}
        self.streamed = {k.lower(): v for k, v in streamed.items()}
        # A streamed table stays as registered (the session's batch store
        # cuts it) and its batches are projected as they are read
        # (:meth:`_batch`).  A dimension table is read whole by static
        # subqueries and block joins, so it is projected once here: a
        # view of an in-memory table, a colstore one decoded (original
        # row order, hence bit-identical to the in-memory table).
        self.tables = {
            name: tables[name] if self.streamed.get(name, False)
            else tables[name].select(columns)
            for name, columns in self.scan_columns.items()
        }
        self.functions = functions
        self.tracer = (
            tracer if tracer is not None else tracer_from_config(config)
        )

        self.meta_plan = compile_meta_plan(
            query, self.tables, self.streamed, config, udafs
        )
        self.streamed_table = self.meta_plan.streamed_table
        self.streamed_tables = self.meta_plan.streamed_tables
        self.block_tables = self.meta_plan.block_tables
        self.runtimes = self.meta_plan.runtimes
        # The run's executor borrows its pool from ``pools`` (the
        # session's).
        self.parallel = (
            parallel if parallel is not None
            else ParallelExecutor.from_config(config, tracer=self.tracer,
                                              pools=pools)
        )
        #: Partitions and weight rectangles: the session's, shared by
        #: its queries.
        self.batch_store = (
            batch_store if batch_store is not None else BatchStore()
        )
        for runtime in self.runtimes.values():
            runtime.tracer = self.tracer
            runtime.executor = self.parallel
        self._online_blocks = self.meta_plan.online_blocks
        self.static_states: Dict[int, object] = {
            spec.slot: _run_static(spec, self.tables, udafs, functions,
                                   self.tracer, config.bootstrap_trials)
            for spec in self.meta_plan.static_specs
        }
        self.main_runtime = self.meta_plan.main_runtime
        #: The last batch the run folded (what :meth:`checkpoint` saves).
        self._last_batch: Optional[int] = None
        self._exec: Optional[dict] = None
        self._stopped = False

    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Stop after the current batch (the user is satisfied)."""
        self._stopped = True

    def run(self, resume_from: Union[RunCheckpoint, str, Path, None] = None,
            ) -> Iterator[OnlineSnapshot]:
        """Process mini-batches, yielding one snapshot per batch.

        A thin generator over :meth:`begin` / :meth:`step` (what the
        serving scheduler drives directly); both give bit-identical
        streams.  A batch whose fold fails raises out of :meth:`step`,
        and so out of here, and ends the run: only a shard the pool
        could not compute even on the coordinator does
        (:class:`~repro.errors.ShardLostError`); worker crashes, hangs
        and malformed results are re-run bit-identically.

        ``resume_from`` (a :class:`RunCheckpoint` or a path to one saved
        by :meth:`checkpoint`) continues after the checkpointed batch.
        When the iteration ends — completion, :meth:`stop`, or the
        generator being closed — the run's memory is released, so take
        checkpoints *during* the run.
        """
        self.begin(resume_from=resume_from)
        try:
            while True:
                snapshot = self.step()
                if snapshot is None:
                    return
                yield snapshot
                if self._stopped:
                    return
        finally:
            self.release()

    # -- the incremental (step) API --------------------------------------

    def begin(self, resume_from: Union[RunCheckpoint, str, Path,
                                       None] = None) -> None:
        """Start an incremental run: partition, seed weights, open spans.

        After ``begin()``, call :meth:`step` once per mini-batch until it
        returns None (or :attr:`is_done`), then :meth:`finish` (or
        :meth:`release` to also drop the run's memory).  :meth:`run`
        wraps exactly this sequence in a generator.
        """
        if self._exec is not None:
            self.finish()
        self._stopped = False
        tracer = self.tracer
        # Every streamed table is cut into the same ``num_batches`` under
        # the same seed, so batch ``i`` is a consistent uniform slice
        # across facts.
        batches = {
            name: self.batch_store.partitions(
                name, self.tables[name], self.config, tracer.metrics)
            for name in self.streamed_tables
        }
        weight_sources = {
            name: PoissonWeightSource(
                self.config.bootstrap_trials, self.config.seed,
                label=stream_label(name), tracer=tracer,
                store=self.batch_store,
            )
            for name in self.meta_plan.replica_tables
        }
        k = self.config.num_batches
        start_at = 1
        if resume_from is not None:
            ck = (
                resume_from if isinstance(resume_from, RunCheckpoint)
                else RunCheckpoint.load(resume_from)
            )
            ck.verify(self.query, self.config)
            for block_id, state in ck.copy_block_states().items():
                self.runtimes[block_id].restore_checkpoint(state)
            start_at = ck.batch_index + 1
            if tracer.enabled:
                tracer.event("checkpoint.resumed",
                             batch_index=ck.batch_index)
        qspan = tracer.span("query", streamed_table=self.streamed_table,
                            num_batches=k, blocks=len(self._online_blocks))
        qspan_id = _open_detached(tracer, qspan)
        self._exec = {
            "batches": batches, "weight_sources": weight_sources,
            "k": k, "cursor": start_at, "span": qspan, "span_id": qspan_id,
        }

    @property
    def is_done(self) -> bool:
        """True when no active run remains: finished, stopped, or never
        begun."""
        ex = self._exec
        if ex is None:
            return True
        return self._stopped or ex["cursor"] > ex["k"]

    def step(self) -> Optional[OnlineSnapshot]:
        """Process the next mini-batch and return its snapshot.

        Returns None once the run is complete (or stopped).  Requires a
        preceding :meth:`begin`.  A batch that raises (a UDF crash,
        :class:`~repro.errors.ShardLostError`) releases the run before
        the error propagates: some states may already hold part of the
        batch, so neither a later step nor a checkpoint may build on
        them.
        """
        ex = self._exec
        if ex is None:
            raise ExecutionError("no active run; call begin() first")
        if self.is_done:
            return None
        tracer = self.tracer
        faults = self.config.faults
        i = ex["cursor"]
        table_batches = {
            name: self._batch(name, i - 1) for name in self.streamed_tables
        }
        with tracer.scoped_parent(ex["span_id"]) if tracer.enabled \
                else _NO_SCOPE:
            try:
                snapshot = self._run_batch(
                    i, table_batches, ex["weight_sources"], ex["k"]
                )
            except Exception:
                self.release()
                raise
            self._last_batch = i
            if (faults.checkpoint_every
                    and faults.checkpoint_path is not None
                    and i % faults.checkpoint_every == 0):
                self.checkpoint().save(faults.checkpoint_path)
                if tracer.enabled:
                    tracer.event("checkpoint.saved", batch_index=i)
        ex["cursor"] = i + 1
        return snapshot

    def finish(self) -> None:
        """End the incremental run: close the query span, unlink the
        run's shared-memory segment.  Idempotent; keeps checkpoint/block
        state (see :meth:`release` for the memory-dropping variant).
        The worker pool is the session's and keeps running."""
        ex = self._exec
        if ex is not None:
            self._exec = None
            _close_detached(self.tracer, ex["span"], ex["span_id"])
        self.parallel.end_run()

    def release(self) -> None:
        """Finish the run and drop its mini-batch memory.

        Clears the checkpointable run state and every block runtime's
        folded state and uncertain-row cache, so a stopped or completed
        query stops pinning memory.  The controller stays reusable — the
        next :meth:`begin` (or :meth:`run`) starts from scratch.
        """
        self.finish()
        self._last_batch = None
        for runtime in self.runtimes.values():
            runtime.reset()

    def checkpoint(self) -> RunCheckpoint:
        """Snapshot the run's resumable state after the latest batch.

        Valid between batches of an active :meth:`run`/:meth:`step`
        iteration; raises if no batch has been processed yet or the
        run's state has already been released (a finished run drops its
        checkpointable state — take checkpoints during the run).
        """
        if self._last_batch is None:
            raise CheckpointError(
                "no batches processed yet; nothing to checkpoint"
            )
        return RunCheckpoint(
            query_fp=query_fingerprint(self.query),
            config_fp=config_fingerprint(self.config),
            batch_index=self._last_batch,
            block_states={
                block_id: runtime.state_checkpoint()
                for block_id, runtime in self.runtimes.items()
            },
        )

    # ------------------------------------------------------------------

    def _batch(self, name: str, j: int) -> Table:
        """Streamed table ``name``'s batch ``j`` (0-based), holding only
        the columns the query reads.

        Read through the run's own store entry, never the store's
        current one, which a concurrent query with other partition
        knobs may have replaced.  The entry gathers just these columns
        at the batch's rows; a colstore dataset streaming its own files
        decodes just these columns.
        """
        return self._exec["batches"][name].batch(j, self.scan_columns[name])

    def _seen(self, name: str, i: int) -> List[Tuple[Table, BatchWeights]]:
        """Table ``name``'s batches ``1..i``, each with a fresh weight
        handle at its own batch index: what a guard rebuild re-folds.

        The handles are not counted as draws: each batch was counted
        when it was first folded.
        """
        source = self._exec["weight_sources"].get(name)
        seen = []
        for j in range(i):
            batch = self._batch(name, j)
            seen.append((batch, None if source is None
                         else source.handle(j, batch.num_rows)))
        return seen

    def _run_batch(self, i: int, table_batches: Dict[str, Table],
                   weight_sources: Dict[str, PoissonWeightSource],
                   k: int) -> OnlineSnapshot:
        """Fold one mini-batch into every block and snapshot the result.

        ``table_batches`` maps each streamed relation to its ``i``-th
        mini-batch; each block folds its own relation's batch under that
        relation's weight stream.  Trial ``j`` pairs across tables —
        every block's j-th replica sees the same simulated database —
        which is what makes multi-fact variance estimates consistent
        under correlated resampling.
        """
        tracer = self.tracer
        phases: Optional[Dict[str, float]] = (
            {"fold": 0.0, "publish": 0.0, "snapshot": 0.0}
            if tracer.enabled else None
        )
        batch = table_batches[self.streamed_table]
        with tracer.span("batch", batch_index=i,
                         rows_in=batch.num_rows) as bspan, \
                Timer() as batch_timer:
            # None for a relation no bootstrap block folds.  Batch ``i``
            # reads weights at index ``i - 1``.
            weights = {
                name: (weight_sources[name].batch_weights(
                    table_batches[name].num_rows, i - 1
                ) if name in weight_sources else None)
                for name in self.streamed_tables
            }
            # Multiplicity k/i.  Every streamed table is cut into the
            # same k batches, so one scale serves all of them.
            scale = k / i

            slot_states: Dict[int, object] = dict(self.static_states)
            penv = Environment(functions=self.functions)
            for state in slot_states.values():
                state.bind_point(penv)

            rows_processed: Dict[str, int] = {}
            uncertain_sizes: Dict[str, int] = {}
            rebuilds: List[str] = []

            # Topological order: each block folds the batch against the
            # slots its producers have already published this batch.
            for block in self._online_blocks:
                table = self.block_tables[block.block_id]
                # Only this block's runtime mutates.
                with tracer.span("block", block=block.block_id) as bl:
                    stats = self.runtimes[block.block_id].process_batch(
                        i, table_batches[table], weights[table],
                        slot_states, penv, lambda: self._seen(table, i),
                    )
                    bl.set("rows_in", stats.rows_in)
                    bl.set("rows_processed", stats.rows_processed)
                    bl.set("uncertain", stats.uncertain_size)
                    if stats.rebuilt:
                        bl.set("rebuilt", True)
                if phases is not None:
                    phases["fold"] += bl.elapsed_s
                rows_processed[block.block_id] = stats.rows_processed
                uncertain_sizes[block.block_id] = stats.uncertain_size
                if stats.rebuilt:
                    rebuilds.append(block.block_id)
                if block.produces is None:
                    continue
                with tracer.span("phase:publish",
                                 block=block.block_id) as pub:
                    state = self.runtimes[block.block_id].publish(
                        penv, slot_states, scale
                    )
                if phases is not None:
                    phases["publish"] += pub.elapsed_s
                slot_states[block.produces] = state
                state.bind_point(penv)

            with tracer.span("phase:snapshot") as snap_span:
                out_table, col_errors = self.main_runtime.snapshot_output(
                    penv, slot_states, scale
                )
                errors = _column_errors(self.main_runtime.fold, out_table,
                                        col_errors, self.config.confidence)
            if phases is not None:
                phases["snapshot"] += snap_span.elapsed_s
            total_rows = sum(rows_processed.values())
            total_uncertain = sum(uncertain_sizes.values())
            bspan.set("rows_processed", total_rows)
            bspan.set("uncertain", total_uncertain)
            bspan.set("rebuilds", len(rebuilds))
        elapsed = batch_timer.elapsed_s
        metrics = tracer.metrics
        if metrics.enabled:
            metrics.counter("controller.batches").inc()
            metrics.counter("controller.rows_processed").inc(total_rows)
            metrics.counter("controller.rebuilds").inc(len(rebuilds))
            metrics.gauge("controller.uncertain").set(total_uncertain)
            metrics.histogram("controller.batch_seconds").observe(elapsed)
        return OnlineSnapshot(
            batch_index=i, num_batches=k, table=out_table,
            errors=errors, uncertain_sizes=uncertain_sizes,
            rows_processed=rows_processed, rebuilds=rebuilds,
            elapsed_s=elapsed, confidence=self.config.confidence,
            phase_seconds=phases,
        )



def _run_static(spec, tables: Dict[str, Table], udafs, functions,
                tracer: Tracer, trials: int) -> object:
    """Evaluate a dimension-table subquery exactly, once.

    Static values are certain: their variation ranges are degenerate and
    their replicas constant, so consumers classify against them
    deterministically from the first batch.
    """
    executor = BatchExecutor(tables, udafs, functions, tracer=tracer)
    with tracer.span("phase:static", slot=spec.slot, kind=spec.kind):
        result = executor.run_plan(spec.plan)
    if spec.kind == "scalar":
        values = result.column(spec.value_column)
        value = float(values[0]) if len(values) else float("nan")
        return ScalarSlotState(
            slot=spec.slot, estimate=value,
            replicas=np.full(trials, value),
            vrange=VariationRange.degenerate(value),
        )
    if spec.kind == "keyed":
        keys = result.column(spec.key_column)
        values = result.column(spec.value_column).astype(np.float64)
        index = GroupIndex()
        index.encode(keys)
        return KeyedSlotState(
            slot=spec.slot, index=index, estimates=values,
            replicas=np.repeat(values[:, None], trials, axis=1),
            lows=values.copy(), highs=values.copy(),
        )
    members = set(result.column(spec.value_column).tolist())
    return SetSlotState(
        slot=spec.slot, point_members=members,
        tri_status={k: TRI_TRUE for k in members},
        default_status=TRI_FALSE,
    )


def _column_errors(fold, out_table: Table, col_errors: Dict[str, np.ndarray],
                   confidence: float) -> Dict[str, ColumnErrors]:
    """Each column's interval and relative sd, by the main block's own
    error fold."""
    errors: Dict[str, ColumnErrors] = {}
    for name, err in col_errors.items():
        lows, highs, rel_stdev = fold.intervals(
            out_table.column(name).astype(np.float64), err, confidence,
        )
        errors[name] = ColumnErrors(lows=lows, highs=highs,
                                    rel_stdev=rel_stdev)
    return errors


def _open_detached(tracer: Tracer, span) -> Optional[int]:
    """Enter a query span and pop it off the thread's span stack.

    The query span stays open across steps, so its elapsed time includes
    consumer think time between snapshots; per-batch work is what the
    child batch spans measure.  Popping it keeps a scheduler that
    interleaves many queries on one thread from nesting one query's
    spans under another's; each step re-parents under the returned id
    explicitly.
    """
    span.__enter__()
    span_id = getattr(span, "span_id", None)
    if span_id is not None:
        stack = tracer._stack
        if stack and stack[-1] == span_id:
            stack.pop()
    return span_id


def _close_detached(tracer: Tracer, span, span_id: Optional[int]) -> None:
    """Exit a span :func:`_open_detached` entered, against a clean scope
    so the record closes correctly while other queries' spans are open."""
    if span_id is None:
        span.__exit__(None, None, None)
        return
    with tracer.scoped_parent(None):
        span.__exit__(None, None, None)
