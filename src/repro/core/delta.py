"""Per-lineage-block delta maintenance (paper section 3).

Each lineage block (one SPJA subtree — a subquery or the main query) gets
a :class:`BlockRuntime` that runs the paper's loop per batch — check the
guards, run the certain pipeline, **classify** the new rows plus the
cached ones (three-valued, :mod:`.classify`), **cache** the UNKNOWN
rows, **fold** the TRUE ones, then **publish** a slot state or a
snapshot — touching ``O(|ΔD_i| + |U_{i-1}|)`` rows instead of
``O(|D_i|)``, the whole point of G-OLA.  Each of the paper's ideas has
one owner, chosen once when the runtime is built:

* :class:`~repro.core.guards.BlockGuards` — the three-valued
  classification of the block's uncertain predicates and what every
  folded decision relied on; once a decision no longer holds at the
  slots' point values, the block *rebuilds* from the batches seen so
  far, re-read from the session's batch store (the paper's
  failure-recovery path);
* :class:`UncertainCache` — the uncertain set: cached rows whose
  decisions may still flip, stored with exactly the lineage the block
  needs (predicate columns, group indices, aggregate argument values,
  bootstrap weight rows), and which of them pass under the slots' point
  values or each trial's replicas;
* the block's fold (:mod:`.folds`) — mergeable exact states plus one
  kind of error state: bootstrap trial states and ``(G, B)`` replicas,
  or, for a closed-form block (see :mod:`.meta_plan`), exact width-1
  moment states and ``(G,)`` variances.

Everything relational underneath (joins, group indices, sort order,
window frames) is :mod:`repro.engine`'s.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import GolaConfig
from ..engine.aggregates import GroupIndex, UDAFRegistry, argument_values
from ..engine.operators import (
    JoinIndex,
    build_join_index,
    group_indices,
    probe_join,
    window_order,
    windowed_values,
)
from ..errors import ExecutionError, UnsupportedQueryError
from ..estimate.bootstrap import as_batch_weights
from ..estimate.variation import range_from_replicas, \
    ranges_from_replica_matrix
from ..expr.expressions import (
    EMPTY_ENV,
    ArrayTable,
    ColumnRef,
    Environment,
    Expression,
    SubqueryRef,
    conjuncts,
    evaluate_mask,
    subquery_nodes,
)
from ..expr.tristate import TRI_FALSE, TRI_TRUE, TRI_UNKNOWN
from ..obs import NULL_TRACER
from ..parallel import SERIAL_EXECUTOR
from ..plan.lineage_blocks import LineageBlock
from ..plan.logical import (
    Aggregate,
    Filter,
    Join,
    Limit,
    LogicalPlan,
    Project,
    Scan,
    Sort,
    SubquerySpec,
    Window,
)
from ..storage.table import Schema, Table
from .classify import IntervalEnv, tri_eval
from .folds import BootstrapFold, ClosedFormFold
from .guards import BlockGuards
from .lineage import lineage_columns
from .uncertain import KeyedSlotState, ScalarSlotState, SetSlotState


@dataclass
class BlockPipeline:
    """The parsed structure of one lineage block's plan."""

    scan: Scan
    certain_steps: List  # mix of ("filter", Expression) and ("join", Join)
    uncertain_predicates: List[Expression]
    aggregate: Aggregate
    project: Optional[Project]
    window: Optional[Window]
    sort: Optional[Sort]
    limit: Optional[Limit]
    #: Step id -> the build-side index of that dimension join, built on
    #: first use (once per run).
    join_indices: Dict[int, JoinIndex] = field(default_factory=dict)

    def post_certain_schema(self) -> Schema:
        schema = self.scan.schema
        for kind, step in self.certain_steps:
            if kind == "join":
                schema = step.schema
        return schema

    def apply_certain(self, table: Table, penv: Environment,
                      dimension_tables: Dict[str, Table],
                      ) -> Tuple[Table, Optional[np.ndarray]]:
        """Run the stable (slot-free) filters and dimension joins.

        Returns the surviving rows plus their positions in the original
        batch (None when every row survived) — the indirection that lets
        bootstrap weights stay lazy until a kernel actually needs them.
        """
        pos: Optional[np.ndarray] = None
        for step_id, (kind, step) in enumerate(self.certain_steps):
            # No early-out on an empty table: join steps must still run
            # for their schema effect, or a batch filtered to zero rows
            # loses the dimension columns its group-by/aggregates
            # reference (caught by the deep fuzz grammar's empty-group
            # bias).
            if kind == "filter":
                mask = evaluate_mask(step, table, penv)
                table = table.take(mask)
                pos = np.nonzero(mask)[0] if pos is None else pos[mask]
                continue
            right = dimension_tables.get(step.right.table_name)
            if right is None:
                raise ExecutionError(
                    f"dimension table {step.right.table_name!r} not bound"
                )
            index = self.join_indices.get(step_id)
            if index is None:
                index = self.join_indices[step_id] = build_join_index(
                    right, [r for _, r in step.keys]
                )
            table, keep = probe_join(table, right, index, step.keys,
                                     step.how)
            if keep is not None:
                pos = np.nonzero(keep)[0] if pos is None else pos[keep]
        return table, pos


def parse_block(plan: LogicalPlan) -> BlockPipeline:
    """Decompose a block plan into its online-executable pieces."""
    sort = limit = project = window = None
    node = plan
    if isinstance(node, Limit):
        limit = node
        node = node.input
    if isinstance(node, Sort):
        sort = node
        node = node.input
    if isinstance(node, Window):
        window = node
        node = node.input
    if isinstance(node, Project):
        project = node
        node = node.input
    if not isinstance(node, Aggregate):
        raise UnsupportedQueryError(
            "online execution requires an aggregate query (OLA refines "
            "aggregates; plain SELECTs have nothing to refine)"
        )
    aggregate = node

    certain_steps: List = []
    uncertain_predicates: List[Expression] = []
    node = aggregate.input
    while True:
        if isinstance(node, Filter):
            for conj in conjuncts(node.predicate):
                if conj.subquery_slots():
                    uncertain_predicates.append(conj)
                else:
                    certain_steps.append(("filter", conj))
            node = node.input
        elif isinstance(node, Join):
            certain_steps.append(("join", node))
            node = node.left
        elif isinstance(node, Scan):
            break
        else:
            raise UnsupportedQueryError(
                f"unsupported operator {type(node).__name__} below an "
                "aggregate in online mode"
            )
    certain_steps.reverse()  # apply bottom-up: scan order first

    for expr, _ in aggregate.group_by:
        if expr.subquery_slots():
            raise UnsupportedQueryError(
                "GROUP BY expressions cannot reference subqueries"
            )
    for call in aggregate.aggregates:
        if call.arg is not None and call.arg.subquery_slots():
            raise UnsupportedQueryError(
                "aggregate arguments cannot reference subqueries"
            )

    return BlockPipeline(
        scan=node,
        certain_steps=certain_steps,
        uncertain_predicates=uncertain_predicates,
        aggregate=aggregate,
        project=project,
        window=window,
        sort=sort,
        limit=limit,
    )


@dataclass
class CachedRows:
    """The uncertain set, with its lineage, weights and precomputations."""

    table: Table  # lineage columns needed to re-evaluate predicates
    weights: np.ndarray  # (m, B) uint8
    group_idx: np.ndarray  # (m,) dense indices into the block's GroupIndex
    values: Dict[str, np.ndarray]  # agg alias -> (m,) argument values
    #: Keyed slot -> (m,) indices of the rows' keys in its GroupIndex.
    slot_idx: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.group_idx)

    @staticmethod
    def concat(parts: Sequence["CachedRows"]) -> "CachedRows":
        return CachedRows(
            table=Table.concat([p.table for p in parts]),
            weights=np.concatenate([p.weights for p in parts]),
            group_idx=np.concatenate([p.group_idx for p in parts]),
            values={
                a: np.concatenate([p.values[a] for p in parts])
                for a in parts[0].values
            },
            slot_idx={
                s: np.concatenate([p.slot_idx[s] for p in parts])
                for s in parts[0].slot_idx
            },
        )

    def take(self, mask: np.ndarray) -> "CachedRows":
        return CachedRows(
            table=self.table.take(mask),
            weights=self.weights[mask],
            group_idx=self.group_idx[mask],
            values={a: v[mask] for a, v in self.values.items()},
            slot_idx={s: i[mask] for s, i in self.slot_idx.items()},
        )


class UncertainCache:
    """The uncertain set ``U`` of one block: its rows (see
    :class:`CachedRows`), their admission and eviction, and which of
    them pass under the slots' point values or each trial's replicas.
    A ``GroupIndex`` only grows, so a row's carried keyed-slot index is
    re-encoded only while -1 and the index grew, or once the slot's
    index is replaced (a producer rebuild; a copied cache has no tie)."""

    def __init__(self, predicates: List[Expression], consumes,
                 schema: Schema, aliases: Sequence[str], trials: int):
        self.predicates = predicates
        self.consumes = consumes
        self.trials = trials
        #: Keyed slot -> its correlation expression.
        self.keyed = {
            ref.slot: ref.correlation
            for p in predicates for ref in subquery_nodes(p)
            if isinstance(ref, SubqueryRef) and ref.correlation is not None
        }
        self.rows = CachedRows(
            table=Table.empty(schema),
            weights=np.empty((0, trials), dtype=np.uint8),
            group_idx=np.empty(0, dtype=np.int64),
            values={alias: np.empty(0) for alias in aliases},
            slot_idx={s: np.empty(0, dtype=np.int64) for s in self.keyed},
        )
        #: Keyed slot -> ``(GroupIndex, num_groups)`` last encoded against.
        self._tied: Dict[int, Tuple[GroupIndex, int]] = {}

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_tied": {}}

    @property
    def size(self) -> int:
        return self.rows.size

    def admit(self, incoming: CachedRows, slot_states) -> CachedRows:
        """This batch's candidates: the cached rows, then ``incoming``,
        all carrying their keyed-slot indices."""
        self._refresh(slot_states)
        incoming.slot_idx = {
            slot: slot_states[slot].encode(
                corr.evaluate(incoming.table, EMPTY_ENV))
            for slot, corr in self.keyed.items()
        }
        if not self.rows.size:
            return incoming
        return CachedRows.concat([self.rows, incoming])

    def _refresh(self, slot_states) -> None:
        """Re-encode the cached rows whose carried index may be stale."""
        for slot, corr in self.keyed.items():
            index = slot_states[slot].index
            tied = self._tied.get(slot, (None, 0))
            if tied == (index, index.num_groups):
                continue
            idx = self.rows.slot_idx[slot]
            stale = idx < 0 if tied[0] is index else np.full(len(idx), True)
            self._tied[slot] = (index, index.num_groups)
            if stale.any():
                keys = np.asarray(corr.evaluate(self.rows.table, EMPTY_ENV))
                idx[stale] = slot_states[slot].encode(keys[stale])

    def keep(self, candidates: CachedRows, mask: np.ndarray) -> None:
        """Cache the candidates ``mask`` selects; evict the rest."""
        self.rows = candidates.take(mask)

    def clear(self) -> None:
        self.rows = self.rows.take(np.zeros(self.size, dtype=bool))

    def _keyed_rows(self, slot_states, values: str, transpose=False):
        """``default -> array`` bindings of each keyed slot's ``values``
        attribute for the cached rows, through their carried indices."""
        self._refresh(slot_states)

        def lookup(state, idx, default):
            out = state.gather(idx, getattr(state, values), default)
            return out.T if transpose else out
        return {slot: partial(lookup, slot_states[slot], idx)
                for slot, idx in self.rows.slot_idx.items()}

    def point_mask(self, slot_states, penv: Environment
                   ) -> Optional[np.ndarray]:
        """Cached rows passing every uncertain predicate under the point
        values, or None when none does."""
        if not self.rows.size:
            return None
        env = Environment(
            scalars=penv.scalars, keyed=penv.keyed, key_sets=penv.key_sets,
            functions=penv.functions,
            keyed_rows=self._keyed_rows(slot_states, "estimates"),
        )
        mask = np.ones(self.rows.size, dtype=bool)
        for predicate in self.predicates:
            mask &= evaluate_mask(predicate, self.rows.table, env)
        return mask if mask.any() else None

    def trial_masks(self, slot_states, penv: Environment) -> np.ndarray:
        """Per-trial pass masks for the cached rows: ``(|U|, B)``.

        Column ``j`` is the uncertain predicates over the cache with
        every consumed scalar/keyed slot at its j-th bootstrap replica —
        the per-trial analogue of the paper's "compute Q on the simulated
        database" — from one array evaluation per predicate: replicas
        enter with the trial axis leading (``(B, 1)`` scalars, ``(B, |U|)``
        keyed gathers), so they broadcast against the cache's ``(|U|,)``
        columns and every certain sub-expression sees the arrays a point
        evaluation sees.  Set-membership slots keep point membership
        (per-trial membership would require re-running the producer's
        HAVING per trial).
        """
        env = Environment(
            key_sets=penv.key_sets, functions=penv.functions,
            keyed_rows=self._keyed_rows(slot_states, "replicas",
                                        transpose=True),
        )
        for slot in self.consumes:
            state = slot_states[slot]
            if isinstance(state, ScalarSlotState):
                env.scalars[slot] = state.replicas[:, None]
        out = np.ones((self.trials, self.rows.size), dtype=bool)
        # A MIN/MAX trial that never sampled a group holds +-inf there,
        # and arithmetic over two such replicas can make a NaN, which
        # fails its comparison like a NULL.
        with np.errstate(invalid="ignore"):
            for predicate in self.predicates:
                out &= np.asarray(
                    predicate.evaluate(self.rows.table, env), dtype=bool
                )
        return np.ascontiguousarray(out.T)  # row-major, like the weights


@dataclass
class BlockBatchStats:
    """Per-batch accounting the benchmarks consume."""

    batch_index: int
    rows_in: int
    candidates: int
    folded_pass: int
    folded_fail: int
    uncertain_size: int
    rebuilt: bool
    rebuild_rows: int

    @property
    def rows_processed(self) -> int:
        return self.candidates + self.rebuild_rows


class BlockRuntime:
    """Online (delta-maintained) execution state for one lineage block."""

    def __init__(self, block: LineageBlock, spec: Optional[SubquerySpec],
                 config: GolaConfig, dimension_tables: Dict[str, Table],
                 udafs: Optional[UDAFRegistry] = None,
                 closed_form: Optional[Dict[str, Tuple[str, float]]] = None):
        self.block = block
        self.spec = spec
        self.config = config
        self.trials = config.bootstrap_trials
        self.pipeline = pipeline = parse_block(block.plan)
        self.dimension_tables = dimension_tables

        aggregates = pipeline.aggregate.aggregates
        self.group_index = GroupIndex()
        # An empty fold of the block's kind: ``closed_form`` (output
        # column -> ``(alias, c)``, see
        # :func:`~repro.core.meta_plan.closed_form_plan`) picks moments
        # over bootstrap replicas.
        self._empty_fold = (
            partial(BootstrapFold, aggregates, self.trials, config.seed,
                    udafs) if closed_form is None
            else partial(ClosedFormFold, aggregates, closed_form,
                         config.seed)
        )
        #: Exact, presence and error state.
        self.fold = self._empty_fold()
        # Lineage minimization: only keep what re-evaluation needs.
        schema = pipeline.post_certain_schema()
        self._needed_columns = lineage_columns(
            pipeline.uncertain_predicates, pipeline.aggregate.group_by,
            schema,
        )
        self.cache = UncertainCache(
            pipeline.uncertain_predicates, block.consumes,
            schema.select(self._needed_columns),
            [call.alias for call in aggregates], self.trials,
        )
        self.guards = BlockGuards(pipeline.uncertain_predicates)
        self.stats_history: List[BlockBatchStats] = []
        self.recompute_count = 0
        #: Observability hook; the controller installs its tracer here.
        self.tracer = NULL_TRACER
        #: Bootstrap-fold executor; the controller installs a configured
        #: :class:`~repro.parallel.ParallelExecutor` here.  The default
        #: runs everything inline with identical results.
        self.executor = SERIAL_EXECUTOR

    # -- checkpoint / resume -------------------------------------------

    #: The mutable per-run state a checkpoint must capture: the three
    #: owners and the block's own bookkeeping.  Derived caches (join
    #: indices) and construction-time structure (pipeline, dimension
    #: tables, tracer, executor) are rebuilt/re-injected on resume.
    _CHECKPOINT_FIELDS = (
        "group_index", "fold", "cache", "guards", "stats_history",
        "recompute_count",
    )

    def state_checkpoint(self) -> dict:
        """Deep-copied folded state + uncertain cache + guards.

        The copy is detached from the live run: checkpointing between
        batches and continuing does not alias any mutable state.
        """
        return copy.deepcopy(
            {name: getattr(self, name) for name in self._CHECKPOINT_FIELDS}
        )

    def restore_checkpoint(self, state: dict) -> None:
        """Install state captured by :meth:`state_checkpoint`; the
        runtime takes ``state`` over, so hand it a copy
        (:meth:`~repro.faults.RunCheckpoint.copy_block_states`)."""
        for name in self._CHECKPOINT_FIELDS:
            setattr(self, name, state[name])

    def reset(self) -> None:
        """Drop all folded state (the rebuild entry point)."""
        self.fold = self._empty_fold()
        self.group_index = GroupIndex()
        self.cache.clear()
        self.guards.reset()

    # ------------------------------------------------------------------
    # Batch processing
    # ------------------------------------------------------------------

    def process_batch(self, batch_index: int, batch: Table,
                      weights,
                      slot_states: Dict[int, object],
                      penv: Environment,
                      seen: Callable[[], Sequence[Tuple[Table, object]]],
                      ) -> BlockBatchStats:
        """Fold one mini-batch, reclassify the uncertain set, update guards.

        ``weights`` is the batch's ``(n, B)`` Poisson matrix or a
        :class:`~repro.estimate.bootstrap.BatchWeights` handle (the
        controller passes handles, so every read — pooled folds' through
        the fold's shared-memory segment — is of the session's stored
        rectangle).  ``seen()`` returns the ``(batch, weights)`` pairs of
        every batch folded so far, the current one included: the rebuild
        path re-folds them, and nothing else calls it.
        """
        tracer = self.tracer
        # A closed-form block is handed no weights and reads none.
        wsrc = None if weights is None else as_batch_weights(weights)
        ienv = IntervalEnv(slots=slot_states, point=penv)
        with tracer.span("phase:guards", block=self.block.block_id) as gs:
            violation = self.guards.violation(ienv)
            if violation is not None:
                gs.set("violation", violation)
        if violation is not None:
            self.reset()
            self.recompute_count += 1
            pairs = seen()
            merged = Table.concat([t for t, _ in pairs])
            # uint8 rows read from the store; nothing is pinned.
            merged_w = np.concatenate(
                [as_batch_weights(w).dense() for _, w in pairs]
            )
            rebuild_rows = merged.num_rows
            with tracer.span("phase:rebuild", block=self.block.block_id,
                             cause=violation, rows_in=rebuild_rows):
                stats = self._ingest(
                    batch_index, merged, as_batch_weights(merged_w),
                    slot_states, penv,
                )
            if tracer.metrics.enabled:
                tracer.metrics.counter("delta.rebuilds").inc()
                tracer.metrics.counter("delta.rebuild_rows").inc(rebuild_rows)
            stats = replace(stats, rows_in=batch.num_rows, rebuilt=True,
                            rebuild_rows=rebuild_rows)
        else:
            stats = self._ingest(batch_index, batch, wsrc, slot_states,
                                 penv)
        if tracer.metrics.enabled:
            tracer.metrics.histogram(
                "delta.uncertain_size"
            ).observe(stats.uncertain_size)
        self.stats_history.append(stats)
        return stats

    def _ingest(self, batch_index: int, batch: Table, wsrc,
                slot_states: Dict[int, object],
                penv: Environment) -> BlockBatchStats:
        tracer = self.tracer
        rows_in = batch.num_rows
        piped, pos = self.pipeline.apply_certain(
            batch, penv, self.dimension_tables)
        incoming = self._prepare_rows(piped, penv)

        if not self.pipeline.uncertain_predicates:
            # No uncertain set: rows fold immediately, straight from the
            # handle — pooled trial shards read its stored rectangle from
            # the fold's shared-memory segment.
            with tracer.span("phase:fold", block=self.block.block_id,
                             rows_in=incoming.size):
                self.fold.fold(incoming, wsrc, pos, self.executor)
            if tracer.metrics.enabled:
                tracer.metrics.counter(
                    "delta.rows_folded"
                ).inc(incoming.size)
            return BlockBatchStats(
                batch_index=batch_index, rows_in=rows_in,
                candidates=incoming.size, folded_pass=incoming.size,
                folded_fail=0, uncertain_size=0, rebuilt=False,
                rebuild_rows=0,
            )

        # Uncertain path: cached rows carry their uint8 weight rows
        # (they may be re-folded under any future classification), so
        # gather the incoming rows' weights now.
        incoming.weights = wsrc.rows(pos)
        cached_in = self.cache.size
        candidates = self.cache.admit(incoming, slot_states)
        ienv = IntervalEnv(slots=slot_states, point=penv,
                           rows=candidates.slot_idx)
        with tracer.span("phase:classify", block=self.block.block_id,
                         rows_in=candidates.size, cached_in=cached_in,
                         incoming=incoming.size) as cls_span:
            tri = self.guards.classify(candidates.table, ienv)

            pass_mask = tri == TRI_TRUE
            fail_mask = tri == TRI_FALSE
            unknown_mask = tri == TRI_UNKNOWN
            folded_pass = int(pass_mask.sum())
            folded_fail = int(fail_mask.sum())
            if tracer.enabled:
                # Cache accounting: a cached row re-classified to a
                # deterministic status is *resolved* (evicted from the
                # uncertain set); the rest are retained another batch.
                cache_retained = int(unknown_mask[:cached_in].sum())
                cls_span.set("folded_pass", folded_pass)
                cls_span.set("folded_fail", folded_fail)
                cls_span.set("unknown", int(unknown_mask.sum()))
                cls_span.set("cache_resolved", cached_in - cache_retained)
                cls_span.set("cache_retained", cache_retained)
        with tracer.span("phase:fold", block=self.block.block_id,
                         rows_in=folded_pass):
            passing = candidates.take(pass_mask)
            self.fold.fold(passing, passing.weights, None, self.executor)
        self.cache.keep(candidates, unknown_mask)
        if tracer.metrics.enabled:
            tracer.metrics.counter("delta.rows_folded").inc(folded_pass)
            tracer.metrics.counter(
                "delta.rows_classified"
            ).inc(candidates.size)

        return BlockBatchStats(
            batch_index=batch_index, rows_in=rows_in,
            candidates=candidates.size,
            folded_pass=folded_pass,
            folded_fail=folded_fail,
            uncertain_size=self.cache.size,
            rebuilt=False, rebuild_rows=0,
        )

    def _prepare_rows(self, table: Table,
                      penv: Environment) -> CachedRows:
        """Precompute group indices and aggregate args for new rows.

        The returned rows carry no weights (``weights=None``); callers
        that need dense weight rows assign them afterwards.
        """
        agg = self.pipeline.aggregate
        n = table.num_rows
        group_idx, _ = group_indices(table, agg.group_by, penv,
                                     self.group_index)

        values: Dict[str, np.ndarray] = {}
        for call in agg.aggregates:
            if call.arg is None:
                values[call.alias] = np.ones(n)
            else:
                values[call.alias] = argument_values(
                    call, call.arg.evaluate(table, penv), n
                )
        return CachedRows(
            table=table.select(self._needed_columns), weights=None,
            group_idx=group_idx, values=values,
        )

    # ------------------------------------------------------------------
    # Snapshots and publishing
    # ------------------------------------------------------------------

    def _finalize(self, penv: Environment, slot_states, scale: float):
        """The folded and currently-passing cached rows, finalized:
        ``(point_table, estimates, errors, present, group_cols)``, the
        point table holding the ``(G,)`` aggregates and group keys."""
        num_groups = max(self.group_index.num_groups, 1)
        estimates, errors, present = self.fold.finalize(
            num_groups, scale, self.cache, slot_states, penv
        )
        group_cols = _group_key_columns(
            self.pipeline.aggregate, self.group_index, num_groups)
        point_table = ArrayTable({**estimates, **group_cols}, num_groups)
        return point_table, estimates, errors, present, group_cols

    def publish(self, penv: Environment, slot_states, scale: float):
        """Produce this block's slot state for downstream consumers.

        A producing block always keeps bootstrap replicas
        (:func:`~repro.core.meta_plan.closed_form_plan`), so its errors
        are ``(G, B)`` replica matrices.
        """
        spec = self.spec
        if spec is None:
            raise ExecutionError("main block does not publish a slot")
        point_table, estimates, replicas, present, group_cols = \
            self._finalize(penv, slot_states, scale)
        num_groups = point_table.num_rows
        eps = self.config.epsilon_multiplier
        if spec.kind == "set":
            return _set_state(
                spec.slot, self.pipeline.aggregate.having,
                self.group_index.keys(), present, point_table, estimates,
                replicas, slot_states, penv, eps,
            )

        value_expr = _project_expr(self.pipeline.project, spec.value_column)
        point_vals = np.asarray(
            value_expr.evaluate(point_table, penv), dtype=np.float64
        )
        if point_vals.ndim == 0:
            point_vals = np.full(num_groups, float(point_vals))
        replica_vals = np.asarray(
            value_expr.evaluate(
                self.fold.replica_table(replicas, group_cols, num_groups),
                _replica_env(penv, slot_states),
            ),
            dtype=np.float64,
        )
        if replica_vals.ndim < 2:
            replica_vals = np.broadcast_to(
                replica_vals, (num_groups, self.trials)
            )
        if spec.kind == "scalar":
            return ScalarSlotState(
                slot=spec.slot,
                estimate=float(point_vals[0]),
                replicas=replica_vals[0].copy(),
                vrange=range_from_replicas(
                    float(point_vals[0]), replica_vals[0], eps,
                ),
            )
        lows, highs = ranges_from_replica_matrix(
            point_vals, replica_vals, eps
        )
        return KeyedSlotState(
            slot=spec.slot,
            index=self.group_index,
            estimates=point_vals,
            replicas=replica_vals,
            lows=lows,
            highs=highs,
            present=present,
        )

    def snapshot_output(self, penv: Environment, slot_states, scale: float):
        """The main block's current result table plus per-column error data.

        Returns ``(table, column_errors)`` where ``column_errors`` maps
        numeric output columns to the fold's error data, aligned with the
        returned table's rows: ``(rows, B)`` replica matrices, or ``(rows,)``
        variances from a closed-form block.
        """
        point_table, _, errors, present, group_cols = self._finalize(
            penv, slot_states, scale
        )
        agg = self.pipeline.aggregate
        num_groups = point_table.num_rows

        # Grouped queries emit only groups with qualifying data; a global
        # aggregate always emits its single row (SQL semantics).
        keep = present.copy() if agg.group_by else np.ones(num_groups,
                                                           dtype=bool)
        if agg.having is not None:
            having_mask = np.broadcast_to(
                np.asarray(agg.having.evaluate(point_table, penv),
                           dtype=bool),
                (num_groups,),
            )
            keep = keep & having_mask

        project = self.pipeline.project
        exprs = (
            project.exprs if project is not None
            else [(ColumnRef(n), n) for n in agg.schema.names]
        )
        out_columns: Dict[str, np.ndarray] = {}
        for expr, name in exprs:
            raw = np.asarray(expr.evaluate(point_table, penv))
            if raw.ndim == 0:
                raw = np.full(num_groups, raw[()])
            out_columns[name] = raw[keep]
        col_errors = {
            name: err[keep] for name, err in self.fold.column_errors(
                exprs, errors, group_cols, num_groups,
                _replica_env(penv, slot_states),
            ).items()
        }

        if self.pipeline.window is not None:
            out_columns, col_errors = _apply_window(
                self.pipeline.window, self.fold, out_columns, col_errors
            )
        table = Table.from_columns(out_columns)
        if self.pipeline.sort is not None:
            sort_keys = self.pipeline.sort.keys
            order = table.sort_order([k for k, _ in sort_keys],
                                     [d for _, d in sort_keys])
            table = table.take(order)
            col_errors = {k: v[order] for k, v in col_errors.items()}
        if self.pipeline.limit is not None:
            n = min(self.pipeline.limit.n, table.num_rows)
            table = table.slice(0, n)
            col_errors = {k: v[:n] for k, v in col_errors.items()}
        return table, col_errors


def _set_state(slot: int, having: Optional[Expression], keys: list,
               present: np.ndarray, point_table: ArrayTable,
               estimates: Dict[str, np.ndarray],
               replicas: Dict[str, np.ndarray], slot_states,
               penv: Environment, eps: float) -> SetSlotState:
    """A set-producing block's membership state.

    Membership is decided by the block's HAVING, classified per group
    like any other predicate — its aggregates are interval-valued
    columns spanning their replica ranges.
    """
    keys = np.array(keys, dtype=object)
    present_keys = present[: len(keys)]
    if having is None:
        point_members = set(keys[present_keys].tolist())
        tri_status = {
            k: (TRI_TRUE if ok else TRI_UNKNOWN)
            for k, ok in zip(keys.tolist(), present_keys)
        }
    else:
        point_mask = np.broadcast_to(
            np.asarray(having.evaluate(point_table, penv), dtype=bool),
            (point_table.num_rows,),
        )
        point_members = set(
            keys[point_mask[: len(keys)] & present_keys].tolist()
        )
        ienv = IntervalEnv(slots=slot_states, point=penv, columns={
            alias: ranges_from_replica_matrix(estimates[alias], matrix, eps)
            for alias, matrix in replicas.items()
        })
        tri = tri_eval(having, point_table, ienv)
        tri_status = {
            k: (int(t) if ok else int(TRI_UNKNOWN))
            for k, t, ok in zip(keys.tolist(), tri.tolist(), present_keys)
        }
    return SetSlotState(slot=slot, point_members=point_members,
                        tri_status=tri_status)


def _apply_window(window: Window, fold, out_columns: Dict[str, np.ndarray],
                  col_errors: Dict[str, np.ndarray]):
    """Evaluate a block's window calls over its snapshot rows.

    The total order comes from the *point* columns (the ORDER BY column
    plus group-key tiebreaks are exact values, identical across
    execution paths); ``fold`` carries each window column's error data
    through the same frames.
    """
    for call in window.calls:
        order = window_order(out_columns, call, window.tiebreak)
        arg = out_columns[call.arg] if call.arg is not None else None
        out_columns[call.alias] = windowed_values(call, arg, order)
        err = col_errors.get(call.arg)
        if err is not None:
            col_errors[call.alias] = fold.window_error(call, err, order)
    ordered = {n: out_columns[n] for n in window.output_order}
    return ordered, col_errors


def _group_key_columns(agg: Aggregate, index: GroupIndex,
                       num_groups: int) -> Dict[str, np.ndarray]:
    """A block's ``(G,)`` group-key columns, by output name."""
    if not agg.group_by:
        return {}
    keys = index.keys()
    out: Dict[str, np.ndarray] = {}
    if len(agg.group_by) == 1:
        name = agg.group_by[0][1]
        arr = np.empty(num_groups, dtype=object)
        arr[: len(keys)] = keys
        out[name] = arr
    else:
        for pos, (_, name) in enumerate(agg.group_by):
            arr = np.empty(num_groups, dtype=object)
            arr[: len(keys)] = [k[pos] for k in keys]
            out[name] = arr
    return out


def _project_expr(project: Optional[Project], name: str) -> Expression:
    if project is None:
        return ColumnRef(name)
    for expr, out_name in project.exprs:
        if out_name == name:
            return expr
    raise ExecutionError(f"projection has no column {name!r}")


def _replica_env(penv: Environment, slot_states) -> Environment:
    """Environment for matrix (replica) evaluation of projections.

    Scalar slots are bound to their replica vectors so trial-wise
    arithmetic broadcasts; keyed slots fall back to point values (a
    documented approximation — error bars slightly understate the inner
    uncertainty there).
    """
    env = Environment(
        scalars=dict(penv.scalars), keyed=dict(penv.keyed),
        key_sets=dict(penv.key_sets), functions=penv.functions,
    )
    for slot, state in slot_states.items():
        if isinstance(state, ScalarSlotState):
            env.scalars[slot] = state.replicas
    return env
