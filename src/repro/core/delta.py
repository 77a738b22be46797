"""Per-lineage-block delta maintenance (paper section 3).

Each lineage block (one SPJA subtree — a subquery or the main query) gets
a :class:`BlockRuntime` holding:

* **folded state** — mergeable aggregate states (exact + one per
  bootstrap trial) containing every tuple whose predicate decisions are
  deterministic under the variation ranges in force when it was folded;
  a closed-form block (see :mod:`.meta_plan`) folds exact width-1
  moment states instead of trial states and never reads a weight;
* **the uncertain set** — cached tuples whose decisions may still flip,
  stored with exactly the lineage the block needs (predicate columns,
  group indices, aggregate argument values, bootstrap weight rows);
* **guards** — the intersection of every variation range under which this
  block ever folded a decision; if a consumed slot's running value or any
  bootstrap replica escapes its guard, the block's folded decisions are
  no longer trustworthy and it *rebuilds* from the retained raw batches
  (the paper's failure-recovery path).

Per batch the block runs the paper's loop — check guards, run the
certain pipeline, **classify** the new rows plus the cached ones
(three-valued, :mod:`.classify`), **cache** the UNKNOWN rows, **fold**
the TRUE ones, then **publish** a slot state or a snapshot — touching
``O(|ΔD_i| + |U_{i-1}|)`` rows instead of ``O(|D_i|)``, the whole point
of G-OLA.  Everything relational underneath (joins, group indices,
sort order, window frames) is :mod:`repro.engine`'s.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..config import GolaConfig
from ..engine.aggregates import (
    AggState,
    GroupIndex,
    SumState,
    UDAFRegistry,
    VarState,
    argument_values,
    make_state,
)
from ..errors import ExecutionError, RangeViolation, UnsupportedQueryError
from ..estimate.bootstrap import as_batch_weights
from ..estimate.closed_form import count_variance, mean_variance, \
    sum_variance
from ..estimate.variation import (
    VariationRange,
    range_from_replicas,
    ranges_from_replica_matrix,
)
from ..expr.expressions import (
    ColumnRef,
    Comparison,
    Environment,
    Expression,
    InSubquery,
    SubqueryRef,
    conjuncts,
    evaluate_mask,
)
from ..expr.tristate import (
    FLIP_COMPARISON,
    TRI_FALSE,
    TRI_TRUE,
    TRI_UNKNOWN,
    tri_compare,
)
from ..obs import NULL_TRACER
from ..parallel import SERIAL_EXECUTOR
from ..plan.lineage_blocks import LineageBlock
from ..engine.operators import (
    JoinIndex,
    build_join_index,
    group_indices,
    probe_join,
    window_order,
    windowed_values,
)
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

    @property
    def size(self) -> int:
        # The lineage table may have zero columns (no predicate lineage
        # needed), so row count is tracked by the always-present arrays.
        return len(self.group_idx)

    @staticmethod
    def empty(schema: Schema, aliases: Sequence[str],
              trials: int) -> "CachedRows":
        return CachedRows(
            table=Table.empty(schema),
            weights=np.empty((0, trials), dtype=np.uint8),
            group_idx=np.empty(0, dtype=np.int64),
            values={a: np.empty(0) for a in aliases},
        )

    @staticmethod
    def concat(parts: Sequence["CachedRows"]) -> "CachedRows":
        if len(parts[0].table.schema):
            table = Table.concat([p.table for p in parts])
        else:
            table = parts[0].table
        return CachedRows(
            table=table,
            weights=np.concatenate([p.weights for p in parts]),
            group_idx=np.concatenate([p.group_idx for p in parts]),
            values={
                a: np.concatenate([p.values[a] for p in parts])
                for a in parts[0].values
            },
        )

    def take(self, mask: np.ndarray) -> "CachedRows":
        table = (
            self.table.take(mask) if len(self.table.schema) else self.table
        )
        return CachedRows(
            table=table,
            weights=self.weights[mask],
            group_idx=self.group_idx[mask],
            values={a: v[mask] for a, v in self.values.items()},
        )


class _ScalarGuard:
    """Intersection of scalar variation ranges a block folded under.

    Fallback guard for predicates whose shape does not decompose into
    "certain side θ uncertain side" (see :class:`_DecisionGuard`); it is
    conservative — any drift of the slot outside every range ever used
    triggers a rebuild — but always sound.
    """

    def __init__(self) -> None:
        self.range: Optional[VariationRange] = None

    def check(self, state: ScalarSlotState) -> bool:
        if self.range is None:
            return True
        return (
            self.range.contains(state.estimate)
            and self.range.contains_all(state.replicas)
        )

    def commit(self, state: ScalarSlotState) -> None:
        if self.range is None:
            self.range = state.vrange
        else:
            self.range = self.range.intersect(state.vrange)

    def reset(self) -> None:
        self.range = None


class _KeyedRangeGuard:
    """Fallback per-group range-intersection guard (keyed slots).

    Only used for exotic predicate shapes where decision-level guarding
    does not apply; conservative but sound.
    """

    def __init__(self) -> None:
        self.lows = np.empty(0)
        self.highs = np.empty(0)

    def _grow(self, g: int) -> None:
        if g > len(self.lows):
            pad = g - len(self.lows)
            self.lows = np.concatenate([self.lows, np.full(pad, -np.inf)])
            self.highs = np.concatenate([self.highs, np.full(pad, np.inf)])

    def check(self, state: KeyedSlotState) -> bool:
        g = min(len(self.lows), len(state.estimates))
        if g == 0:
            return True
        present = state._present()[:g]
        lo, hi = self.lows[:g], self.highs[:g]
        est = state.estimates[:g]
        if (present & ((est < lo) | (est > hi))).any():
            return False
        reps = state.replicas[:g]
        inside = (reps >= lo[:, None]) & (reps <= hi[:, None])
        return bool(inside[present].all())

    def commit(self, state: KeyedSlotState) -> None:
        self._grow(len(state.estimates))
        used = np.nonzero(state._present())[0]
        if used.size == 0:
            return
        np.maximum.at(self.lows, used, state.lows[used])
        np.minimum.at(self.highs, used, state.highs[used])

    def reset(self) -> None:
        self.lows = np.empty(0)
        self.highs = np.empty(0)


_ORDERING_OPS = ("<", "<=", ">", ">=")


class _DecisionGuard:
    """Decision-validity guard for ``certain θ uncertain`` comparisons.

    A deterministic fold of row ``r`` under predicate ``c(r) θ u`` stays
    valid exactly while ``c(r)`` remains clear of the uncertain side's
    *current* variation range.  By monotonicity only the extreme folded
    values matter, so the guard keeps, per producer group (or globally
    for scalar slots), the extremes of the certain side among TRUE-folds
    and FALSE-folds and re-checks them against the fresh range each batch
    — O(G) vectorized work, and dramatically less conservative than
    intersecting ranges across batches (whose ever-tightening guard makes
    rebuilds near-certain for keyed slots with many small groups).

    ``certain_side`` is row-dependent; ``uncertain_side`` may be any
    expression whose only row dependence flows through the correlation
    key (e.g. ``0.6 * AVG(...)`` per part), so its per-group range hull
    is obtained with the ordinary interval evaluator over a pseudo-table
    of one row per producer group.
    """

    def __init__(self, op: str, certain_side: Expression,
                 uncertain_side: Expression, slot: int,
                 correlation_name: Optional[str]):
        self.op = op  # normalized: certain_side op uncertain_side
        self.certain_side = certain_side
        self.uncertain_side = uncertain_side
        self.slot = slot
        self.correlation_name = correlation_name
        # Extremes of the certain side among folded rows; grown lazily.
        self.max_true = np.full(1, -np.inf)
        self.min_true = np.full(1, np.inf)
        self.max_false = np.full(1, -np.inf)
        self.min_false = np.full(1, np.inf)

    def _grow(self, g: int) -> None:
        if g > len(self.max_true):
            pad = g - len(self.max_true)
            self.max_true = np.concatenate(
                [self.max_true, np.full(pad, -np.inf)])
            self.min_true = np.concatenate(
                [self.min_true, np.full(pad, np.inf)])
            self.max_false = np.concatenate(
                [self.max_false, np.full(pad, -np.inf)])
            self.min_false = np.concatenate(
                [self.min_false, np.full(pad, np.inf)])

    def commit(self, candidates: "CachedRows", tri_p: np.ndarray,
               tri_final: np.ndarray, slot_states, penv) -> None:
        true_mask = tri_final == TRI_TRUE  # implies tri_p TRUE
        false_mask = (tri_final == TRI_FALSE) & (tri_p == TRI_FALSE)
        if not (true_mask.any() or false_mask.any()):
            return
        c_vals = np.asarray(
            self.certain_side.evaluate(candidates.table, penv),
            dtype=np.float64,
        )
        if c_vals.ndim == 0:
            c_vals = np.full(candidates.size, float(c_vals))
        if self.correlation_name is None:
            idx = np.zeros(candidates.size, dtype=np.int64)
        else:
            state = slot_states[self.slot]
            keys = np.asarray(
                candidates.table.column(self.correlation_name)
            )
            idx = state.index.encode(keys, add_new=False)
            self._grow(len(state.estimates))
        # A NaN certain side is a NULL, decided whatever the uncertain
        # side does: it constrains nothing, and must not poison the
        # extremes (a NaN maximum would pass every later check).
        known = (idx >= 0) & ~np.isnan(c_vals)
        for mask, maxes, mins in (
            (true_mask, self.max_true, self.min_true),
            (false_mask, self.max_false, self.min_false),
        ):
            use = mask & known
            if use.any():
                np.maximum.at(maxes, idx[use], c_vals[use])
                np.minimum.at(mins, idx[use], c_vals[use])

    def check(self, slot_states, ienv: "IntervalEnv") -> bool:
        """Are all folded decisions point-correct under the new values?

        Validity is checked against the uncertain side's current *point*
        value (per group), which is exactly what snapshot correctness —
        equality with ``Q(D_i, k/i)`` — requires.  Checking against the
        full variation range instead would be needlessly strict: with
        many small groups (e.g. Q17's per-part averages) the replica hull
        jitters by more than the fold margin every batch and rebuilds
        become near-certain.  Per-trial classification drift is the
        approximation the paper itself accepts (classification is shared
        across bootstrap trials); ε controls the fold margin and hence
        the residual violation probability.
        """
        g = len(self.max_true)
        state = slot_states[self.slot]
        if self.correlation_name is None:
            pseudo = _ArrayTable({}, 1)
        else:
            keys = np.array(state.index.keys())
            if len(keys) == 0:
                return True
            pseudo = _ArrayTable({self.correlation_name: keys}, len(keys))
        # Bind the slot's point values locally so the check is
        # self-contained (callers need not pre-bind the environment).
        env = Environment(functions=ienv.point.functions)
        state.bind_point(env)
        raw = self.uncertain_side.evaluate(pseudo, env)
        side = np.asarray(raw, dtype=np.float64)
        if side.ndim == 0:
            side = np.full(pseudo.num_rows, float(side))
        n = min(g, len(side))
        point = side[:n]
        # A group's TRUE-folds span [min_true, max_true]: all still hold
        # iff that interval compares TRUE against the point; likewise
        # the FALSE-folds.
        ok_true = tri_compare(self.op, self.min_true[:n], self.max_true[:n],
                              point, point) == TRI_TRUE
        ok_false = tri_compare(self.op, self.min_false[:n],
                               self.max_false[:n], point, point) == TRI_FALSE
        # Vacuous where no fold happened (extremes still at +-inf);
        # groups with no point value yet (NaN side) can have no folds.
        ok_true |= np.isneginf(self.max_true[:n]) \
            & np.isposinf(self.min_true[:n])
        ok_false |= np.isneginf(self.max_false[:n]) \
            & np.isposinf(self.min_false[:n])
        return bool(ok_true.all() and ok_false.all())

    def reset(self) -> None:
        g = len(self.max_true)
        self.max_true = np.full(g, -np.inf)
        self.min_true = np.full(g, np.inf)
        self.max_false = np.full(g, -np.inf)
        self.min_false = np.full(g, np.inf)


def _analyze_guard(predicate: Expression):
    """Pick the guard strategy for one uncertain predicate.

    Returns ``("set", node)``, ``("decision", guard)`` or
    ``("fallback", slots)``.
    """
    if isinstance(predicate, InSubquery):
        return ("set", predicate)
    if isinstance(predicate, Comparison) and predicate.op in _ORDERING_OPS:
        left_slots = predicate.left.subquery_slots()
        right_slots = predicate.right.subquery_slots()
        if left_slots and not right_slots:
            uncertain, certain = predicate.left, predicate.right
            op = FLIP_COMPARISON[predicate.op]
        elif right_slots and not left_slots:
            uncertain, certain = predicate.right, predicate.left
            op = predicate.op
        else:
            return ("fallback", predicate.subquery_slots())
        refs = [r for r in _collect_refs(uncertain)]
        if len({r.slot for r in refs}) != 1 or any(
            isinstance(r, InSubquery) for r in refs
        ):
            return ("fallback", predicate.subquery_slots())
        ref = refs[0]
        if ref.correlation is None:
            if uncertain.references():
                return ("fallback", predicate.subquery_slots())
            corr_name = None
        else:
            if not isinstance(ref.correlation, ColumnRef):
                return ("fallback", predicate.subquery_slots())
            corr_name = ref.correlation.name
            if uncertain.references() - {corr_name}:
                return ("fallback", predicate.subquery_slots())
        return (
            "decision",
            _DecisionGuard(op, certain, uncertain, ref.slot, corr_name),
        )
    return ("fallback", predicate.subquery_slots())


def _collect_refs(expr: Expression):
    out = []
    if isinstance(expr, SubqueryRef):
        out.append(expr)
    for child in expr.children():
        out.extend(_collect_refs(child))
    return out


class _SetGuard:
    """Deterministic membership commitments against a set slot."""

    def __init__(self) -> None:
        self.committed_in: Set = set()
        self.committed_out: Set = set()

    def check(self, state: SetSlotState) -> bool:
        return (
            self.committed_in <= state.point_members
            and self.committed_out.isdisjoint(state.point_members)
        )

    def commit(self, keys: np.ndarray, tri: np.ndarray) -> None:
        key_list = keys.tolist()
        for key, status in zip(key_list, tri.tolist()):
            if status == int(TRI_TRUE):
                self.committed_in.add(key)
            elif status == int(TRI_FALSE):
                self.committed_out.add(key)

    def reset(self) -> None:
        self.committed_in.clear()
        self.committed_out.clear()


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
        #: Output column -> ``(alias, c)`` for a closed-form block (see
        #: :func:`~repro.core.meta_plan.closed_form_plan`); None keeps
        #: bootstrap replicas.
        self.closed_form = closed_form
        self.spec = spec
        self.config = config
        self.trials = config.bootstrap_trials
        self.udafs = udafs
        self.pipeline = parse_block(block.plan)
        self.dimension_tables = dimension_tables
        self._join_indices: Dict[int, JoinIndex] = {}

        agg = self.pipeline.aggregate
        self.group_index = GroupIndex()
        self.exact_states: Dict[str, AggState] = {}
        self.boot_states: Dict[str, AggState] = {}
        #: Closed-form blocks only: alias -> exact moment state (Σx² for
        #: SUM, (n, mean, M2) for AVG; COUNT's n is its exact state).
        self.moment_states: Dict[str, AggState] = {}
        #: Folded qualifying rows per group — distinguishes "no data yet"
        #: groups (whose values are undefined) from genuine zeros.
        self.presence_counts = np.empty(0, dtype=np.int64)
        self._init_states()

        self._needed_columns = self._compute_needed_columns()
        self.cache = CachedRows.empty(
            Schema([]), [c.alias for c in agg.aggregates], self.trials
        )
        self._cache_schema_ready = False

        #: One guard strategy per uncertain predicate (same order).
        self.pred_guards = [
            _analyze_guard(p) for p in self.pipeline.uncertain_predicates
        ]
        self.guards: Dict[int, object] = {}  # fallback/set guards by slot
        self.stats_history: List[BlockBatchStats] = []
        self.recompute_count = 0
        #: Observability hook; the controller installs its tracer here.
        self.tracer = NULL_TRACER
        #: Bootstrap-fold executor; the controller installs a configured
        #: :class:`~repro.parallel.ParallelExecutor` here.  The default
        #: runs everything inline with identical results.
        self.executor = SERIAL_EXECUTOR

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _init_states(self) -> None:
        agg = self.pipeline.aggregate
        self.exact_states = {}
        self.boot_states = {}
        self.moment_states = {}
        for i, call in enumerate(agg.aggregates):
            seed = self.config.seed + i
            self.exact_states[call.alias] = make_state(
                call, trials=None, udafs=self.udafs, seed=seed,
            )
            if self.closed_form is not None:
                moment = _MOMENT_STATES.get(call.func)
                if moment is not None:
                    self.moment_states[call.alias] = moment()
                continue
            try:
                self.boot_states[call.alias] = make_state(
                    call, trials=self.trials, udafs=self.udafs, seed=seed,
                )
            except ExecutionError as exc:
                raise UnsupportedQueryError(
                    f"aggregate {call.func!r} cannot run online (no "
                    f"bootstrap support): {exc}; use execute_batch()"
                ) from exc

    def _compute_needed_columns(self) -> List[str]:
        """Lineage minimization: only keep what re-evaluation needs."""
        return lineage_columns(
            self.pipeline.uncertain_predicates,
            self.pipeline.aggregate.group_by,
            self._post_certain_schema(),
        )

    def _post_certain_schema(self) -> Schema:
        schema = self.pipeline.scan.schema
        for kind, step in self.pipeline.certain_steps:
            if kind == "join":
                schema = step.schema
        return schema

    # ------------------------------------------------------------------
    # Certain pipeline
    # ------------------------------------------------------------------

    def _apply_certain(self, table: Table, penv: Environment,
                       ) -> Tuple[Table, Optional[np.ndarray]]:
        """Run the stable (slot-free) filters and dimension joins.

        Returns the surviving rows plus their positions in the original
        batch (None when every row survived) — the indirection that lets
        bootstrap weights stay lazy until a kernel actually needs them.
        """
        pos: Optional[np.ndarray] = None
        for step_id, (kind, step) in enumerate(self.pipeline.certain_steps):
            # No early-out on an empty table: join steps must still run
            # for their schema effect, or a batch filtered to zero rows
            # loses the dimension columns its group-by/aggregates
            # reference (caught by the deep fuzz grammar's empty-group
            # bias).
            if kind == "filter":
                mask = evaluate_mask(step, table, penv)
                table = table.take(mask)
                pos = np.nonzero(mask)[0] if pos is None else pos[mask]
            else:
                table, keep = self._join_step(step_id, step, table)
                if keep is not None:
                    pos = np.nonzero(keep)[0] if pos is None else pos[keep]
        return table, pos

    def _join_step(self, step_id: int, join: Join, table: Table):
        """One dimension join; the build side is indexed once per run."""
        right = self.dimension_tables.get(join.right.table_name)
        if right is None:
            raise ExecutionError(
                f"dimension table {join.right.table_name!r} not bound"
            )
        index = self._join_indices.get(step_id)
        if index is None:
            index = self._join_indices[step_id] = build_join_index(
                right, [r for _, r in join.keys]
            )
        return probe_join(table, right, index, join.keys, join.how)

    # ------------------------------------------------------------------
    # Guards & failure handling
    # ------------------------------------------------------------------

    def check_guards(self, slot_states: Dict[int, object],
                     ienv: IntervalEnv) -> bool:
        """True when every folded decision is still valid."""
        return self.guard_violation(slot_states, ienv) is None

    def guard_violation(self, slot_states: Dict[int, object],
                        ienv: IntervalEnv) -> Optional[str]:
        """The first failing guard as a human-readable cause, or None.

        The cause string is what rebuild trace events report, so a
        profile can say *why* a block recomputed (which slot drifted,
        under which guard strategy), not just that it did.
        """
        for kind, guard in self.pred_guards:
            if kind == "decision":
                if not guard.check(slot_states, ienv):
                    return f"decision guard on slot#{guard.slot}"
        for slot, guard in self.guards.items():
            state = slot_states[slot]
            if not guard.check(state):
                return (
                    f"{type(guard).__name__.lstrip('_')} on slot#{slot}"
                )
        return None

    def _guard_for(self, slot: int, state) -> object:
        guard = self.guards.get(slot)
        if guard is None:
            if isinstance(state, ScalarSlotState):
                guard = _ScalarGuard()
            elif isinstance(state, KeyedSlotState):
                guard = _KeyedRangeGuard()
            else:
                guard = _SetGuard()
            self.guards[slot] = guard
        return guard

    # -- checkpoint / resume -------------------------------------------

    #: The mutable per-run state a checkpoint must capture.  Derived
    #: caches (join indices) and construction-time structure (pipeline,
    #: dimension tables, tracer) are rebuilt/re-injected on resume.
    _CHECKPOINT_FIELDS = (
        "exact_states", "boot_states", "moment_states", "presence_counts",
        "group_index",
        "cache", "pred_guards", "guards", "stats_history",
        "recompute_count", "_cache_schema_ready",
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
        """Install state captured by :meth:`state_checkpoint`.

        The incoming dict is deep-copied again so one checkpoint can
        seed several resumed runs.
        """
        state = copy.deepcopy(state)
        for name in self._CHECKPOINT_FIELDS:
            setattr(self, name, state[name])

    def reset(self) -> None:
        """Drop all folded state (the rebuild entry point)."""
        self._init_states()
        self.presence_counts = np.empty(0, dtype=np.int64)
        self.group_index = GroupIndex()
        self.cache = CachedRows.empty(
            self.cache.table.schema if self._cache_schema_ready else Schema([]),
            list(self.exact_states), self.trials,
        )
        for kind, guard in self.pred_guards:
            if kind == "decision":
                guard.reset()
        for guard in self.guards.values():
            guard.reset()

    # ------------------------------------------------------------------
    # Batch processing
    # ------------------------------------------------------------------

    def process_batch(self, batch_index: int, batch: Table,
                      weights,
                      slot_states: Dict[int, object],
                      penv: Environment,
                      retained: Optional[Sequence[Tuple[Table, np.ndarray]]] = None,
                      ) -> BlockBatchStats:
        """Fold one mini-batch, reclassify the uncertain set, update guards.

        ``weights`` is the batch's ``(n, B)`` Poisson matrix or a
        :class:`~repro.estimate.bootstrap.BatchWeights` handle (the
        controller passes handles, so every read — pooled folds' through
        the fold's shared-memory segment — is of the session's stored
        rectangle).  ``retained`` supplies the raw batches seen so far
        (including the current one) for the rebuild path; None disables
        recovery and a guard violation raises :class:`RangeViolation`.
        """
        tracer = self.tracer
        # A closed-form block is handed no weights and reads none.
        wsrc = None if weights is None else as_batch_weights(weights)
        ienv = IntervalEnv(slots=slot_states, point=penv)
        with tracer.span("phase:guards", block=self.block.block_id) as gs:
            violation = self.guard_violation(slot_states, ienv)
            if violation is not None:
                gs.set("violation", violation)
        if violation is not None:
            if retained is None:
                self._raise_violation(slot_states)
            self.reset()
            self.recompute_count += 1
            merged = Table.concat([t for t, _ in retained])
            # uint8 rows read from the store; nothing is pinned.
            merged_w = np.concatenate(
                [as_batch_weights(w).dense() for _, w in retained]
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
                tracer.metrics.counter(
                    "delta.rebuild_rows"
                ).inc(rebuild_rows)
            stats = BlockBatchStats(
                batch_index=batch_index,
                rows_in=batch.num_rows,
                candidates=stats.candidates,
                folded_pass=stats.folded_pass,
                folded_fail=stats.folded_fail,
                uncertain_size=stats.uncertain_size,
                rebuilt=True,
                rebuild_rows=rebuild_rows,
            )
        else:
            stats = self._ingest(batch_index, batch, wsrc, slot_states,
                                 penv)
        if tracer.metrics.enabled:
            tracer.metrics.histogram(
                "delta.uncertain_size"
            ).observe(stats.uncertain_size)
        self.stats_history.append(stats)
        return stats

    def _raise_violation(self, slot_states) -> None:
        for slot in self.block.consumes:
            guard = self.guards.get(slot)
            state = slot_states[slot]
            if guard is None:
                continue
            if isinstance(state, ScalarSlotState) and not guard.check(state):
                rng = guard.range
                raise RangeViolation(
                    f"slot#{slot}", state.estimate, rng.low, rng.high
                )
        raise RangeViolation(
            f"block {self.block.block_id}", float("nan"), float("nan"),
            float("nan"),
        )

    def _ingest(self, batch_index: int, batch: Table, wsrc,
                slot_states: Dict[int, object],
                penv: Environment) -> BlockBatchStats:
        tracer = self.tracer
        rows_in = batch.num_rows
        piped, pos = self._apply_certain(batch, penv)
        incoming = self._prepare_rows(piped, penv)

        if not self.pipeline.uncertain_predicates:
            # No uncertain set: rows fold immediately, straight from the
            # handle — pooled trial shards read its stored rectangle from
            # the fold's shared-memory segment.
            with tracer.span("phase:fold", block=self.block.block_id,
                             rows_in=incoming.size):
                self._fold(incoming, wsrc, pos)
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
        candidates = (
            CachedRows.concat([self.cache, incoming])
            if self.cache.size else incoming
        )
        ienv = IntervalEnv(slots=slot_states, point=penv)
        with tracer.span("phase:classify", block=self.block.block_id,
                         rows_in=candidates.size, cached_in=cached_in,
                         incoming=incoming.size) as cls_span:
            p_tris = [
                tri_eval(predicate, candidates.table, ienv)
                for predicate in self.pipeline.uncertain_predicates
            ]
            tri = p_tris[0].copy()
            for p_tri in p_tris[1:]:
                tri = np.minimum(tri, p_tri)
            self._commit_guards(candidates, p_tris, tri, slot_states, ienv)

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
            self._fold(passing, passing.weights)
        self.cache = candidates.take(unknown_mask)
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

    def _commit_guards(self, candidates: CachedRows, p_tris, tri_final,
                       slot_states, ienv: IntervalEnv) -> None:
        """Record what this batch's deterministic folds relied on.

        Only rows actually folded (final tri deterministic) impose
        validity constraints.  For a FALSE fold, each conjunct that
        itself evaluated FALSE is (conservatively) required to stay
        FALSE; conjuncts that were TRUE or UNKNOWN at fold time imposed
        nothing — Kleene AND needs a single FALSE.
        """
        penv = ienv.point
        any_fold = (tri_final != TRI_UNKNOWN).any()
        for (kind, guard), predicate, p_tri in zip(
            self.pred_guards, self.pipeline.uncertain_predicates, p_tris
        ):
            if kind == "decision":
                guard.commit(candidates, p_tri, tri_final, slot_states,
                             penv)
            elif kind == "set":
                state = slot_states[predicate.slot]
                set_guard = self._guard_for(predicate.slot, state)
                keys = np.asarray(
                    predicate.value.evaluate(candidates.table, penv)
                )
                folded = tri_final != TRI_UNKNOWN
                set_guard.commit(keys[folded], p_tri[folded])
            else:  # fallback: conservative range/membership commitments
                if not any_fold:
                    continue
                for node in _find_in_subqueries(predicate):
                    state = slot_states[node.slot]
                    set_guard = self._guard_for(node.slot, state)
                    keys = np.asarray(
                        node.value.evaluate(candidates.table, penv)
                    )
                    set_guard.commit(
                        keys, tri_eval(node, candidates.table, ienv)
                    )
                for slot in predicate.subquery_slots():
                    state = slot_states[slot]
                    if isinstance(state, SetSlotState):
                        continue  # handled above
                    self._guard_for(slot, state).commit(state)

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

        lineage = (
            table.select(self._needed_columns)
            if self._needed_columns else Table.empty(Schema([]))
        )
        if not self._cache_schema_ready and self._needed_columns:
            self.cache = CachedRows.empty(
                lineage.schema, list(values), self.trials
            )
            self._cache_schema_ready = True
        return CachedRows(
            table=lineage, weights=None, group_idx=group_idx,
            values=values,
        )

    def _fold(self, rows: CachedRows, weights,
              row_idx: Optional[np.ndarray] = None) -> None:
        """Fold deterministic-pass rows into the exact and trial states.

        ``weights`` is the rows' dense ``(m, B)`` matrix, or — for
        freshly-arrived rows — the batch's weight handle with
        ``row_idx`` indexing the surviving rows into it; the executor
        then either shards weight generation across workers or folds
        the rows inline, bit-identical either way.
        """
        if rows.size == 0:
            return
        self.presence_counts = _bump_counts(
            self.presence_counts, rows.group_idx
        )
        for alias, state in self.exact_states.items():
            state.update(rows.group_idx, rows.values[alias])
        if self.closed_form is not None:
            for alias, state in self.moment_states.items():
                values = rows.values[alias]
                state.update(rows.group_idx, values * values
                             if isinstance(state, SumState) else values)
            return
        self.executor.fold_boot_states(
            self.boot_states, rows.group_idx, rows.values, weights,
            row_idx=row_idx,
        )

    # ------------------------------------------------------------------
    # Snapshots and publishing
    # ------------------------------------------------------------------

    def _temp_finalized(self, penv: Environment, slot_states, scale: float):
        """Finalize folded + currently-passing-uncertain into estimates.

        Returns ``(estimates, replicas, present)`` where estimates maps
        alias -> (G,), replicas maps alias -> (G, B) — for a closed-form
        block, alias -> the (G,) variance of its estimate instead — and
        present is the (G,) boolean mask of groups with at least one
        qualifying row under the current point values.
        """
        num_groups = max(self.group_index.num_groups, 1)
        passing = None
        if self.cache.size:
            mask = np.ones(self.cache.size, dtype=bool)
            for predicate in self.pipeline.uncertain_predicates:
                mask &= evaluate_mask(predicate, self.cache.table, penv)
            passing = self.cache.take(mask) if mask.any() else None

        counts = np.zeros(num_groups, dtype=np.int64)
        counts[: len(self.presence_counts)] = self.presence_counts
        if passing is not None:
            counts = _bump_counts(counts, passing.group_idx)
            counts = counts[:num_groups] if len(counts) > num_groups else counts
        present = counts > 0

        if self.closed_form is not None:
            # No uncertain predicate, so no cache: the folds are all.
            estimates: Dict[str, np.ndarray] = {}
            for alias, exact in self.exact_states.items():
                exact.ensure_groups(num_groups)
                estimates[alias] = exact.finalize(scale)
            return estimates, self._variances(num_groups, scale), present

        if passing is not None:
            # The cache only fills on the uncertain path, so uncertain
            # predicates exist whenever some cached row passes.
            trial_masks = self._trial_masks(slot_states, penv)

        estimates = {}
        replicas: Dict[str, np.ndarray] = {}
        for alias in self.exact_states:
            exact = self.exact_states[alias]
            boot = self.boot_states[alias]
            if passing is not None:
                exact = exact.copy()
                exact.update(passing.group_idx, passing.values[alias])
                boot = boot.copy()
                # Each trial folds the cache rows IT would keep, under
                # its own inner-aggregate replicas.
                boot.update(
                    self.cache.group_idx, self.cache.values[alias],
                    self.cache.weights * trial_masks,
                )
            exact.ensure_groups(num_groups)
            boot.ensure_groups(num_groups)
            estimates[alias] = exact.finalize(scale)
            replicas[alias] = boot.finalize(scale)
        return estimates, replicas, present

    def _variances(self, num_groups: int, scale: float,
                   ) -> Dict[str, np.ndarray]:
        """A closed-form block's per-alias ``(G,)`` estimate variances:
        what its Poisson(1) bootstrap replicas' variance would be in
        expectation (see :mod:`repro.estimate.closed_form`)."""
        out: Dict[str, np.ndarray] = {}
        for alias, exact in self.exact_states.items():
            moment = self.moment_states.get(alias)
            if moment is None:  # COUNT: n is the exact count
                out[alias] = count_variance(exact.finalize(), scale)
                continue
            moment.ensure_groups(num_groups)
            if isinstance(moment, SumState):
                out[alias] = sum_variance(moment.finalize(), scale)
            else:
                out[alias] = mean_variance(moment.m2[:, 0],
                                           moment.wcount[:, 0])
        return out

    def _trial_masks(self, slot_states, penv: Environment) -> np.ndarray:
        """Per-trial pass masks for the uncertain cache: ``(|U|, B)``.

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
        env = Environment(key_sets=penv.key_sets, functions=penv.functions)
        for slot in self.block.consumes:
            state = slot_states[slot]
            if isinstance(state, ScalarSlotState):
                env.scalars[slot] = state.replicas[:, None]
            elif isinstance(state, KeyedSlotState):
                env.keyed[slot] = lambda keys, default, state=state: (
                    state.values_for_keys(keys, state.replicas, default).T
                )
        out = np.ones((self.trials, self.cache.size), dtype=bool)
        for predicate in self.pipeline.uncertain_predicates:
            out &= np.asarray(
                predicate.evaluate(self.cache.table, env), dtype=bool
            )
        return np.ascontiguousarray(out.T)  # row-major, like the weights

    def publish(self, penv: Environment, slot_states, scale: float):
        """Produce this block's slot state for downstream consumers."""
        spec = self.spec
        if spec is None:
            raise ExecutionError("main block does not publish a slot")
        estimates, replicas, present = self._temp_finalized(
            penv, slot_states, scale
        )
        point_table, matrix_table = self._result_tables(estimates, replicas)
        num_groups = point_table.num_rows

        if spec.kind in ("scalar", "keyed"):
            value_expr = self._project_expr(spec.value_column)
            point_vals = np.asarray(
                value_expr.evaluate(point_table, penv), dtype=np.float64
            )
            if point_vals.ndim == 0:
                point_vals = np.full(num_groups, float(point_vals))
            replica_env = self._replica_env(penv, slot_states)
            replica_vals = np.asarray(
                value_expr.evaluate(matrix_table, replica_env),
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
                        float(point_vals[0]), replica_vals[0],
                        self.config.epsilon_multiplier,
                    ),
                )
            lows, highs = ranges_from_replica_matrix(
                point_vals, replica_vals, self.config.epsilon_multiplier
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

        # kind == "set": membership determined by the block's HAVING,
        # classified per group like any other predicate — its aggregates
        # are interval-valued columns spanning their replica ranges.
        having = self.pipeline.aggregate.having
        keys = np.array(self.group_index.keys(), dtype=object)
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
                (num_groups,),
            )
            point_members = set(
                keys[point_mask[: len(keys)] & present_keys].tolist()
            )
            ienv = IntervalEnv(slots=slot_states, point=penv, columns={
                alias: ranges_from_replica_matrix(
                    estimates[alias], matrix, self.config.epsilon_multiplier
                )
                for alias, matrix in replicas.items()
            })
            tri = tri_eval(having, point_table, ienv)
            tri_status = {
                k: (int(t) if ok else int(TRI_UNKNOWN))
                for k, t, ok in zip(keys.tolist(), tri.tolist(), present_keys)
            }
        return SetSlotState(
            slot=spec.slot, point_members=point_members,
            tri_status=tri_status,
        )

    def snapshot_output(self, penv: Environment, slot_states, scale: float):
        """The main block's current result table plus per-column error data.

        Returns ``(table, column_errors)`` where ``column_errors`` maps
        numeric output columns to their ``(rows, B)`` replica matrices,
        or — from a closed-form block — their ``(rows,)`` estimate
        variances (aligned with the returned table's rows).
        """
        estimates, replicas, present = self._temp_finalized(
            penv, slot_states, scale
        )
        closed = self.closed_form is not None
        agg = self.pipeline.aggregate
        point_table, matrix_table = self._result_tables(
            estimates, {} if closed else replicas
        )
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
        out_columns: Dict[str, np.ndarray] = {}
        col_errors: Dict[str, np.ndarray] = {}
        replica_env = self._replica_env(penv, slot_states)
        exprs = (
            project.exprs if project is not None
            else [(ColumnRef(n), n) for n in agg.schema.names]
        )
        for expr, name in exprs:
            raw = np.asarray(expr.evaluate(point_table, penv))
            if raw.ndim == 0:
                raw = np.full(num_groups, raw[()])
            out_columns[name] = raw[keep]
            if closed and name in self.closed_form:
                alias, coef = self.closed_form[name]
                col_errors[name] = (coef * coef * replicas[alias])[keep]
            elif not closed and expr.references() & set(estimates):
                matrix = np.asarray(
                    expr.evaluate(matrix_table, replica_env),
                    dtype=np.float64,
                )
                if matrix.ndim == 2:
                    col_errors[name] = matrix[keep]

        if self.pipeline.window is not None:
            out_columns, col_errors = self._apply_window(
                out_columns, col_errors
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

    def _apply_window(self, out_columns: Dict[str, np.ndarray],
                      col_errors: Dict[str, np.ndarray]):
        """Evaluate the block's window calls over the snapshot rows.

        The total order comes from the *point* columns (the ORDER BY
        column plus group-key tiebreaks are exact values, identical
        across execution paths); the rolling transform is linear, so the
        same permutation applied per replica column yields each window
        column's bootstrap replicas.  Closed-form variances go through
        the same frames with squared coefficients: output rows are
        disjoint groups, independent under Poisson weights, so a SUM
        frame's variance is the sum of its rows' and an AVG frame's that
        sum over ``m²``.
        """
        window = self.pipeline.window
        for call in window.calls:
            order = window_order(out_columns, call, window.tiebreak)
            arg = out_columns[call.arg] if call.arg is not None else None
            out_columns[call.alias] = windowed_values(call, arg, order)
            err = col_errors.get(call.arg)
            if err is not None and err.ndim == 2:
                col_errors[call.alias] = windowed_values(call, err, order)
            elif err is not None:
                var = windowed_values(replace(call, func="sum"), err, order)
                if call.func == "avg":
                    frames = windowed_values(
                        replace(call, func="count", arg=None), None, order
                    )
                    var = var / (frames * frames)
                col_errors[call.alias] = var
        ordered = {n: out_columns[n] for n in window.output_order}
        return ordered, col_errors

    # ------------------------------------------------------------------

    def _result_tables(self, estimates: Dict[str, np.ndarray],
                       replicas: Dict[str, np.ndarray]):
        """The block's grouped result as expression-evaluable tables.

        Returns ``(point_table, matrix_table)``: ``(G,)`` point columns,
        and the ``(G, B)`` replica matrices next to ``(G, 1)`` group
        keys, so one projection expression evaluates over either and
        broadcasts trial-wise over the second.
        """
        num_groups = max(self.group_index.num_groups, 1)
        group_cols = self._group_key_columns(num_groups)
        matrix_cols = dict(replicas)
        matrix_cols.update(
            {name: arr[:, None] for name, arr in group_cols.items()}
        )
        return (_ArrayTable({**estimates, **group_cols}, num_groups),
                _ArrayTable(matrix_cols, num_groups))

    def _group_key_columns(self, num_groups: int) -> Dict[str, np.ndarray]:
        agg = self.pipeline.aggregate
        if not agg.group_by:
            return {}
        keys = self.group_index.keys()
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

    def _project_expr(self, name: str) -> Expression:
        project = self.pipeline.project
        if project is None:
            return ColumnRef(name)
        for expr, out_name in project.exprs:
            if out_name == name:
                return expr
        raise ExecutionError(f"projection has no column {name!r}")

    def _replica_env(self, penv: Environment, slot_states) -> Environment:
        """Environment for matrix (replica) evaluation of projections.

        Scalar slots are bound to their replica vectors so trial-wise
        arithmetic broadcasts; keyed slots fall back to point values (a
        documented approximation — error bars slightly understate the
        inner uncertainty there).
        """
        env = Environment(
            scalars=dict(penv.scalars), keyed=dict(penv.keyed),
            key_sets=dict(penv.key_sets), functions=penv.functions,
        )
        for slot, state in slot_states.items():
            if isinstance(state, ScalarSlotState):
                env.scalars[slot] = state.replicas
        return env


class _ArrayTable:
    """Minimal table adapter letting expressions evaluate over plain arrays.

    Columns are ``(G,)`` point values, or ``(G, B)`` replica matrices
    against ``(G, 1)`` group keys so per-trial arithmetic broadcasts.
    """

    def __init__(self, columns: Dict[str, np.ndarray], num_rows: int):
        self._columns = columns
        self.num_rows = num_rows

    def column(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise ExecutionError(f"unknown column {name!r}")
        return self._columns[name]


#: A closed-form block's moment state per aggregate: SUM folds squares
#: into a SumState; AVG folds its values into a VarState (Chan's
#: (n, mean, M2)); COUNT needs none.
_MOMENT_STATES = {"sum": SumState, "avg": VarState, "mean": VarState}


def _bump_counts(counts: np.ndarray, group_idx: np.ndarray) -> np.ndarray:
    """Increment per-group row counts, growing the array as needed."""
    if len(group_idx) == 0:
        return counts
    need = int(group_idx.max()) + 1
    if need > len(counts):
        counts = np.concatenate(
            [counts, np.zeros(need - len(counts), dtype=np.int64)]
        )
    counts[:need] += np.bincount(group_idx, minlength=need)
    return counts


def _find_in_subqueries(expr: Expression) -> List[InSubquery]:
    """All InSubquery nodes anywhere inside ``expr``."""
    out: List[InSubquery] = []
    if isinstance(expr, InSubquery):
        out.append(expr)
    for child in expr.children():
        out.extend(_find_in_subqueries(child))
    return out
