"""Guards: when a block's folded decisions stop being trustworthy.

A guard records what a batch's deterministic folds relied on
(``commit``) and checks it against the slots' fresh values before the
next batch (``check``); a failed check makes the block rebuild and
``reset`` it.  :class:`BlockGuards` picks one strategy per uncertain
predicate when the block is built (:func:`_analyze_guard`): a
:class:`_DecisionGuard` for ``certain θ uncertain`` orderings, a
:class:`_SetGuard` for ``key IN (subquery)``, and for any other shape
the conservative per-slot :class:`_ScalarGuard` or
:class:`_KeyedRangeGuard` plus a set guard per ``IN`` node inside it.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from ..estimate.variation import VariationRange
from ..expr.expressions import (
    ArrayTable,
    ColumnRef,
    Comparison,
    Environment,
    Expression,
    InSubquery,
    SubqueryRef,
)
from ..expr.tristate import (
    FLIP_COMPARISON,
    TRI_FALSE,
    TRI_TRUE,
    TRI_UNKNOWN,
    tri_compare,
)
from ..storage.table import Table
from .classify import IntervalEnv, tri_eval

_ORDERING_OPS = ("<", "<=", ">", ">=")

#: One group's column of a decision guard's extremes: the certain side's
#: max and min over TRUE-folds, then over FALSE-folds (none folded yet).
_NO_FOLDS = np.array([[-np.inf], [np.inf], [-np.inf], [np.inf]])


class _ScalarGuard:
    """Intersection of the scalar variation ranges a block folded under.

    Fallback guard for predicates whose shape does not decompose into
    "certain side θ uncertain side" (see :class:`_DecisionGuard`); it is
    conservative — any drift of the slot outside every range ever used
    triggers a rebuild — but always sound.
    """

    label = "ScalarGuard"

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.range: Optional[VariationRange] = None

    def check(self, slot_states, ienv: IntervalEnv) -> bool:
        if self.range is None:
            return True
        state = slot_states[self.slot]
        return (
            self.range.contains(state.estimate)
            and self.range.contains_all(state.replicas)
        )

    def commit(self, table: Table, p_tri, tri_final, slot_states,
               ienv: IntervalEnv) -> None:
        if (tri_final == TRI_UNKNOWN).all():  # nothing folded
            return
        vrange = slot_states[self.slot].vrange
        self.range = (vrange if self.range is None
                      else self.range.intersect(vrange))

    def reset(self) -> None:
        self.range = None


class _KeyedRangeGuard:
    """Fallback per-group range-intersection guard (keyed slots).

    Only used for predicate shapes where decision-level guarding does
    not apply; conservative but sound.
    """

    label = "KeyedRangeGuard"

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.reset()

    def check(self, slot_states, ienv: IntervalEnv) -> bool:
        state = slot_states[self.slot]
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

    def commit(self, table: Table, p_tri, tri_final, slot_states,
               ienv: IntervalEnv) -> None:
        if (tri_final == TRI_UNKNOWN).all():  # nothing folded
            return
        state = slot_states[self.slot]
        g = len(state.estimates)
        if g > len(self.lows):
            pad = g - len(self.lows)
            self.lows = np.concatenate([self.lows, np.full(pad, -np.inf)])
            self.highs = np.concatenate([self.highs, np.full(pad, np.inf)])
        used = np.nonzero(state._present())[0]
        if used.size == 0:
            return
        np.maximum.at(self.lows, used, state.lows[used])
        np.minimum.at(self.highs, used, state.highs[used])

    def reset(self) -> None:
        self.lows = np.empty(0)
        self.highs = np.empty(0)


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

    label = "decision guard"

    def __init__(self, op: str, certain_side: Expression,
                 uncertain_side: Expression, slot: int,
                 correlation_name: Optional[str]):
        self.op = op  # normalized: certain_side op uncertain_side
        self.certain_side = certain_side
        self.uncertain_side = uncertain_side
        self.slot = slot
        self.correlation_name = correlation_name
        #: ``(4, G)`` extremes of the certain side among folded rows, per
        #: producer group (see ``_NO_FOLDS``); grown lazily.
        self.extremes = _NO_FOLDS.copy()

    def _grow(self, g: int) -> None:
        pad = g - self.extremes.shape[1]
        if pad > 0:
            self.extremes = np.concatenate(
                [self.extremes, np.repeat(_NO_FOLDS, pad, axis=1)], axis=1)

    def commit(self, table: Table, p_tri: np.ndarray,
               tri_final: np.ndarray, slot_states,
               ienv: IntervalEnv) -> None:
        true_mask = tri_final == TRI_TRUE  # implies p_tri TRUE
        false_mask = (tri_final == TRI_FALSE) & (p_tri == TRI_FALSE)
        if not (true_mask.any() or false_mask.any()):
            return
        n = table.num_rows
        c_vals = np.asarray(
            self.certain_side.evaluate(table, ienv.point), dtype=np.float64,
        )
        if c_vals.ndim == 0:
            c_vals = np.full(n, float(c_vals))
        if self.correlation_name is None:
            idx = np.zeros(n, dtype=np.int64)
        else:
            state = slot_states[self.slot]
            keys = np.asarray(table.column(self.correlation_name))
            idx = state.index.encode(keys, add_new=False)
            self._grow(len(state.estimates))
        # A NaN certain side is a NULL, decided whatever the uncertain
        # side does: it constrains nothing, and must not poison the
        # extremes (a NaN maximum would pass every later check).
        known = (idx >= 0) & ~np.isnan(c_vals)
        for mask, row in ((true_mask, 0), (false_mask, 2)):
            use = mask & known
            if use.any():
                np.maximum.at(self.extremes[row], idx[use], c_vals[use])
                np.minimum.at(self.extremes[row + 1], idx[use], c_vals[use])

    def check(self, slot_states, ienv: IntervalEnv) -> bool:
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
        g = self.extremes.shape[1]
        state = slot_states[self.slot]
        if self.correlation_name is None:
            pseudo = ArrayTable({}, 1)
        else:
            keys = np.array(state.index.keys())
            if len(keys) == 0:
                return True
            pseudo = ArrayTable({self.correlation_name: keys}, len(keys))
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
        max_true, min_true, max_false, min_false = self.extremes[:, :n]
        # A group's TRUE-folds span [min_true, max_true]: all still hold
        # iff that interval compares TRUE against the point; likewise
        # the FALSE-folds.
        ok_true = tri_compare(self.op, min_true, max_true,
                              point, point) == TRI_TRUE
        ok_false = tri_compare(self.op, min_false, max_false,
                               point, point) == TRI_FALSE
        # Vacuous where no fold happened (extremes still at +-inf);
        # groups with no point value yet (NaN side) can have no folds.
        ok_true |= np.isneginf(max_true) & np.isposinf(min_true)
        ok_false |= np.isneginf(max_false) & np.isposinf(min_false)
        return bool(ok_true.all() and ok_false.all())

    def reset(self) -> None:
        self.extremes = np.repeat(_NO_FOLDS, self.extremes.shape[1], axis=1)


class _SetGuard:
    """Membership commitments against the set slot of an ``IN`` predicate:
    each folded row's key stays in (TRUE) or out (FALSE) of the set."""

    label = "SetGuard"

    def __init__(self, node: InSubquery) -> None:
        self.node = node
        self.slot = node.slot
        self.committed_in: Set = set()
        self.committed_out: Set = set()

    def check(self, slot_states, ienv: IntervalEnv) -> bool:
        members = slot_states[self.slot].point_members
        return (
            self.committed_in <= members
            and self.committed_out.isdisjoint(members)
        )

    def commit(self, table: Table, p_tri, tri_final, slot_states,
               ienv: IntervalEnv) -> None:
        folded = tri_final != TRI_UNKNOWN
        keys = np.asarray(self.node.value.evaluate(table, ienv.point))
        self._record(keys[folded], p_tri[folded])

    def _record(self, keys: np.ndarray, tri: np.ndarray) -> None:
        for key, status in zip(keys.tolist(), tri.tolist()):
            if status == int(TRI_TRUE):
                self.committed_in.add(key)
            elif status == int(TRI_FALSE):
                self.committed_out.add(key)

    def reset(self) -> None:
        self.committed_in.clear()
        self.committed_out.clear()


class _NodeSetGuard(_SetGuard):
    """A set guard on an ``IN`` node inside a fallback predicate: once
    any row folds, every row commits the node's own decision."""

    def commit(self, table: Table, p_tri, tri_final, slot_states,
               ienv: IntervalEnv) -> None:
        if (tri_final == TRI_UNKNOWN).all():  # nothing folded
            return
        keys = np.asarray(self.node.value.evaluate(table, ienv.point))
        self._record(keys, tri_eval(self.node, table, ienv))


def _subquery_nodes(expr: Expression) -> List[Expression]:
    """Every :class:`SubqueryRef` and :class:`InSubquery` node in
    ``expr``, in pre-order."""
    out: List[Expression] = (
        [expr] if isinstance(expr, (SubqueryRef, InSubquery)) else []
    )
    for child in expr.children():
        out.extend(_subquery_nodes(child))
    return out


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
        refs = _subquery_nodes(uncertain)
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


class BlockGuards:
    """Every guard of one block, chosen once from its uncertain predicates.

    Each guard is paired with the index of the predicate it watches, so
    :meth:`commit` hands it that predicate's own three-valued decision.
    Decision guards are checked first; a fallback predicate's range
    guards are shared per slot (two predicates on one slot commit the
    same range at the same batch).
    """

    def __init__(self, predicates: List[Expression]) -> None:
        decisions: List[Tuple[int, object]] = []
        others: List[Tuple[int, object]] = []
        ranges = {}
        for i, predicate in enumerate(predicates):
            kind, found = _analyze_guard(predicate)
            if kind == "decision":
                decisions.append((i, found))
            elif kind == "set":
                others.append((i, _SetGuard(predicate)))
            else:
                for node in _subquery_nodes(predicate):
                    if isinstance(node, InSubquery):
                        others.append((i, _NodeSetGuard(node)))
                    elif node.slot not in ranges:
                        ranges[node.slot] = (
                            _ScalarGuard(node.slot)
                            if node.correlation is None
                            else _KeyedRangeGuard(node.slot)
                        )
                        others.append((i, ranges[node.slot]))
        #: ``(predicate index, guard)`` pairs, in check order.
        self.guards = decisions + others

    def violation(self, slot_states, ienv: IntervalEnv) -> Optional[str]:
        """The first failing guard as a human-readable cause, or None.

        The cause string is what rebuild trace events report, so a
        profile can say *why* a block recomputed (which slot drifted,
        under which guard strategy), not just that it did.
        """
        for _, guard in self.guards:
            if not guard.check(slot_states, ienv):
                return f"{guard.label} on slot#{guard.slot}"
        return None

    def commit(self, table: Table, p_tris: List[np.ndarray],
               tri_final: np.ndarray, slot_states,
               ienv: IntervalEnv) -> None:
        """Record what this batch's deterministic folds relied on.

        Only rows actually folded (final tri deterministic) impose
        validity constraints.  For a FALSE fold, each conjunct that
        itself evaluated FALSE is (conservatively) required to stay
        FALSE; conjuncts that were TRUE or UNKNOWN at fold time imposed
        nothing — Kleene AND needs a single FALSE.
        """
        for i, guard in self.guards:
            guard.commit(table, p_tris[i], tri_final, slot_states, ienv)

    def reset(self) -> None:
        for _, guard in self.guards:
            guard.reset()
