"""Unit tests for guard strategy analysis and decision guards."""

import numpy as np
import pytest

from repro.core.guards import _SetGuard, _analyze_guard
from repro.core.uncertain import (
    TRI_FALSE,
    TRI_TRUE,
    TRI_UNKNOWN,
    KeyedSlotState,
    ScalarSlotState,
    SetSlotState,
)
from repro.engine.aggregates import GroupIndex
from repro.estimate import VariationRange
from repro.expr.expressions import (
    BinaryOp,
    BooleanOp,
    ColumnRef,
    Comparison,
    Environment,
    InSubquery,
    Literal,
    SubqueryRef,
)
from repro.core.classify import IntervalEnv
from repro.storage import Table


def scalar_state(estimate, lo, hi, slot=0):
    return ScalarSlotState(
        slot=slot, estimate=estimate,
        replicas=np.array([lo, hi]),
        vrange=VariationRange(lo, hi),
    )


class TestAnalyzeGuard:
    def test_simple_scalar_comparison(self):
        pred = Comparison(">", ColumnRef("x"), SubqueryRef(0))
        kind, guard = _analyze_guard(pred)
        assert kind == "decision"
        assert guard.op == ">" and guard.correlation_name is None

    def test_flipped_sides(self):
        pred = Comparison("<", SubqueryRef(0), ColumnRef("x"))
        kind, guard = _analyze_guard(pred)
        assert kind == "decision"
        assert guard.op == ">"  # normalized: x > u

    def test_affine_uncertain_side(self):
        pred = Comparison(
            "<", ColumnRef("x"),
            BinaryOp("*", Literal(0.5), SubqueryRef(0)),
        )
        kind, guard = _analyze_guard(pred)
        assert kind == "decision"

    def test_keyed_correlation(self):
        pred = Comparison(
            ">", ColumnRef("x"),
            SubqueryRef(0, correlation=ColumnRef("k")),
        )
        kind, guard = _analyze_guard(pred)
        assert kind == "decision" and guard.correlation_name == "k"

    def test_in_subquery_is_set(self):
        kind, node = _analyze_guard(InSubquery(ColumnRef("k"), 1))
        assert kind == "set"

    def test_both_sides_uncertain_falls_back(self):
        pred = Comparison(">", SubqueryRef(0), SubqueryRef(1))
        kind, slots = _analyze_guard(pred)
        assert kind == "fallback" and slots == {0, 1}

    def test_equality_falls_back(self):
        pred = Comparison("=", ColumnRef("x"), SubqueryRef(0))
        kind, _ = _analyze_guard(pred)
        assert kind == "fallback"

    def test_row_columns_on_uncertain_side_fall_back(self):
        pred = Comparison(
            ">", ColumnRef("x"),
            BinaryOp("+", ColumnRef("y"), SubqueryRef(0)),
        )
        kind, _ = _analyze_guard(pred)
        assert kind == "fallback"

    def test_disjunction_falls_back(self):
        pred = BooleanOp("OR", [
            Comparison(">", ColumnRef("x"), SubqueryRef(0)),
            Comparison("<", ColumnRef("x"), Literal(0)),
        ])
        kind, _ = _analyze_guard(pred)
        assert kind == "fallback"


def cached(values):
    return Table.from_columns({"x": np.asarray(values, dtype=float)})


def commit(guard, rows, tri, state):
    """Commit folds whose final decision is the predicate's own."""
    guard.commit(rows, tri, tri, {0: state},
                 IntervalEnv(slots={0: state}, point=Environment()))


class TestDecisionGuardScalar:
    def make(self, op=">"):
        pred = Comparison(op, ColumnRef("x"), SubqueryRef(0))
        kind, guard = _analyze_guard(pred)
        assert kind == "decision"
        return guard

    def test_commit_and_pass_check(self):
        guard = self.make(">")
        rows = cached([1.0, 5.0, 9.0])
        tri = np.array([TRI_FALSE, TRI_UNKNOWN, TRI_TRUE], dtype=np.int8)
        state = scalar_state(5.0, 4.0, 6.0)
        commit(guard, rows, tri, state)
        ienv = IntervalEnv(slots={0: state},
                           point=Environment(scalars={0: 5.0}))
        assert guard.check({0: state}, ienv)

    def test_violation_when_point_crosses_true_fold(self):
        guard = self.make(">")
        rows = cached([9.0])
        tri = np.array([TRI_TRUE], dtype=np.int8)
        state = scalar_state(5.0, 4.0, 6.0)
        commit(guard, rows, tri, state)
        # Point estimate drifts ABOVE the folded-true row's value: the
        # decision "9 > u" is no longer point-correct.
        moved = scalar_state(9.5, 9.0, 10.0)
        ienv = IntervalEnv(slots={0: moved},
                           point=Environment(scalars={0: 9.5}))
        assert not guard.check({0: moved}, ienv)

    def test_violation_when_point_crosses_false_fold(self):
        guard = self.make(">")
        rows = cached([1.0])
        tri = np.array([TRI_FALSE], dtype=np.int8)
        state = scalar_state(5.0, 4.0, 6.0)
        commit(guard, rows, tri, state)
        moved = scalar_state(0.5, 0.2, 0.8)
        ienv = IntervalEnv(slots={0: moved},
                           point=Environment(scalars={0: 0.5}))
        assert not guard.check({0: moved}, ienv)

    def test_uncertain_rows_impose_nothing(self):
        guard = self.make(">")
        rows = cached([5.0])
        tri = np.array([TRI_UNKNOWN], dtype=np.int8)
        state = scalar_state(5.0, 4.0, 6.0)
        commit(guard, rows, tri, state)
        # Huge drift: still fine, nothing was folded.
        moved = scalar_state(100.0, 99.0, 101.0)
        ienv = IntervalEnv(slots={0: moved},
                           point=Environment(scalars={0: 100.0}))
        assert guard.check({0: moved}, ienv)

    def test_reset_clears_constraints(self):
        guard = self.make(">")
        rows = cached([9.0])
        tri = np.array([TRI_TRUE], dtype=np.int8)
        state = scalar_state(5.0, 4.0, 6.0)
        commit(guard, rows, tri, state)
        guard.reset()
        moved = scalar_state(9.5, 9.0, 10.0)
        ienv = IntervalEnv(slots={0: moved},
                           point=Environment(scalars={0: 9.5}))
        assert guard.check({0: moved}, ienv)

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_all_ops_sound_on_margin(self, op):
        """Folds far from the value survive; crossings are caught."""
        guard = self.make(op)
        state = scalar_state(50.0, 45.0, 55.0)
        far_true = 100.0 if op in (">", ">=") else 0.0
        rows = cached([far_true])
        tri = np.array([TRI_TRUE], dtype=np.int8)
        commit(guard, rows, tri, state)
        ienv = IntervalEnv(slots={0: state},
                           point=Environment(scalars={0: 50.0}))
        assert guard.check({0: state}, ienv)
        # Strictly cross the folded value so even <=/>= flip.
        crossing = far_true + 1.0 if op in (">", ">=") else far_true - 1.0
        crossed = scalar_state(crossing, crossing - 0.5, crossing + 0.5)
        ienv2 = IntervalEnv(slots={0: crossed},
                            point=Environment(scalars={0: crossing}))
        assert not guard.check({0: crossed}, ienv2)


class TestDecisionGuardKeyed:
    def make_state(self, estimates, slot=0):
        index = GroupIndex()
        index.encode(np.arange(len(estimates), dtype=np.int64))
        estimates = np.asarray(estimates, dtype=float)
        return KeyedSlotState(
            slot=slot, index=index, estimates=estimates,
            replicas=np.repeat(estimates[:, None], 2, axis=1),
            lows=estimates - 1.0, highs=estimates + 1.0,
        )

    def make_guard(self):
        pred = Comparison(
            ">", ColumnRef("x"),
            SubqueryRef(0, correlation=ColumnRef("k")),
        )
        kind, guard = _analyze_guard(pred)
        assert kind == "decision"
        return guard

    def cached_keyed(self, xs, keys):
        return Table.from_columns({
            "x": np.asarray(xs, dtype=float),
            "k": np.asarray(keys, dtype=np.int64),
        })

    def test_per_group_isolation(self):
        guard = self.make_guard()
        state = self.make_state([10.0, 100.0])
        rows = self.cached_keyed([20.0, 50.0], [0, 1])
        tri = np.array([TRI_TRUE, TRI_FALSE], dtype=np.int8)
        commit(guard, rows, tri, state)
        ienv = IntervalEnv(slots={0: state}, point=Environment())
        assert guard.check({0: state}, ienv)
        # Group 0 drifts above its folded-true row -> violation; group 1
        # drifting inside ITS safe region would not have mattered.
        drifted = self.make_state([25.0, 100.0])
        assert not guard.check({0: drifted},
                               IntervalEnv(slots={0: drifted},
                                           point=Environment()))

    def test_new_groups_are_vacuous(self):
        guard = self.make_guard()
        state = self.make_state([10.0])
        rows = self.cached_keyed([20.0], [0])
        tri = np.array([TRI_TRUE], dtype=np.int8)
        commit(guard, rows, tri, state)
        grown = self.make_state([10.0, 1e9])  # new group, wild value
        assert guard.check({0: grown},
                           IntervalEnv(slots={0: grown},
                                       point=Environment()))


class TestSetGuard:
    def test_membership_commitments(self):
        guard = _SetGuard(InSubquery(ColumnRef("k"), 0))
        ok = SetSlotState(slot=0, point_members={1, 9}, tri_status={})
        commit(guard, Table.from_columns({"k": np.array([1, 2, 3])}),
               np.array([TRI_TRUE, TRI_FALSE, TRI_UNKNOWN], dtype=np.int8),
               ok)
        assert guard.committed_in == {1} and guard.committed_out == {2}
        assert guard.check({0: ok}, None)
        dropped = SetSlotState(slot=0, point_members={9}, tri_status={})
        # committed-in key 1 left the set
        assert not guard.check({0: dropped}, None)
        joined = SetSlotState(slot=0, point_members={1, 2}, tri_status={})
        # committed-out key 2 joined
        assert not guard.check({0: joined}, None)
