"""Unit tests for the guard each atom gets and for decision guards."""

import numpy as np
import pytest

from repro.core.guards import BlockGuards, _DecisionGuard, _SetGuard
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


def guards_of(pred):
    """The guards of one predicate's atoms."""
    return BlockGuards([pred]).guards


def decision(pred):
    [guard] = guards_of(pred)
    assert isinstance(guard, _DecisionGuard)
    return guard


class TestAnalyzeGuard:
    def test_simple_scalar_comparison(self):
        guard = decision(Comparison(">", ColumnRef("x"), SubqueryRef(0)))
        assert guard.op == ">" and guard.correlation_name is None

    def test_flipped_sides(self):
        guard = decision(Comparison("<", SubqueryRef(0), ColumnRef("x")))
        assert guard.op == ">"  # normalized: x > u

    def test_affine_uncertain_side(self):
        decision(Comparison(
            "<", ColumnRef("x"),
            BinaryOp("*", Literal(0.5), SubqueryRef(0)),
        ))

    def test_keyed_correlation(self):
        guard = decision(Comparison(
            ">", ColumnRef("x"),
            SubqueryRef(0, correlation=ColumnRef("k")),
        ))
        assert guard.correlation_name == "k"

    def test_in_subquery_is_set(self):
        [guard] = guards_of(InSubquery(ColumnRef("k"), 1))
        assert isinstance(guard, _SetGuard)

    def test_both_sides_uncertain_is_one_decision(self):
        guard = decision(Comparison(">", SubqueryRef(0), SubqueryRef(1)))
        assert set(guard.slots) == {0, 1}
        assert guard.certain_side.sql() == "0.0"

    def test_equality_is_a_less_greater_pair(self):
        guards = guards_of(Comparison("=", ColumnRef("x"), SubqueryRef(0)))
        assert [g.op for g in guards] == ["<", ">"]

    def test_row_columns_move_to_the_certain_side(self):
        guard = decision(Comparison(
            ">", ColumnRef("x"),
            BinaryOp("+", ColumnRef("y"), SubqueryRef(0)),
        ))
        assert guard.certain_side.sql() == "(x - y)"
        assert guard.uncertain_side.sql() == "<subquery#0>"

    def test_disjunction_guards_its_uncertain_atom(self):
        guard = decision(BooleanOp("OR", [
            Comparison(">", ColumnRef("x"), SubqueryRef(0)),
            Comparison("<", ColumnRef("x"), Literal(0)),
        ]))
        assert guard.op == ">"

    def test_slot_times_row_column_is_never_decided(self):
        pred = Comparison(
            ">", ColumnRef("x"),
            BinaryOp("*", ColumnRef("y"), SubqueryRef(0)),
        )
        guards = BlockGuards([pred])
        assert guards.guards == []
        assert guards.describe() == [
            "(x > (y * <subquery#0>)): cached until the last batch"]

    def test_two_correlations_are_never_decided(self):
        pred = Comparison(">", ColumnRef("x"), BinaryOp(
            "+", SubqueryRef(0, correlation=ColumnRef("k")),
            SubqueryRef(1, correlation=ColumnRef("j")),
        ))
        assert guards_of(pred) == []


def cached(values):
    return Table.from_columns({"x": np.asarray(values, dtype=float)})


def commit(guard, rows, tri, state):
    """Commit folds whose final decision is the predicate's own."""
    guard.commit(rows, tri,
                 IntervalEnv(slots={0: state}, point=Environment()))


class TestDecisionGuardScalar:
    def make(self, op=">"):
        return decision(Comparison(op, ColumnRef("x"), SubqueryRef(0)))

    def test_commit_and_pass_check(self):
        guard = self.make(">")
        rows = cached([1.0, 5.0, 9.0])
        tri = np.array([TRI_FALSE, TRI_UNKNOWN, TRI_TRUE], dtype=np.int8)
        state = scalar_state(5.0, 4.0, 6.0)
        commit(guard, rows, tri, state)
        ienv = IntervalEnv(slots={0: state},
                           point=Environment(scalars={0: 5.0}))
        assert guard.check(ienv)

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
        assert not guard.check(ienv)

    def test_violation_when_point_crosses_false_fold(self):
        guard = self.make(">")
        rows = cached([1.0])
        tri = np.array([TRI_FALSE], dtype=np.int8)
        state = scalar_state(5.0, 4.0, 6.0)
        commit(guard, rows, tri, state)
        moved = scalar_state(0.5, 0.2, 0.8)
        ienv = IntervalEnv(slots={0: moved},
                           point=Environment(scalars={0: 0.5}))
        assert not guard.check(ienv)

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
        assert guard.check(ienv)

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
        assert guard.check(ienv)

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
        assert guard.check(ienv)
        # Strictly cross the folded value so even <=/>= flip.
        crossing = far_true + 1.0 if op in (">", ">=") else far_true - 1.0
        crossed = scalar_state(crossing, crossing - 0.5, crossing + 0.5)
        ienv2 = IntervalEnv(slots={0: crossed},
                            point=Environment(scalars={0: crossing}))
        assert not guard.check(ienv2)


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
        return decision(Comparison(
            ">", ColumnRef("x"),
            SubqueryRef(0, correlation=ColumnRef("k")),
        ))

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
        assert guard.check(ienv)
        # Group 0 drifts above its folded-true row -> violation; group 1
        # drifting inside ITS safe region would not have mattered.
        drifted = self.make_state([25.0, 100.0])
        assert not guard.check(
                               IntervalEnv(slots={0: drifted},
                                           point=Environment()))

    def test_new_groups_are_vacuous(self):
        guard = self.make_guard()
        state = self.make_state([10.0])
        rows = self.cached_keyed([20.0], [0])
        tri = np.array([TRI_TRUE], dtype=np.int8)
        commit(guard, rows, tri, state)
        grown = self.make_state([10.0, 1e9])  # new group, wild value
        assert guard.check(
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
        assert guard.check(IntervalEnv(slots={0: ok}))
        dropped = SetSlotState(slot=0, point_members={9}, tri_status={})
        # committed-in key 1 left the set
        assert not guard.check(IntervalEnv(slots={0: dropped}))
        joined = SetSlotState(slot=0, point_members={1, 2}, tri_status={})
        # committed-out key 2 joined
        assert not guard.check(IntervalEnv(slots={0: joined}))


class TestBlockGuards:
    """Classification plus the commit rule: an atom commits only on the
    folded rows whose result it helped decide."""

    @staticmethod
    def env(*states):
        point = Environment()
        for state in states:
            state.bind_point(point)
        return IntervalEnv(slots={s.slot: s for s in states}, point=point)

    def test_certain_disjunct_deciding_alone_commits_nothing(self):
        pred = BooleanOp("OR", [
            Comparison(">", ColumnRef("x"), SubqueryRef(0)),
            Comparison(">", ColumnRef("y"), Literal(0)),
        ])
        guards = BlockGuards([pred])
        rows = Table.from_columns({"x": np.array([9.0, 9.0, 1.0]),
                                   "y": np.array([1.0, -1.0, -1.0])})
        tri = guards.classify(rows, self.env(scalar_state(5.0, 4.0, 6.0)))
        assert tri.tolist() == [TRI_TRUE, TRI_TRUE, TRI_FALSE]
        [guard] = guards.guards
        # Row 0 is TRUE through y alone; rows 1 and 2 rest on x vs u.
        max_true, min_true, max_false, min_false = guard.extremes[:, 0]
        assert (max_true, min_true) == (9.0, 9.0)
        assert (max_false, min_false) == (1.0, 1.0)

    def test_two_false_conjuncts_both_commit(self):
        """Either conjunct flipping alone leaves the row FALSE, but both
        may flip together, so both must stay FALSE."""
        a = Comparison(">", ColumnRef("x"), SubqueryRef(0))
        b = Comparison(">", ColumnRef("y"), SubqueryRef(1))
        guards = BlockGuards([a, b])
        rows = Table.from_columns({"x": np.array([1.0]),
                                   "y": np.array([1.0])})
        ienv = self.env(scalar_state(5.0, 4.0, 6.0),
                        scalar_state(5.0, 4.0, 6.0, slot=1))
        assert guards.classify(rows, ienv).tolist() == [TRI_FALSE]
        assert guards.violation(ienv) is None
        moved = self.env(scalar_state(5.0, 4.0, 6.0),
                         scalar_state(0.5, 0.0, 1.0, slot=1))
        assert guards.violation(moved) == \
            "guard failed: decision on slot#1"

    def test_equality_pair_commits_the_side_each_row_is_on(self):
        guards = BlockGuards([Comparison("=", ColumnRef("x"),
                                         SubqueryRef(0))])
        rows = Table.from_columns({"x": np.array([1.0, 9.0])})
        ienv = self.env(scalar_state(5.0, 4.0, 6.0))
        assert guards.classify(rows, ienv).tolist() == [TRI_FALSE] * 2
        # u may drift anywhere strictly between the two folded rows.
        assert guards.violation(self.env(scalar_state(8.5, 8, 9))) is None
        assert guards.violation(self.env(scalar_state(9.0, 8, 9)))
        assert guards.violation(self.env(scalar_state(1.0, 0, 2)))

    def test_not_in_commits_membership(self):
        guards = BlockGuards([InSubquery(ColumnRef("k"), 0, negated=True)])
        state = SetSlotState(slot=0, point_members={1},
                             tri_status={1: int(TRI_TRUE),
                                         2: int(TRI_FALSE)})
        rows = Table.from_columns({"k": np.array([1, 2, 3])})
        ienv = self.env(state)
        assert guards.classify(rows, ienv).tolist() == \
            [TRI_FALSE, TRI_TRUE, TRI_UNKNOWN]
        [guard] = guards.guards
        assert guard.committed_in == {1} and guard.committed_out == {2}
        assert guards.violation(ienv) is None
