"""Unit tests for interval arithmetic and three-valued classification."""

import numpy as np
import pytest

from repro.core import (
    IntervalEnv,
    KeyedSlotState,
    ScalarSlotState,
    SetSlotState,
    TRI_FALSE,
    TRI_TRUE,
    TRI_UNKNOWN,
    interval_eval,
    tri_eval,
)
from repro.core.guards import BlockGuards
from repro.engine.aggregates import GroupIndex
from repro.estimate import VariationRange
from repro.expr.expressions import (
    BinaryOp,
    BooleanOp,
    ColumnRef,
    Comparison,
    Environment,
    FunctionCall,
    InSubquery,
    Literal,
    Negate,
    SubqueryRef,
)
from repro.storage import Table


@pytest.fixture
def table():
    return Table.from_columns(
        {
            "x": np.array([1.0, 5.0, 9.0, 13.0]),
            "k": np.array([1, 1, 2, 3], dtype=np.int64),
        }
    )


def scalar_env(low, high, estimate=None, slot=0):
    est = (low + high) / 2 if estimate is None else estimate
    state = ScalarSlotState(
        slot=slot, estimate=est,
        replicas=np.array([low, high]),
        vrange=VariationRange(low, high),
    )
    return IntervalEnv(slots={slot: state}, point=Environment(
        scalars={slot: est}
    ))


class TestIntervalEval:
    def test_certain_expression_degenerate(self, table):
        low, high = interval_eval(ColumnRef("x"), table, IntervalEnv())
        np.testing.assert_array_equal(low, high)

    def test_scalar_slot_interval(self, table):
        env = scalar_env(4.0, 6.0)
        low, high = interval_eval(SubqueryRef(0), table, env)
        assert low[0] == 4.0 and high[0] == 6.0

    def test_addition(self, table):
        env = scalar_env(4.0, 6.0)
        expr = BinaryOp("+", ColumnRef("x"), SubqueryRef(0))
        low, high = interval_eval(expr, table, env)
        np.testing.assert_array_equal(low, table["x"] + 4.0)
        np.testing.assert_array_equal(high, table["x"] + 6.0)

    def test_subtraction_flips(self, table):
        env = scalar_env(4.0, 6.0)
        expr = BinaryOp("-", ColumnRef("x"), SubqueryRef(0))
        low, high = interval_eval(expr, table, env)
        np.testing.assert_array_equal(low, table["x"] - 6.0)
        np.testing.assert_array_equal(high, table["x"] - 4.0)

    def test_multiplication_sign_handling(self, table):
        env = scalar_env(-2.0, 3.0)
        expr = BinaryOp("*", Literal(-1.0), SubqueryRef(0))
        low, high = interval_eval(expr, table, env)
        assert low[0] == -3.0 and high[0] == 2.0

    def test_division_through_zero_is_conservative(self, table):
        env = scalar_env(-1.0, 1.0)
        expr = BinaryOp("/", Literal(1.0), SubqueryRef(0))
        low, high = interval_eval(expr, table, env)
        assert low[0] == -np.inf and high[0] == np.inf

    def test_division_safe(self, table):
        env = scalar_env(2.0, 4.0)
        expr = BinaryOp("/", Literal(8.0), SubqueryRef(0))
        low, high = interval_eval(expr, table, env)
        assert low[0] == 2.0 and high[0] == 4.0

    def test_negate(self, table):
        env = scalar_env(4.0, 6.0)
        low, high = interval_eval(Negate(SubqueryRef(0)), table, env)
        assert low[0] == -6.0 and high[0] == -4.0

    def test_monotone_function(self, table):
        env = scalar_env(4.0, 9.0)
        expr = FunctionCall("sqrt", [SubqueryRef(0)])
        low, high = interval_eval(expr, table, env)
        assert low[0] == 2.0 and high[0] == 3.0

    def test_unknown_function_conservative(self, table):
        env = scalar_env(4.0, 9.0)
        expr = FunctionCall("round", [SubqueryRef(0)])
        low, high = interval_eval(expr, table, env)
        assert low[0] == -np.inf and high[0] == np.inf

    def test_keyed_slot_lookup(self, table):
        index = GroupIndex()
        index.encode(np.array([1, 2]))
        state = KeyedSlotState(
            slot=0, index=index,
            estimates=np.array([5.0, 50.0]),
            replicas=np.array([[4.0, 6.0], [45.0, 55.0]]),
            lows=np.array([4.0, 45.0]),
            highs=np.array([6.0, 55.0]),
        )
        env = IntervalEnv(slots={0: state})
        ref = SubqueryRef(0, correlation=ColumnRef("k"))
        low, high = interval_eval(ref, table, env)
        # Key 3 is unseen: fully uncertain.
        assert low[3] == -np.inf and high[3] == np.inf
        assert low[0] == 4.0 and high[2] == 55.0

    def test_keyed_zero_presence_uncertain(self, table):
        index = GroupIndex()
        index.encode(np.array([1]))
        state = KeyedSlotState(
            slot=0, index=index,
            estimates=np.array([0.0]),
            replicas=np.zeros((1, 2)),
            lows=np.array([0.0]), highs=np.array([0.0]),
            present=np.array([False]),
        )
        env = IntervalEnv(slots={0: state})
        ref = SubqueryRef(0, correlation=ColumnRef("k"))
        low, high = interval_eval(ref, table, env)
        assert low[0] == -np.inf and high[0] == np.inf


    def test_values_for_keys_is_the_one_lookup(self, table):
        """Point values, ranges and replicas all map keys the same way:
        unseen (3) and zero-presence (2) keys take the default."""
        index = GroupIndex()
        index.encode(np.array([1, 2]))
        replicas = np.array([[4.0, 6.0, 5.0], [45.0, 55.0, 50.0]])
        state = KeyedSlotState(
            slot=0, index=index, estimates=np.array([5.0, 50.0]),
            replicas=replicas, lows=np.array([4.0, 45.0]),
            highs=np.array([6.0, 55.0]),
            present=np.array([True, False]),
        )
        keys = table.column("k")  # [1, 1, 2, 3]
        point = state.values_for_keys(keys, state.estimates, np.nan)
        np.testing.assert_array_equal(point, [5.0, 5.0, np.nan, np.nan])
        gathered = state.values_for_keys(keys, replicas, -1.0)
        np.testing.assert_array_equal(
            gathered, [replicas[0], replicas[0], [-1.0] * 3, [-1.0] * 3]
        )
        assert state.values_for_keys(
            keys[:, None], state.estimates, 0.0).shape == (4, 1)
        assert state.values_for_keys(
            keys[:0], replicas, 0.0).shape == (0, 3)
        # The point binding is that lookup, default included.
        penv = Environment()
        state.bind_point(penv)
        ref = SubqueryRef(0, correlation=ColumnRef("k"), default=-7.0)
        np.testing.assert_array_equal(
            ref.evaluate(table, penv), [5.0, 5.0, -7.0, -7.0]
        )


class TestTriEval:
    def test_certain_predicate_is_definite(self, table):
        tri = tri_eval(
            Comparison(">", ColumnRef("x"), Literal(5.0)), table,
            IntervalEnv(),
        )
        assert tri.tolist() == [TRI_FALSE, TRI_FALSE, TRI_TRUE, TRI_TRUE]

    def test_threshold_classification(self, table):
        # x in {1,5,9,13}; uncertain threshold in [4, 6].
        env = scalar_env(4.0, 6.0)
        tri = tri_eval(
            Comparison(">", ColumnRef("x"), SubqueryRef(0)), table, env
        )
        assert tri.tolist() == [TRI_FALSE, TRI_UNKNOWN, TRI_TRUE, TRI_TRUE]

    def test_lt_lte_edges(self, table):
        env = scalar_env(5.0, 5.0)  # degenerate at exactly 5
        lt = tri_eval(Comparison("<", ColumnRef("x"), SubqueryRef(0)),
                      table, env)
        lte = tri_eval(Comparison("<=", ColumnRef("x"), SubqueryRef(0)),
                       table, env)
        assert lt.tolist() == [TRI_TRUE, TRI_FALSE, TRI_FALSE, TRI_FALSE]
        assert lte.tolist() == [TRI_TRUE, TRI_TRUE, TRI_FALSE, TRI_FALSE]

    def test_equality(self, table):
        env = scalar_env(5.0, 5.0)
        eq = tri_eval(Comparison("=", ColumnRef("x"), SubqueryRef(0)),
                      table, env)
        assert eq.tolist() == [TRI_FALSE, TRI_TRUE, TRI_FALSE, TRI_FALSE]
        wide = scalar_env(4.0, 6.0)
        eq2 = tri_eval(Comparison("=", ColumnRef("x"), SubqueryRef(0)),
                       table, wide)
        assert eq2.tolist() == [TRI_FALSE, TRI_UNKNOWN, TRI_FALSE, TRI_FALSE]

    def test_kleene_not(self, table):
        env = scalar_env(4.0, 6.0)
        inner = Comparison(">", ColumnRef("x"), SubqueryRef(0))
        tri = tri_eval(BooleanOp("NOT", [inner]), table, env)
        assert tri.tolist() == [TRI_TRUE, TRI_UNKNOWN, TRI_FALSE, TRI_FALSE]

    def test_kleene_and_or(self, table):
        env = scalar_env(4.0, 6.0)
        uncertain = Comparison(">", ColumnRef("x"), SubqueryRef(0))
        always = Comparison(">", ColumnRef("x"), Literal(0.0))
        never = Comparison("<", ColumnRef("x"), Literal(0.0))
        tri_and = tri_eval(BooleanOp("AND", [uncertain, always]), table, env)
        assert tri_and.tolist() == \
            [TRI_FALSE, TRI_UNKNOWN, TRI_TRUE, TRI_TRUE]
        # OR with an always-true side resolves UNKNOWN to TRUE.
        tri_or = tri_eval(BooleanOp("OR", [uncertain, always]), table, env)
        assert tri_or.tolist() == [TRI_TRUE] * 4
        # AND with an always-false side resolves UNKNOWN to FALSE.
        tri_and2 = tri_eval(BooleanOp("AND", [uncertain, never]), table, env)
        assert tri_and2.tolist() == [TRI_FALSE] * 4

    def test_in_subquery_membership(self, table):
        state = SetSlotState(
            slot=0,
            point_members={1},
            tri_status={1: int(TRI_TRUE), 2: int(TRI_FALSE)},
        )
        env = IntervalEnv(slots={0: state})
        tri = tri_eval(InSubquery(ColumnRef("k"), 0), table, env)
        assert tri.tolist() == [TRI_TRUE, TRI_TRUE, TRI_FALSE, TRI_UNKNOWN]
        negated = tri_eval(
            InSubquery(ColumnRef("k"), 0, negated=True), table, env
        )
        assert negated.tolist() == \
            [TRI_FALSE, TRI_FALSE, TRI_TRUE, TRI_UNKNOWN]

    def test_static_set_closed_default(self, table):
        state = SetSlotState(
            slot=0, point_members={1}, tri_status={1: int(TRI_TRUE)},
            default_status=TRI_FALSE,
        )
        env = IntervalEnv(slots={0: state})
        tri = tri_eval(InSubquery(ColumnRef("k"), 0), table, env)
        assert tri.tolist() == [TRI_TRUE, TRI_TRUE, TRI_FALSE, TRI_FALSE]


class TestClassify:
    """A block's classification under a conjunction of predicates
    (:meth:`BlockGuards.classify`)."""

    def test_conjunction(self, table):
        env = scalar_env(4.0, 6.0)
        uncertain = Comparison(">", ColumnRef("x"), SubqueryRef(0))
        certain = Comparison("<", ColumnRef("x"), Literal(10.0))
        tri = BlockGuards([uncertain, certain]).classify(table, env)
        assert tri.tolist() == \
            [TRI_FALSE, TRI_UNKNOWN, TRI_TRUE, TRI_FALSE]

    def test_empty_table(self):
        empty = Table.from_columns({"x": np.array([])})
        tri = BlockGuards([Comparison(">", ColumnRef("x"), SubqueryRef(0))]
                          ).classify(empty, scalar_env(4.0, 6.0))
        assert tri.shape == (0,)

    def test_point_decision_consistent_with_tri(self, table):
        """Soundness: deterministic tri values match point evaluation."""
        env = scalar_env(4.0, 6.0, estimate=5.0)
        pred = Comparison(">", ColumnRef("x"), SubqueryRef(0))
        tri = tri_eval(pred, table, env)
        point = pred.evaluate(table, env.point)
        for t, p in zip(tri, point):
            if t == TRI_TRUE:
                assert p
            elif t == TRI_FALSE:
                assert not p
