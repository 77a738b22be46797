"""Extra classifier coverage: CASE intervals, Between, rewrite synergy."""

import numpy as np
import pytest

from repro.core import IntervalEnv, ScalarSlotState, TRI_FALSE, TRI_TRUE, TRI_UNKNOWN
from repro.core.classify import interval_eval, tri_eval
from repro.core.guards import BlockGuards, _DecisionGuard
from repro.estimate import VariationRange
from repro.expr.expressions import (
    Between,
    BinaryOp,
    BooleanOp,
    CaseWhen,
    ColumnRef,
    Comparison,
    Environment,
    InList,
    Literal,
    SubqueryRef,
)
from repro.plan import normalize_predicate
from repro.storage import Table


@pytest.fixture
def table():
    return Table.from_columns({"x": np.array([0.0, 5.0, 10.0])})


def env(lo, hi):
    mid = (lo + hi) / 2
    state = ScalarSlotState(
        slot=0, estimate=mid, replicas=np.array([lo, hi]),
        vrange=VariationRange(lo, hi),
    )
    return IntervalEnv(slots={0: state},
                       point=Environment(scalars={0: mid}))


class TestCaseIntervals:
    def test_certain_guard_selects_branch(self, table):
        # CASE WHEN x > 4 THEN u ELSE 0 END: rows with x<=4 get [0,0].
        expr = CaseWhen(
            [(Comparison(">", ColumnRef("x"), Literal(4)), SubqueryRef(0))],
            Literal(0.0),
        )
        low, high = interval_eval(expr, table, env(2.0, 3.0))
        assert (low[0], high[0]) == (0.0, 0.0)
        assert (low[1], high[1]) == (2.0, 3.0)

    def test_uncertain_guard_unions_branches(self, table):
        # CASE WHEN x > u THEN 100 ELSE 0 END with u in [4, 6]:
        # x = 5 is undecided -> interval spans both branch values.
        expr = CaseWhen(
            [(Comparison(">", ColumnRef("x"), SubqueryRef(0)),
              Literal(100.0))],
            Literal(0.0),
        )
        low, high = interval_eval(expr, table, env(4.0, 6.0))
        assert (low[0], high[0]) == (0.0, 0.0)       # x=0: else only
        assert (low[1], high[1]) == (0.0, 100.0)     # x=5: both
        assert (low[2], high[2]) == (100.0, 100.0)   # x=10: then only


class TestBetweenTri:
    def test_between_with_uncertain_bound(self, table):
        # x BETWEEN u AND 8 with u in [4, 6].
        expr = Between(ColumnRef("x"), SubqueryRef(0), Literal(8.0))
        tri = tri_eval(expr, table, env(4.0, 6.0))
        assert tri.tolist() == [TRI_FALSE, TRI_UNKNOWN, TRI_FALSE]

    def test_between_fully_decided(self, table):
        expr = Between(ColumnRef("x"), SubqueryRef(0), Literal(20.0))
        tri = tri_eval(expr, table, env(1.0, 2.0))
        assert tri.tolist() == [TRI_FALSE, TRI_TRUE, TRI_TRUE]


class TestInListTri:
    def test_uncertain_value_unknown_unless_degenerate(self, table):
        expr = InList(SubqueryRef(0), [5.0])
        tri = tri_eval(expr, table, env(4.0, 6.0))
        assert (tri == TRI_UNKNOWN).all()
        tri2 = tri_eval(expr, table, env(5.0, 5.0))
        assert (tri2 == TRI_TRUE).all()
        tri3 = tri_eval(InList(SubqueryRef(0), [7.0]), table, env(5.0, 5.0))
        assert (tri3 == TRI_FALSE).all()


class TestModuloConservative:
    def test_modulo_over_uncertain_is_unbounded(self, table):
        expr = BinaryOp("%", SubqueryRef(0), Literal(3))
        low, high = interval_eval(expr, table, env(4.0, 6.0))
        assert np.isneginf(low).all() and np.isposinf(high).all()


class TestRewriteClassifySynergy:
    def test_normalized_not_gets_decision_guard(self):
        """NOT (x <= u) normalizes to x > u: one decision guard."""
        raw = BooleanOp("NOT", [
            Comparison("<=", ColumnRef("x"), SubqueryRef(0))
        ])
        [guard] = BlockGuards([normalize_predicate(raw)]).guards
        assert isinstance(guard, _DecisionGuard) and guard.op == ">"

    def test_kleene_not_consistent_with_rewrite(self, table):
        raw = BooleanOp("NOT", [
            Comparison("<=", ColumnRef("x"), SubqueryRef(0))
        ])
        normalized = normalize_predicate(raw)
        e = env(4.0, 6.0)
        np.testing.assert_array_equal(
            tri_eval(raw, table, e), tri_eval(normalized, table, e)
        )


class TestIntervalValuedColumns:
    """A set producer's HAVING, classified per group by plain ``tri_eval``.

    The producer's aggregates are interval-valued columns (their replica
    ranges); group keys stay certain.  One row per producer group.
    """

    GROUPS = Table.from_columns({
        "k": np.array([1, 2, 3, 4], dtype=np.int64),
        "total": np.array([320.0, 265.0, 305.0, np.nan]),  # point values
    })
    TOTAL = (np.array([310.0, 250.0, 290.0, np.nan]),
             np.array([330.0, 280.0, 320.0, np.nan]))

    def test_q18_literal_threshold(self):
        # Q18: ... GROUP BY l_orderkey HAVING SUM(l_quantity) > 300.
        having = Comparison(">", ColumnRef("total"), Literal(300))
        ienv = IntervalEnv(columns={"total": self.TOTAL})
        tri = tri_eval(having, self.GROUPS, ienv)
        # in for good / out for good / may still flip / no data yet
        assert tri.tolist() == [TRI_TRUE, TRI_FALSE, TRI_UNKNOWN,
                                TRI_UNKNOWN]

    def test_q11_uncertain_threshold(self):
        # Q11: ... HAVING SUM(value) > (SELECT SUM(value) * f ...): the
        # threshold is itself a slot with a variation range.
        having = Comparison(
            ">", ColumnRef("total"),
            BinaryOp("*", SubqueryRef(0), Literal(0.5)),
        )
        ienv = env(560.0, 600.0)  # threshold range [280, 300]
        ienv.columns = {"total": self.TOTAL}
        tri = tri_eval(having, self.GROUPS, ienv)
        assert tri.tolist() == [TRI_TRUE, TRI_FALSE, TRI_UNKNOWN,
                                TRI_UNKNOWN]

    def test_certain_conjunct_on_the_group_key_decides(self):
        having = BooleanOp("AND", [
            Comparison("<=", ColumnRef("k"), Literal(2)),
            Comparison(">", BinaryOp("-", ColumnRef("total"), Literal(10)),
                       Literal(275)),
        ])
        ienv = IntervalEnv(columns={"total": self.TOTAL})
        tri = tri_eval(having, self.GROUPS, ienv)
        # k<=2 is exact; total-10 spans [300,320] / [240,270] / ...
        assert tri.tolist() == [TRI_TRUE, TRI_FALSE, TRI_FALSE, TRI_FALSE]

    def test_without_interval_columns_point_evaluation_is_unchanged(self):
        having = Comparison(">", ColumnRef("total"), Literal(300))
        tri = tri_eval(having, self.GROUPS, IntervalEnv())
        assert tri.tolist() == [TRI_TRUE, TRI_FALSE, TRI_TRUE, TRI_FALSE]
