"""Unit tests for expression trees and vectorized evaluation."""

import numpy as np
import pytest

from repro.errors import BindError, ExecutionError
from repro.expr import (
    Between,
    BinaryOp,
    BooleanOp,
    CaseWhen,
    ColumnRef,
    Comparison,
    Environment,
    FunctionCall,
    FunctionRegistry,
    InList,
    InSubquery,
    Literal,
    Negate,
    SubqueryRef,
    conjoin,
    conjuncts,
    evaluate_mask,
)
from repro.storage import Table


@pytest.fixture
def table():
    return Table.from_columns(
        {
            "a": np.array([1.0, 2.0, 3.0, 4.0]),
            "b": np.array([4.0, 3.0, 2.0, 1.0]),
            "s": np.array(["x", "y", "x", "z"], dtype=object),
        }
    )


class TestBasics:
    def test_literal(self, table):
        assert Literal(5).evaluate(table) == 5

    def test_column_ref(self, table):
        np.testing.assert_array_equal(
            ColumnRef("a").evaluate(table), [1.0, 2.0, 3.0, 4.0]
        )

    def test_references(self):
        expr = BinaryOp("+", ColumnRef("a"), ColumnRef("b"))
        assert expr.references() == {"a", "b"}

    def test_arithmetic(self, table):
        out = BinaryOp("*", ColumnRef("a"), Literal(2)).evaluate(table)
        np.testing.assert_array_equal(out, [2.0, 4.0, 6.0, 8.0])

    def test_division_by_zero_is_zero(self, table):
        out = BinaryOp("/", ColumnRef("a"), Literal(0)).evaluate(table)
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 0.0])
        assert BinaryOp("/", Literal(1.0), Literal(0.0)).evaluate(table) == 0.0

    def test_negate(self, table):
        out = Negate(ColumnRef("a")).evaluate(table)
        np.testing.assert_array_equal(out, [-1.0, -2.0, -3.0, -4.0])

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExecutionError):
            BinaryOp("**", Literal(1), Literal(2))
        with pytest.raises(ExecutionError):
            Comparison("~", Literal(1), Literal(2))


class TestPredicates:
    def test_comparison(self, table):
        out = Comparison("<", ColumnRef("a"), ColumnRef("b")).evaluate(table)
        assert out.tolist() == [True, True, False, False]

    def test_boolean_and_or_not(self, table):
        lt = Comparison("<", ColumnRef("a"), Literal(3))
        gt = Comparison(">", ColumnRef("a"), Literal(1))
        both = BooleanOp("AND", [lt, gt]).evaluate(table)
        assert both.tolist() == [False, True, False, False]
        either = BooleanOp("OR", [lt, gt]).evaluate(table)
        assert either.tolist() == [True, True, True, True]
        negated = BooleanOp("NOT", [lt]).evaluate(table)
        assert negated.tolist() == [False, False, True, True]

    def test_boolean_arity_checked(self):
        with pytest.raises(ExecutionError):
            BooleanOp("AND", [Literal(True)])
        with pytest.raises(ExecutionError):
            BooleanOp("NOT", [Literal(True), Literal(False)])

    def test_between(self, table):
        out = Between(ColumnRef("a"), Literal(2), Literal(3)).evaluate(table)
        assert out.tolist() == [False, True, True, False]

    def test_in_list(self, table):
        out = InList(ColumnRef("s"), ["x", "z"]).evaluate(table)
        assert out.tolist() == [True, False, True, True]

    def test_evaluate_mask_broadcasts_scalar(self, table):
        mask = evaluate_mask(Literal(True), table)
        assert mask.tolist() == [True] * 4


class TestCase:
    def test_first_match_wins(self, table):
        expr = CaseWhen(
            [(Comparison(">", ColumnRef("a"), Literal(3)), Literal(100.0)),
             (Comparison(">", ColumnRef("a"), Literal(1)), Literal(10.0))],
            Literal(0.0),
        )
        out = expr.evaluate(table)
        np.testing.assert_array_equal(out, [0.0, 10.0, 10.0, 100.0])

    def test_missing_else_defaults_zero(self, table):
        expr = CaseWhen(
            [(Comparison(">", ColumnRef("a"), Literal(3)), Literal(1.0))]
        )
        np.testing.assert_array_equal(
            expr.evaluate(table), [0.0, 0.0, 0.0, 1.0]
        )


class TestFunctions:
    def test_builtin(self, table):
        out = FunctionCall("sqrt", [ColumnRef("a")]).evaluate(table)
        np.testing.assert_allclose(out, np.sqrt([1, 2, 3, 4]))

    def test_floor_in_default_registry(self, table):
        out = FunctionCall(
            "floor", [BinaryOp("/", ColumnRef("a"), Literal(2))]
        ).evaluate(table)
        np.testing.assert_array_equal(out, [0.0, 1.0, 1.0, 2.0])

    def test_udf_registration(self, table):
        registry = FunctionRegistry()
        registry.register("double", lambda v: v * 2)
        env = Environment(functions=registry)
        out = FunctionCall("double", [ColumnRef("a")]).evaluate(table, env)
        np.testing.assert_array_equal(out, [2.0, 4.0, 6.0, 8.0])

    def test_duplicate_udf_rejected(self):
        registry = FunctionRegistry()
        registry.register("f", lambda v: v)
        with pytest.raises(BindError):
            registry.register("f", lambda v: v)

    def test_unknown_function(self, table):
        with pytest.raises(BindError, match="unknown function"):
            FunctionCall("nope", []).evaluate(table)

    def test_string_functions(self, table):
        out = FunctionCall("upper", [ColumnRef("s")]).evaluate(table)
        assert out.tolist() == ["X", "Y", "X", "Z"]
        out = FunctionCall("length", [ColumnRef("s")]).evaluate(table)
        assert out.tolist() == [1, 1, 1, 1]

    def test_greatest_least(self, table):
        out = FunctionCall(
            "greatest", [ColumnRef("a"), ColumnRef("b")]
        ).evaluate(table)
        np.testing.assert_array_equal(out, [4.0, 3.0, 3.0, 4.0])


class _Columns:
    """Plain arrays of any shape behind the table interface."""

    def __init__(self, columns):
        self._columns = columns
        self.num_rows = len(next(iter(columns.values())))

    def column(self, name):
        return self._columns[name]


class TestSubqueryRefs:
    def test_scalar_lookup(self, table):
        env = Environment(scalars={0: 2.5})
        assert SubqueryRef(0).evaluate(table, env) == 2.5

    def test_scalar_missing_binding(self, table):
        with pytest.raises(ExecutionError, match="no value bound"):
            SubqueryRef(0).evaluate(table, Environment())

    def test_keyed_lookup_with_default(self, table):
        env = Environment(keyed={1: {"x": 10.0, "y": 20.0}})
        ref = SubqueryRef(1, correlation=ColumnRef("s"), default=-1.0)
        out = ref.evaluate(table, env)
        np.testing.assert_array_equal(out, [10.0, 20.0, 10.0, -1.0])

    def test_in_subquery(self, table):
        env = Environment(key_sets={2: {"x"}})
        out = InSubquery(ColumnRef("s"), 2).evaluate(table, env)
        assert out.tolist() == [True, False, True, False]
        negated = InSubquery(ColumnRef("s"), 2, negated=True)
        assert negated.evaluate(table, env).tolist() == \
            [False, True, False, True]

    def test_keyed_lookup_keeps_key_shape(self):
        """(n,) and (n, 1) key arrays give the same values, reshaped."""
        keys = np.array(["x", "y", "x", "z"], dtype=object)
        env = Environment(keyed={1: {"x": 10.0, "y": 20.0}})
        ref = SubqueryRef(1, correlation=ColumnRef("s"), default=-1.0)
        flat = ref.evaluate(_Columns({"s": keys}), env)
        column = ref.evaluate(_Columns({"s": keys[:, None]}), env)
        assert flat.shape == (4,) and column.shape == (4, 1)
        np.testing.assert_array_equal(column[:, 0], flat)

    def test_keyed_lookup_through_vectorized_binding(self):
        """A callable binding receives the key array and the default."""
        calls = []

        def lookup(keys, default):
            calls.append((keys.shape, default))
            return np.where(keys == "x", 10.0, default)

        ref = SubqueryRef(1, correlation=ColumnRef("s"), default=-1.0)
        keys = np.array(["x", "y"], dtype=object)[:, None]
        out = ref.evaluate(_Columns({"s": keys}), Environment(keyed={1: lookup}))
        np.testing.assert_array_equal(out, [[10.0], [-1.0]])
        assert calls == [((2, 1), -1.0)]

    def test_in_subquery_keeps_key_shape(self):
        keys = np.array([1, 2, 3, 2], dtype=np.int64)
        env = Environment(key_sets={2: {2, 3}})
        for negated in (False, True):
            node = InSubquery(ColumnRef("k"), 2, negated=negated)
            flat = node.evaluate(_Columns({"k": keys}), env)
            column = node.evaluate(_Columns({"k": keys[:, None]}), env)
            assert flat.shape == (4,) and column.shape == (4, 1)
            np.testing.assert_array_equal(column[:, 0], flat)
        assert flat.tolist() == [True, False, False, False]

    def test_case_when_broadcasts_over_a_trial_axis(self):
        """A branch reading (B, 1) replicas yields a (B, n) result whose
        rows are the per-replica evaluations."""
        a = np.array([1.0, 2.0, 3.0, 4.0])
        expr = CaseWhen(
            [(Comparison(">", ColumnRef("a"), SubqueryRef(0)), Literal(1.0))],
            ColumnRef("a"),
        )
        replicas = np.array([0.5, 2.5, 9.0])
        table = _Columns({"a": a})
        out = expr.evaluate(table, Environment(scalars={0: replicas[:, None]}))
        assert out.shape == (3, 4)
        for j, value in enumerate(replicas):
            np.testing.assert_array_equal(
                out[j],
                expr.evaluate(table, Environment(scalars={0: float(value)})),
            )

    def test_subquery_slots_collected(self):
        expr = BooleanOp("AND", [
            Comparison(">", ColumnRef("a"), SubqueryRef(0)),
            InSubquery(ColumnRef("s"), 3),
        ])
        assert expr.subquery_slots() == {0, 3}


class TestConjuncts:
    def test_flatten_nested_ands(self):
        p1 = Comparison(">", ColumnRef("a"), Literal(1))
        p2 = Comparison("<", ColumnRef("a"), Literal(5))
        p3 = InList(ColumnRef("s"), ["x"])
        expr = BooleanOp("AND", [BooleanOp("AND", [p1, p2]), p3])
        assert conjuncts(expr) == [p1, p2, p3]

    def test_or_not_flattened(self):
        expr = BooleanOp("OR", [Literal(True), Literal(False)])
        assert conjuncts(expr) == [expr]

    def test_conjoin_roundtrip(self):
        p1 = Comparison(">", ColumnRef("a"), Literal(1))
        assert conjoin([]) is None
        assert conjoin([p1]) is p1
        both = conjoin([p1, p1])
        assert isinstance(both, BooleanOp) and both.op == "AND"

    def test_sql_rendering(self):
        expr = Comparison(">", ColumnRef("a"), Literal(1))
        assert expr.sql() == "(a > 1)"
        assert Literal("it's").sql() == "'it''s'"
