"""Property-based tests: soundness of three-valued classification.

The fundamental safety property of G-OLA's delta maintenance: whenever
classification calls a tuple deterministic (TRI_TRUE / TRI_FALSE), the
point evaluation under ANY value inside the variation range must agree.
If this held only usually, folded tuples could be wrong and the final
answer would drift from the exact engine's.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    IntervalEnv,
    ScalarSlotState,
    TRI_FALSE,
    TRI_TRUE,
    TRI_UNKNOWN,
)
from repro.core.classify import tri_eval
from repro.core.guards import BlockGuards
from repro.estimate import VariationRange
from repro.expr.expressions import (
    Between,
    BinaryOp,
    BooleanOp,
    ColumnRef,
    Comparison,
    Environment,
    Literal,
    SubqueryRef,
)
from repro.storage import Table

finite = st.floats(min_value=-1e4, max_value=1e4,
                   allow_nan=False, allow_infinity=False)

column = arrays(np.float64, st.integers(min_value=1, max_value=40),
                elements=finite)

OPS = ["<", "<=", ">", ">=", "=", "!="]


@st.composite
def scenario(draw):
    values = draw(column)
    a = draw(finite)
    b = draw(finite)
    low, high = min(a, b), max(a, b)
    # Probe points: endpoints plus interior samples.
    probes = [low, high, (low + high) / 2]
    op = draw(st.sampled_from(OPS))
    return values, low, high, probes, op


@given(scenario())
@settings(max_examples=150, deadline=None)
def test_deterministic_decisions_hold_over_entire_range(data):
    values, low, high, probes, op = data
    table = Table.from_columns({"x": values})
    state = ScalarSlotState(
        slot=0, estimate=(low + high) / 2,
        replicas=np.array([low, high]),
        vrange=VariationRange(low, high),
    )
    env = IntervalEnv(slots={0: state},
                      point=Environment(scalars={0: state.estimate}))
    predicate = Comparison(op, ColumnRef("x"), SubqueryRef(0))
    tri = tri_eval(predicate, table, env)
    for probe in probes:
        point = predicate.evaluate(
            table, Environment(scalars={0: probe})
        )
        point = np.broadcast_to(np.asarray(point, dtype=bool),
                                (table.num_rows,))
        for t, p in zip(tri, point):
            if t == TRI_TRUE:
                assert p, f"{op} claimed TRUE but probe {probe} says False"
            elif t == TRI_FALSE:
                assert not p, f"{op} claimed FALSE but probe {probe} " \
                              "says True"


@given(scenario(), finite)
@settings(max_examples=100, deadline=None)
def test_arithmetic_over_uncertain_is_sound(data, shift):
    """Same soundness through an arithmetic expression on the slot."""
    values, low, high, probes, op = data
    table = Table.from_columns({"x": values})
    state = ScalarSlotState(
        slot=0, estimate=(low + high) / 2,
        replicas=np.array([low, high]),
        vrange=VariationRange(low, high),
    )
    env = IntervalEnv(slots={0: state},
                      point=Environment(scalars={0: state.estimate}))
    rhs = BinaryOp("+", SubqueryRef(0), Literal(shift))
    predicate = Comparison(op, ColumnRef("x"), rhs)
    tri = tri_eval(predicate, table, env)
    for probe in probes:
        point = np.broadcast_to(
            np.asarray(
                predicate.evaluate(table, Environment(scalars={0: probe})),
                dtype=bool,
            ),
            (table.num_rows,),
        )
        for t, p in zip(tri, point):
            if t == TRI_TRUE:
                assert p
            elif t == TRI_FALSE:
                assert not p


@given(column)
@settings(max_examples=60, deadline=None)
def test_degenerate_range_never_unknown(values):
    """With a collapsed range the classifier must be fully decisive."""
    table = Table.from_columns({"x": values})
    state = ScalarSlotState(
        slot=0, estimate=1.0, replicas=np.array([1.0, 1.0]),
        vrange=VariationRange(1.0, 1.0),
    )
    env = IntervalEnv(slots={0: state},
                      point=Environment(scalars={0: 1.0}))
    predicate = Comparison(">", ColumnRef("x"), SubqueryRef(0))
    tri = tri_eval(predicate, table, env)
    point = predicate.evaluate(table, env.point)
    np.testing.assert_array_equal(tri == TRI_TRUE, point)
    np.testing.assert_array_equal(tri == TRI_FALSE, ~np.asarray(point))


@given(scenario(), st.lists(st.booleans(), min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_null_rows_are_decided_as_point_evaluation_decides(data, nulls):
    """A NaN certain side (a NULL) is decided for every range: FALSE for
    ``< <= > >= =``, TRUE for ``!=`` — exactly what every probe says."""
    values, low, high, probes, op = data
    values = values.copy()
    mask = np.resize(np.asarray(nulls), len(values))
    values[mask] = np.nan
    table = Table.from_columns({"x": values})
    state = ScalarSlotState(
        slot=0, estimate=(low + high) / 2,
        replicas=np.array([low, high]),
        vrange=VariationRange(low, high),
    )
    env = IntervalEnv(slots={0: state},
                      point=Environment(scalars={0: state.estimate}))
    predicate = Comparison(op, ColumnRef("x"), SubqueryRef(0))
    tri = tri_eval(predicate, table, env)
    assert (tri[mask] != TRI_UNKNOWN).all()
    for probe in probes:
        point = np.asarray(
            predicate.evaluate(table, Environment(scalars={0: probe})),
            dtype=bool,
        )
        np.testing.assert_array_equal(tri[mask] == TRI_TRUE, point[mask])


@given(column, st.sampled_from(OPS))
@settings(max_examples=60, deadline=None)
def test_uncertain_nan_is_unknown_not_null(values, op):
    """A slot with no value yet is not a NULL: it may still take any
    value, so no finite row is decided against it."""
    table = Table.from_columns({"x": values})
    state = ScalarSlotState(
        slot=0, estimate=float("nan"), replicas=np.full(2, np.nan),
        vrange=VariationRange(float("nan"), float("nan")),
    )
    env = IntervalEnv(slots={0: state},
                      point=Environment(scalars={0: state.estimate}))
    tri = tri_eval(Comparison(op, ColumnRef("x"), SubqueryRef(0)),
                   table, env)
    assert (tri == TRI_UNKNOWN).all()


maybe_nan = st.one_of(finite, st.just(float("nan")))

#: Sides of a guarded atom: a row column, a slot, and ``+``/``-`` sums
#: mixing slots, row columns and constants.
X, Y = ColumnRef("x"), ColumnRef("y")
S0, S1 = SubqueryRef(0), SubqueryRef(1)
CERTAIN_SIDES = [X, BinaryOp("-", X, BinaryOp("*", Literal(0.5), Y))]
UNCERTAIN_SIDES = [
    S0,
    BinaryOp("*", Literal(2.0), S1),
    BinaryOp("+", S0, Y),
    BinaryOp("-", BinaryOp("-", Literal(1.0), S0), S1),
]


@st.composite
def leaf(draw):
    kind = draw(st.sampled_from(["cmp", "between", "certain"]))
    if kind == "certain":
        return Comparison(draw(st.sampled_from(OPS)), Y, Literal(0.0))
    if kind == "between":
        sides = [draw(st.sampled_from(CERTAIN_SIDES + UNCERTAIN_SIDES))
                 for _ in range(3)]
        return Between(*sides)
    left = draw(st.sampled_from(CERTAIN_SIDES + UNCERTAIN_SIDES))
    right = draw(st.sampled_from(UNCERTAIN_SIDES))
    if draw(st.booleans()):
        left, right = right, left
    return Comparison(draw(st.sampled_from(OPS)), left, right)


predicate_tree = st.recursive(
    leaf(),
    lambda children: st.builds(
        BooleanOp, st.sampled_from(["AND", "OR"]),
        st.lists(children, min_size=2, max_size=3),
    ),
    max_leaves=5,
)


@st.composite
def slot_state(draw, slot):
    a, b = draw(maybe_nan), draw(maybe_nan)
    low, high = (a, b) if np.isnan(a) or np.isnan(b) else sorted((a, b))
    return ScalarSlotState(slot=slot, estimate=(low + high) / 2,
                           replicas=np.array([low, high]),
                           vrange=VariationRange(low, high))


@given(st.lists(predicate_tree.filter(lambda p: p.subquery_slots()),
                min_size=1, max_size=2),
       slot_state(0), slot_state(1),
       arrays(np.float64, 12, elements=maybe_nan),
       arrays(np.float64, 12, elements=maybe_nan))
@settings(max_examples=200, deadline=None)
def test_guard_classification_equals_tri_eval(predicates, s0, s1, x, y):
    """The guards classify a block's conjunction atom by atom, exactly
    as ``tri_eval`` classifies each whole predicate: ``=`` and ``!=``
    keep their own rules (a NULL decides ``!=`` TRUE), ``BETWEEN`` is two
    ``<=`` and AND/OR trees combine by min/max."""
    table = Table.from_columns({"x": x, "y": y})
    env = IntervalEnv(slots={0: s0, 1: s1}, point=Environment(
        scalars={0: s0.estimate, 1: s1.estimate}))
    guards = BlockGuards(predicates)
    assert all(atom.guards for atom in guards.atoms)
    want = np.full(table.num_rows, TRI_TRUE, dtype=np.int8)
    for predicate in predicates:
        want = np.minimum(want, tri_eval(predicate, table, env))
    np.testing.assert_array_equal(guards.classify(table, env), want)
