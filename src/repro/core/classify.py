"""Uncertain/deterministic tuple classification (paper section 3.2).

At any predicate ``x θ y`` involving uncertain values, G-OLA classifies
input tuples into the *deterministic set* (``R(x) ∩ R(y) = ∅`` — the
predicate's outcome can never flip during online processing) and the
*uncertain set* (the ranges overlap — the outcome may change as the inner
aggregates refine).

We implement this with interval arithmetic plus Kleene three-valued
logic: every expression evaluates to a per-row interval ``[low, high]``
of values it can take across the variation ranges of the uncertain
values it references; comparisons then yield TRUE (holds over the whole
range product), FALSE (fails over the whole range product) or UNKNOWN.
Tuples evaluating TRUE are deterministic-pass, FALSE deterministic-fail
and UNKNOWN uncertain.  This single mechanism covers scalar thresholds
(SBI), correlated per-group thresholds (TPC-H Q17), HAVING thresholds
(Q11) and uncertain IN-membership (Q18).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from ..errors import ExecutionError
from ..expr.expressions import (
    Between,
    BinaryOp,
    BooleanOp,
    CaseWhen,
    ColumnRef,
    Comparison,
    Environment,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    Negate,
    SubqueryRef,
)
from ..expr.tristate import (
    TRI_FALSE,
    TRI_TRUE,
    TRI_UNKNOWN,
    tri_compare,
    tri_not,
)
from ..storage.table import Table
from .uncertain import KeyedSlotState, ScalarSlotState, SetSlotState

# Monotone-increasing scalar functions through which intervals map
# endpoint-to-endpoint.
_MONOTONE_FUNCTIONS = frozenset({"sqrt", "exp", "ln", "log", "log2", "log10"})


@dataclass
class IntervalEnv:
    """Everything interval evaluation needs.

    Intervals come from two sources: ``slots`` holds the current slot
    states (variation ranges of the subqueries an expression consumes),
    and ``columns`` maps interval-valued column names to per-row
    ``(low, high)`` arrays (a set producer's aggregates under their
    replica ranges, when its HAVING is classified per group).  ``point``
    is the matching point environment, used verbatim for certain
    sub-expressions, which collapse to degenerate intervals.  ``rows``
    holds the keyed-slot indices the classified rows carry, if any.
    """

    slots: Dict[int, object] = field(default_factory=dict)
    point: Environment = field(default_factory=Environment)
    columns: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )
    rows: Dict[int, np.ndarray] = field(default_factory=dict)

    def slot_rows(self, slot: int, correlation: Expression,
                  table: Table) -> np.ndarray:
        """Each row's dense index into keyed ``slot``'s index: the
        carried one, else the row's correlation key encoded."""
        if slot in self.rows:
            return self.rows[slot]
        keys = correlation.evaluate(table, self.point)
        return self.slots[slot].encode(keys)

    def is_certain(self, expr: Expression) -> bool:
        """True when ``expr`` reads no uncertain value at all."""
        if expr.subquery_slots():
            return False
        return not (self.columns
                    and expr.references() & self.columns.keys())


def _point(expr: Expression, table: Table, env: IntervalEnv) -> np.ndarray:
    raw = expr.evaluate(table, env.point)
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(table.num_rows, float(arr))
    return arr


def interval_eval(expr: Expression, table: Table,
                  env: IntervalEnv) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row value intervals of ``expr`` across all variation ranges.

    Certain expressions return degenerate intervals; conservative
    over-approximation (never under-approximation) is used where exact
    interval propagation is not available, so classification errs toward
    "uncertain" — which is always safe, merely less efficient.
    """
    if env.is_certain(expr):
        point = _point(expr, table, env)
        return point, point.copy()

    if isinstance(expr, ColumnRef):  # certain columns returned above
        return env.columns[expr.name]

    if isinstance(expr, SubqueryRef):
        state = env.slots.get(expr.slot)
        if state is None:
            raise ExecutionError(f"no state for subquery slot {expr.slot}")
        if isinstance(state, ScalarSlotState):
            n = table.num_rows
            return (np.full(n, state.vrange.low),
                    np.full(n, state.vrange.high))
        if isinstance(state, KeyedSlotState):
            return state.interval_at(
                env.slot_rows(expr.slot, expr.correlation, table))
        raise ExecutionError(
            f"slot {expr.slot} is a set; use IN, not a scalar reference"
        )

    if isinstance(expr, Negate):
        low, high = interval_eval(expr.operand, table, env)
        return -high, -low

    if isinstance(expr, BinaryOp):
        a_lo, a_hi = interval_eval(expr.left, table, env)
        b_lo, b_hi = interval_eval(expr.right, table, env)
        if expr.op == "+":
            return a_lo + b_lo, a_hi + b_hi
        if expr.op == "-":
            return a_lo - b_hi, a_hi - b_lo
        if expr.op == "*":
            products = np.stack(
                [a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi]
            )
            return products.min(axis=0), products.max(axis=0)
        if expr.op == "/":
            crosses_zero = (b_lo <= 0) & (b_hi >= 0)
            safe_b_lo = np.where(crosses_zero, 1.0, b_lo)
            safe_b_hi = np.where(crosses_zero, 1.0, b_hi)
            quotients = np.stack(
                [a_lo / safe_b_lo, a_lo / safe_b_hi,
                 a_hi / safe_b_lo, a_hi / safe_b_hi]
            )
            low = np.where(crosses_zero, -np.inf, quotients.min(axis=0))
            high = np.where(crosses_zero, np.inf, quotients.max(axis=0))
            return low, high
        # Modulo over an uncertain operand: conservative.
        n = table.num_rows
        return np.full(n, -np.inf), np.full(n, np.inf)

    if isinstance(expr, FunctionCall) and expr.name in _MONOTONE_FUNCTIONS:
        low, high = interval_eval(expr.args[0], table, env)
        fn = env.point.functions.lookup(expr.name)
        with np.errstate(divide="ignore", invalid="ignore"):
            return fn(low), fn(high)

    if isinstance(expr, CaseWhen):
        # Union of reachable branch intervals under three-valued guards.
        n = table.num_rows
        low = np.full(n, np.inf)
        high = np.full(n, -np.inf)
        undecided = np.ones(n, dtype=bool)
        for cond, value in expr.whens:
            tri = tri_eval(cond, table, env)
            reachable = undecided & (tri != TRI_FALSE)
            v_lo, v_hi = interval_eval(value, table, env)
            low = np.where(reachable, np.minimum(low, v_lo), low)
            high = np.where(reachable, np.maximum(high, v_hi), high)
            undecided &= tri != TRI_TRUE
        if expr.otherwise is not None:
            v_lo, v_hi = interval_eval(expr.otherwise, table, env)
        else:
            v_lo = v_hi = np.zeros(n)
        low = np.where(undecided, np.minimum(low, v_lo), low)
        high = np.where(undecided, np.maximum(high, v_hi), high)
        return low, high

    # Anything else over uncertain inputs: fully conservative.
    n = table.num_rows
    return np.full(n, -np.inf), np.full(n, np.inf)


def _comparison_side(expr: Expression, table: Table, env: IntervalEnv,
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """One comparison operand's interval, ready for ``tri_compare``.

    A certain NaN is a NULL, which decides the comparison.  A NaN
    endpoint of an uncertain operand (a slot with no value yet, or
    ``0 * inf`` in interval arithmetic) is an unknown value instead, so
    it widens to the infinity on its side and the row stays UNKNOWN.
    """
    low, high = interval_eval(expr, table, env)
    if env.is_certain(expr):
        return low, high
    return (np.where(np.isnan(low), -np.inf, low),
            np.where(np.isnan(high), np.inf, high))


def tri_eval(expr: Expression, table: Table, env: IntervalEnv) -> np.ndarray:
    """Three-valued truth of a predicate per row (TRI_* encoding)."""
    n = table.num_rows
    if env.is_certain(expr):
        point = np.broadcast_to(
            np.asarray(expr.evaluate(table, env.point), dtype=bool), (n,)
        )
        return np.where(point, TRI_TRUE, TRI_FALSE).astype(np.int8)

    if isinstance(expr, Comparison):
        a_lo, a_hi = _comparison_side(expr.left, table, env)
        b_lo, b_hi = _comparison_side(expr.right, table, env)
        return tri_compare(expr.op, a_lo, a_hi, b_lo, b_hi)

    if isinstance(expr, BooleanOp):
        if expr.op == "NOT":
            return tri_not(tri_eval(expr.operands[0], table, env))
        parts = [tri_eval(o, table, env) for o in expr.operands]
        out = parts[0]
        for part in parts[1:]:
            out = np.minimum(out, part) if expr.op == "AND" \
                else np.maximum(out, part)
        return out.astype(np.int8)

    if isinstance(expr, Between):
        lower = Comparison("<=", expr.low, expr.value)
        upper = Comparison("<=", expr.value, expr.high)
        return np.minimum(
            tri_eval(lower, table, env), tri_eval(upper, table, env)
        ).astype(np.int8)

    if isinstance(expr, InSubquery):
        state = env.slots.get(expr.slot)
        if not isinstance(state, SetSlotState):
            raise ExecutionError(
                f"slot {expr.slot} is not a set subquery"
            )
        keys = np.asarray(expr.value.evaluate(table, env.point))
        tri = state.tri_for_keys(keys)
        return tri_not(tri) if expr.negated else tri

    if isinstance(expr, InList):
        low, high = interval_eval(expr.value, table, env)
        degenerate = low == high
        out = np.full(n, TRI_UNKNOWN, dtype=np.int8)
        if degenerate.any():
            member = np.zeros(n, dtype=bool)
            for option in expr.options:
                member |= low == option
            out[degenerate & member] = TRI_TRUE
            out[degenerate & ~member] = TRI_FALSE
        return out

    # Unknown predicate shape over uncertain inputs: conservative.
    return np.full(n, TRI_UNKNOWN, dtype=np.int8)

