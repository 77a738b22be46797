"""Typed expression trees with vectorized evaluation.

Expressions are shared between the batch executor, the baselines and the
G-OLA online operators.  Evaluation is columnar: ``evaluate`` receives a
:class:`~repro.storage.table.Table` plus an :class:`Environment` carrying
the current values of *uncertain* slots — the results of nested aggregate
subqueries — and returns a numpy array (or a python scalar, which numpy
broadcasting handles uniformly).

The one G-OLA-specific node is :class:`SubqueryRef`: a placeholder for a
nested aggregate subquery's value.  During online execution the same
expression tree is re-evaluated across mini-batches with *different*
environments as the inner aggregates refine — this is exactly the lazy
lineage re-evaluation of paper section 3.3.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ExecutionError
from ..storage.table import Table
from .functions import DEFAULT_FUNCTIONS, FunctionRegistry


class Environment:
    """Run-time bindings for subquery slots (and the function registry).

    Attributes:
        scalars: slot id -> current scalar value of an uncertain aggregate.
        keyed: slot id -> mapping of correlation-key value -> scalar, for
            correlated (group-keyed) subqueries such as TPC-H Q17's inner
            per-partkey average; or a vectorized lookup
            ``(keys, default) -> array`` doing the same for a key array.
        key_sets: slot id -> set of key values, for ``IN (subquery)``.
        functions: scalar function registry used by FunctionCall nodes.
    """

    def __init__(
        self,
        scalars: Optional[Dict[int, float]] = None,
        keyed: Optional[Dict[int, Dict]] = None,
        key_sets: Optional[Dict[int, Set]] = None,
        functions: FunctionRegistry = DEFAULT_FUNCTIONS,
    ):
        self.scalars = scalars or {}
        self.keyed = keyed or {}
        self.key_sets = key_sets or {}
        self.functions = functions


EMPTY_ENV = Environment()


class ArrayTable:
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


class Expression:
    """Base class for all expression nodes."""

    def evaluate(self, table: Table, env: Environment = EMPTY_ENV):
        """Evaluate over ``table``; returns an array or a scalar."""
        raise NotImplementedError

    def children(self) -> Sequence["Expression"]:
        return ()

    def references(self) -> Set[str]:
        """The set of column names this expression reads."""
        out: Set[str] = set()
        for child in self.children():
            out |= child.references()
        return out

    def subquery_slots(self) -> Set[int]:
        """The set of subquery slot ids appearing anywhere in this tree."""
        out: Set[int] = set()
        for child in self.children():
            out |= child.subquery_slots()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.sql()

    def sql(self) -> str:
        """A SQL-ish rendering, for plan display and error messages."""
        raise NotImplementedError


class Literal(Expression):
    """A constant value."""

    def __init__(self, value):
        self.value = value

    def evaluate(self, table, env=EMPTY_ENV):
        return self.value

    def sql(self) -> str:
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return repr(self.value)


class ColumnRef(Expression):
    """A reference to a named column of the input table."""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, table, env=EMPTY_ENV):
        return table.column(self.name)

    def references(self) -> Set[str]:
        return {self.name}

    def sql(self) -> str:
        return self.name


_ARITH = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "%": np.mod,
}

_COMPARE = {
    "=": np.equal,
    "!=": np.not_equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


class BinaryOp(Expression):
    """Arithmetic: ``left op right`` with op in ``+ - * / %``."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _ARITH:
            raise ExecutionError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def evaluate(self, table, env=EMPTY_ENV):
        lhs = self.left.evaluate(table, env)
        rhs = self.right.evaluate(table, env)
        if self.op == "/":
            return _safe_divide(lhs, rhs)
        return _ARITH[self.op](lhs, rhs)

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


def _safe_divide(lhs, rhs):
    """Division that maps x/0 to 0.0 rather than raising or inf.

    SQL engines return NULL for division by zero; we have no NULL in the
    numeric fast path, so 0.0 is the documented convention.
    """
    lhs_a = np.asarray(lhs, dtype=np.float64)
    rhs_a = np.asarray(rhs, dtype=np.float64)
    shape = np.broadcast(lhs_a, rhs_a).shape
    if shape == ():
        return float(lhs_a / rhs_a) if float(rhs_a) != 0.0 else 0.0
    out = np.zeros(shape, dtype=np.float64)
    np.divide(lhs_a, rhs_a, out=out, where=(rhs_a != 0))
    return out


class Negate(Expression):
    """Unary minus."""

    def __init__(self, operand: Expression):
        self.operand = operand

    def children(self):
        return (self.operand,)

    def evaluate(self, table, env=EMPTY_ENV):
        return np.negative(self.operand.evaluate(table, env))

    def sql(self) -> str:
        return f"(-{self.operand.sql()})"


class Comparison(Expression):
    """``left θ right`` for θ in ``= != < <= > >=``.

    This is the node class at which G-OLA's uncertain/deterministic tuple
    classification happens (paper section 3.2): when either side contains a
    :class:`SubqueryRef`, ``repro.core.classify`` partitions input tuples by
    intersecting the variation ranges of both sides.
    """

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _COMPARE:
            raise ExecutionError(f"unknown comparison operator {op!r}")
        self.op = "!=" if op == "<>" else op
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def evaluate(self, table, env=EMPTY_ENV):
        lhs = self.left.evaluate(table, env)
        rhs = self.right.evaluate(table, env)
        return _COMPARE[self.op](lhs, rhs)

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


class BooleanOp(Expression):
    """N-ary AND / OR and unary NOT."""

    def __init__(self, op: str, operands: Sequence[Expression]):
        op = op.upper()
        if op not in ("AND", "OR", "NOT"):
            raise ExecutionError(f"unknown boolean operator {op!r}")
        if op == "NOT" and len(operands) != 1:
            raise ExecutionError("NOT takes exactly one operand")
        if op in ("AND", "OR") and len(operands) < 2:
            raise ExecutionError(f"{op} takes at least two operands")
        self.op = op
        self.operands = list(operands)

    def children(self):
        return tuple(self.operands)

    def evaluate(self, table, env=EMPTY_ENV):
        if self.op == "NOT":
            return np.logical_not(self.operands[0].evaluate(table, env))
        fn = np.logical_and if self.op == "AND" else np.logical_or
        out = self.operands[0].evaluate(table, env)
        for operand in self.operands[1:]:
            out = fn(out, operand.evaluate(table, env))
        return out

    def sql(self) -> str:
        if self.op == "NOT":
            return f"(NOT {self.operands[0].sql()})"
        sep = f" {self.op} "
        return "(" + sep.join(o.sql() for o in self.operands) + ")"


class FunctionCall(Expression):
    """A scalar function or UDF call, resolved via the registry."""

    def __init__(self, name: str, args: Sequence[Expression]):
        self.name = name.lower()
        self.args = list(args)

    def children(self):
        return tuple(self.args)

    def evaluate(self, table, env=EMPTY_ENV):
        fn = env.functions.lookup(self.name)
        return fn(*[a.evaluate(table, env) for a in self.args])

    def sql(self) -> str:
        return f"{self.name}({', '.join(a.sql() for a in self.args)})"


class CaseWhen(Expression):
    """``CASE WHEN c1 THEN v1 ... ELSE e END`` (searched form)."""

    def __init__(
        self,
        whens: Sequence[Tuple[Expression, Expression]],
        otherwise: Optional[Expression] = None,
    ):
        if not whens:
            raise ExecutionError("CASE requires at least one WHEN branch")
        self.whens = list(whens)
        self.otherwise = otherwise

    def children(self):
        out: List[Expression] = []
        for cond, value in self.whens:
            out.extend((cond, value))
        if self.otherwise is not None:
            out.append(self.otherwise)
        return tuple(out)

    def evaluate(self, table, env=EMPTY_ENV):
        default = np.asarray(
            self.otherwise.evaluate(table, env)
            if self.otherwise is not None
            else 0.0
        )
        branches = [
            (np.asarray(cond.evaluate(table, env), dtype=bool),
             np.asarray(value.evaluate(table, env)))
            for cond, value in self.whens
        ]
        # One value per row, or per (trial, row) cell when a branch reads
        # per-trial replicas of a subquery.
        shape = np.broadcast_shapes(
            default.shape, *[a.shape for pair in branches for a in pair]
        ) or (table.num_rows,)
        result = np.broadcast_to(default, shape).copy()
        # Apply branches last-to-first so earlier WHENs win, SQL-style.
        for mask, val_arr in reversed(branches):
            mask = np.broadcast_to(mask, shape)
            val_arr = np.broadcast_to(val_arr, shape)
            if result.dtype != val_arr.dtype and result.dtype != object:
                result = result.astype(np.result_type(result, val_arr))
            result[mask] = val_arr[mask]
        return result

    def sql(self) -> str:
        parts = ["CASE"]
        for cond, value in self.whens:
            parts.append(f"WHEN {cond.sql()} THEN {value.sql()}")
        if self.otherwise is not None:
            parts.append(f"ELSE {self.otherwise.sql()}")
        parts.append("END")
        return " ".join(parts)


class Between(Expression):
    """``value BETWEEN low AND high`` (inclusive both ends)."""

    def __init__(self, value: Expression, low: Expression, high: Expression):
        self.value = value
        self.low = low
        self.high = high

    def children(self):
        return (self.value, self.low, self.high)

    def evaluate(self, table, env=EMPTY_ENV):
        v = self.value.evaluate(table, env)
        return np.logical_and(
            np.greater_equal(v, self.low.evaluate(table, env)),
            np.less_equal(v, self.high.evaluate(table, env)),
        )

    def sql(self) -> str:
        return (
            f"({self.value.sql()} BETWEEN {self.low.sql()} "
            f"AND {self.high.sql()})"
        )


class InList(Expression):
    """``value IN (literal, literal, ...)``."""

    def __init__(self, value: Expression, options: Sequence):
        self.value = value
        self.options = list(options)

    def children(self):
        return (self.value,)

    def evaluate(self, table, env=EMPTY_ENV):
        v = np.asarray(self.value.evaluate(table, env))
        out = np.zeros(v.shape, dtype=bool)
        for option in self.options:
            out |= v == option
        return out

    def sql(self) -> str:
        inner = ", ".join(
            "'" + o + "'" if isinstance(o, str) else repr(o)
            for o in self.options
        )
        return f"({self.value.sql()} IN ({inner}))"


class SubqueryRef(Expression):
    """The value of a nested aggregate subquery (an *uncertain* slot).

    ``slot`` identifies the subquery in the meta plan.  Three shapes:

    * scalar — an uncorrelated scalar subquery, e.g. SBI's inner
      ``AVG(buffer_time)``; evaluates to the environment's current scalar.
    * keyed — an equality-correlated scalar subquery, e.g. Q17's
      per-``partkey`` average; ``correlation`` is the outer-side key
      expression and evaluation maps each key through the slot's table.
    * membership is handled by :class:`InSubquery` below.
    """

    def __init__(self, slot: int, correlation: Optional[Expression] = None,
                 default: float = np.nan):
        self.slot = slot
        self.correlation = correlation
        self.default = default

    def children(self):
        return (self.correlation,) if self.correlation is not None else ()

    def subquery_slots(self) -> Set[int]:
        out = {self.slot}
        for child in self.children():
            out |= child.subquery_slots()
        return out

    def evaluate(self, table, env=EMPTY_ENV):
        if self.correlation is None:
            if self.slot not in env.scalars:
                raise ExecutionError(
                    f"no value bound for subquery slot {self.slot}"
                )
            return env.scalars[self.slot]
        mapping = env.keyed.get(self.slot)
        if mapping is None:
            raise ExecutionError(
                f"no keyed values bound for subquery slot {self.slot}"
            )
        keys = np.asarray(self.correlation.evaluate(table, env))
        if callable(mapping):
            return mapping(keys, self.default)
        get = mapping.get
        flat = [get(k, self.default) for k in keys.ravel().tolist()]
        return np.array(flat, dtype=np.float64).reshape(keys.shape)

    def sql(self) -> str:
        if self.correlation is None:
            return f"<subquery#{self.slot}>"
        return f"<subquery#{self.slot} keyed by {self.correlation.sql()}>"


class InSubquery(Expression):
    """``key IN (SELECT ... )`` — membership in an uncertain key set."""

    def __init__(self, value: Expression, slot: int, negated: bool = False):
        self.value = value
        self.slot = slot
        self.negated = negated

    def children(self):
        return (self.value,)

    def subquery_slots(self) -> Set[int]:
        return {self.slot} | self.value.subquery_slots()

    def evaluate(self, table, env=EMPTY_ENV):
        members = env.key_sets.get(self.slot)
        if members is None:
            raise ExecutionError(
                f"no key set bound for subquery slot {self.slot}"
            )
        keys = np.asarray(self.value.evaluate(table, env))
        flat = [k in members for k in keys.ravel().tolist()]
        out = np.array(flat, dtype=bool).reshape(keys.shape)
        return ~out if self.negated else out

    def sql(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        return f"({self.value.sql()} {op} <subquery#{self.slot}>)"


def conjuncts(expr: Optional[Expression]) -> List[Expression]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BooleanOp) and expr.op == "AND":
        out: List[Expression] = []
        for operand in expr.operands:
            out.extend(conjuncts(operand))
        return out
    return [expr]


def conjoin(parts: Sequence[Expression]) -> Optional[Expression]:
    """Combine conjuncts back into a single predicate (None if empty)."""
    parts = list(parts)
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return BooleanOp("AND", parts)


def evaluate_mask(expr: Expression, table: Table,
                  env: Environment = EMPTY_ENV) -> np.ndarray:
    """Evaluate a predicate to a full-length boolean mask."""
    raw = expr.evaluate(table, env)
    return np.broadcast_to(
        np.asarray(raw, dtype=bool), (table.num_rows,)
    ).copy()
