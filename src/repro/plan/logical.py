"""Logical query plans.

A bound query is a tree of :class:`LogicalPlan` nodes over a single input
pipeline, plus a set of :class:`SubquerySpec` side plans — one per nested
aggregate subquery.  Subquery results are referenced from expressions via
``SubqueryRef``/``InSubquery`` placeholders carrying a *slot* id; this is
the plan-level representation of the paper's "uncertain values".

Keeping subqueries out-of-line (rather than as correlated plan subtrees)
is what lets the online compiler treat each one as a lineage block whose
aggregate output is broadcast to consumers (paper section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple


from ..engine.aggregates import AggregateCall
from ..errors import PlanError, UnsupportedQueryError
from ..expr.expressions import ColumnRef, Expression
from ..storage.table import Column, ColumnType, Schema


class LogicalPlan:
    """Base class for plan nodes.  ``schema`` is fixed at bind time."""

    schema: Schema

    def children(self) -> Sequence["LogicalPlan"]:
        return ()

    def describe(self, indent: int = 0,
                 scan_columns: Optional[Dict[str, List[str]]] = None) -> str:
        """A multi-line textual rendering of the plan subtree; with
        ``scan_columns`` (see :attr:`Query.scan_columns`) each scan
        names the columns it reads."""
        pad = "  " * indent
        lines = [pad + self._label()]
        for child in self.children():
            lines.append(child.describe(indent + 1, scan_columns))
        return "\n".join(lines)

    def _label(self) -> str:
        return type(self).__name__

    def subquery_slots(self) -> Set[int]:
        """All subquery slots referenced anywhere in this subtree."""
        out: Set[int] = set()
        for expr in self._expressions():
            out |= expr.subquery_slots()
        for child in self.children():
            out |= child.subquery_slots()
        return out

    def column_references(self) -> Set[str]:
        """Every column name read in this subtree: expressions (filters,
        projections, group keys, aggregate arguments, HAVING, correlation
        keys) and join keys.  Nodes above an aggregate read only its
        output, so they add nothing a scan must supply."""
        out: Set[str] = set()
        for expr in self._expressions():
            out |= expr.references()
        for child in self.children():
            out |= child.column_references()
        return out

    def scans(self) -> Iterator["Scan"]:
        """Every :class:`Scan` in this subtree."""
        for child in self.children():
            yield from child.scans()

    def _expressions(self) -> Sequence[Expression]:
        return ()


class Scan(LogicalPlan):
    """Read a base table from the catalog."""

    def __init__(self, table_name: str, schema: Schema):
        self.table_name = table_name
        self.schema = schema

    def describe(self, indent: int = 0,
                 scan_columns: Optional[Dict[str, List[str]]] = None) -> str:
        label = self._label()
        if scan_columns is not None:
            columns = scan_columns.get(self.table_name, ())
            label = (f"Scan({self.table_name}: "
                     f"{', '.join(columns) or 'no columns'})")
        return "  " * indent + label

    def scans(self) -> Iterator["Scan"]:
        yield self

    def _label(self) -> str:
        return f"Scan({self.table_name})"


class Filter(LogicalPlan):
    """Keep rows satisfying ``predicate``.

    This is where G-OLA's uncertain/deterministic classification applies
    when ``predicate`` references subquery slots.
    """

    def __init__(self, input_plan: LogicalPlan, predicate: Expression):
        self.input = input_plan
        self.predicate = predicate
        self.schema = input_plan.schema

    def children(self):
        return (self.input,)

    def _expressions(self):
        return (self.predicate,)

    def _label(self) -> str:
        return f"Filter({self.predicate.sql()})"


class Project(LogicalPlan):
    """Compute named expressions over the input."""

    def __init__(self, input_plan: LogicalPlan,
                 exprs: Sequence[Tuple[Expression, str]]):
        self.input = input_plan
        self.exprs = list(exprs)
        self.schema = Schema(
            [Column(name, _expr_type(e, input_plan.schema))
             for e, name in self.exprs]
        )

    def children(self):
        return (self.input,)

    def _expressions(self):
        return tuple(e for e, _ in self.exprs)

    def _label(self) -> str:
        inner = ", ".join(f"{e.sql()} AS {n}" for e, n in self.exprs)
        return f"Project({inner})"


class Join(LogicalPlan):
    """Hash equi-join on one or more key pairs.

    In online execution the left side is the streamed pipeline and the
    right side must be a non-streamed dimension table (the paper's model:
    stream the fact table, read dimensions in entirety).
    """

    def __init__(self, left: LogicalPlan, right: LogicalPlan,
                 keys: Sequence[Tuple[str, str]], how: str = "inner"):
        if how not in ("inner", "left"):
            raise PlanError(f"unsupported join type {how!r}")
        if not keys:
            raise PlanError("join requires at least one key pair")
        self.left = left
        self.right = right
        self.keys = list(keys)
        self.how = how
        left_names = set(left.schema.names)
        cols = list(left.schema.columns)
        right_keys = {r for _, r in self.keys}
        for col in right.schema:
            if col.name in right_keys:
                continue
            if col.name in left_names:
                raise PlanError(
                    f"join would duplicate column {col.name!r}; rename first"
                )
            cols.append(col)
        self.schema = Schema(cols)

    def children(self):
        return (self.left, self.right)

    def column_references(self) -> Set[str]:
        return super().column_references() | {
            name for pair in self.keys for name in pair
        }

    def _label(self) -> str:
        pairs = ", ".join(f"{l}={r}" for l, r in self.keys)
        return f"Join[{self.how}]({pairs})"


class Aggregate(LogicalPlan):
    """Grouped (or global) aggregation with an optional HAVING filter.

    Output columns are the group-by expressions (under their names)
    followed by one column per aggregate alias.  ``having`` may reference
    those output columns and subquery slots — an uncertain HAVING is how
    TPC-H Q11-style queries become non-monotonic.
    """

    def __init__(self, input_plan: LogicalPlan,
                 group_by: Sequence[Tuple[Expression, str]],
                 aggregates: Sequence[AggregateCall],
                 having: Optional[Expression] = None):
        if not aggregates:
            raise PlanError("Aggregate requires at least one aggregate call")
        self.input = input_plan
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        self.having = having
        for call in self.aggregates:
            if (isinstance(call.arg, ColumnRef)
                    and _expr_type(call.arg, input_plan.schema)
                    is ColumnType.STRING):
                raise UnsupportedQueryError(
                    f"{call.sql()}: aggregates over STRING column "
                    f"{call.arg.name!r} are not supported"
                )
        cols = [Column(name, _expr_type(e, input_plan.schema))
                for e, name in self.group_by]
        cols.extend(Column(a.alias, ColumnType.FLOAT64) for a in self.aggregates)
        self.schema = Schema(cols)

    def children(self):
        return (self.input,)

    def _expressions(self):
        out = [e for e, _ in self.group_by]
        out.extend(a.arg for a in self.aggregates if a.arg is not None)
        if self.having is not None:
            out.append(self.having)
        return tuple(out)

    @property
    def is_global(self) -> bool:
        return not self.group_by

    def _label(self) -> str:
        aggs = ", ".join(a.sql() for a in self.aggregates)
        if self.group_by:
            keys = ", ".join(n for _, n in self.group_by)
            label = f"Aggregate(group by {keys}: {aggs})"
        else:
            label = f"Aggregate(global: {aggs})"
        if self.having is not None:
            label += f" HAVING {self.having.sql()}"
        return label


@dataclass(frozen=True)
class WindowCall:
    """One window function: ``func(arg) OVER (ORDER BY col [frame])``.

    ``arg`` names an input (projected) column, or None for ``COUNT(*)``
    frame counts.  ``preceding`` is the frame extent in rows before the
    current row; None means a cumulative (unbounded preceding) frame.
    """

    func: str
    arg: Optional[str]
    order_column: str
    preceding: Optional[int]
    alias: str

    def sql(self) -> str:
        inner = self.arg if self.arg is not None else "*"
        frame = (
            f" ROWS {self.preceding} PRECEDING"
            if self.preceding is not None else ""
        )
        return (
            f"{self.func.upper()}({inner}) OVER "
            f"(ORDER BY {self.order_column}{frame}) AS {self.alias}"
        )


class Window(LogicalPlan):
    """Window functions over the projected aggregate output.

    Evaluated per output row under a deterministic total order — the
    window's ORDER BY column first, then ``tiebreak`` (the projected
    group-key columns, which are unique per row) — so rolling frames are
    identical however the input rows were physically ordered.

    ``output_order`` is the final SELECT-order column list: projected
    columns interleaved with window aliases.
    """

    def __init__(self, input_plan: LogicalPlan,
                 calls: Sequence[WindowCall],
                 tiebreak: Sequence[str],
                 output_order: Sequence[str]):
        if not calls:
            raise PlanError("Window requires at least one window call")
        self.input = input_plan
        self.calls = list(calls)
        self.tiebreak = list(tiebreak)
        self.output_order = list(output_order)
        by_alias = {c.alias for c in self.calls}
        cols = []
        for name in self.output_order:
            if name in by_alias:
                cols.append(Column(name, ColumnType.FLOAT64))
            else:
                cols.append(input_plan.schema.field(name))
        for call in self.calls:
            if call.arg is not None:
                input_plan.schema.field(call.arg)
            input_plan.schema.field(call.order_column)
        self.schema = Schema(cols)

    def children(self):
        return (self.input,)

    def _label(self) -> str:
        return "Window(" + ", ".join(c.sql() for c in self.calls) + ")"


class Sort(LogicalPlan):
    """ORDER BY on output columns."""

    def __init__(self, input_plan: LogicalPlan,
                 keys: Sequence[Tuple[str, bool]]):
        self.input = input_plan
        self.keys = list(keys)
        for name, _ in self.keys:
            input_plan.schema.field(name)
        self.schema = input_plan.schema

    def children(self):
        return (self.input,)

    def _label(self) -> str:
        inner = ", ".join(
            f"{n} {'DESC' if d else 'ASC'}" for n, d in self.keys
        )
        return f"Sort({inner})"


class Limit(LogicalPlan):
    """Keep the first ``n`` rows."""

    def __init__(self, input_plan: LogicalPlan, n: int):
        if n < 0:
            raise PlanError("LIMIT must be non-negative")
        self.input = input_plan
        self.n = n
        self.schema = input_plan.schema

    def children(self):
        return (self.input,)

    def _label(self) -> str:
        return f"Limit({self.n})"


@dataclass
class SubquerySpec:
    """An out-of-line nested aggregate subquery.

    Attributes:
        slot: The id referenced by ``SubqueryRef``/``InSubquery`` nodes.
        plan: The subquery's own plan (it may reference further slots —
            arbitrary nesting).
        kind: ``"scalar"`` (uncorrelated, one value), ``"keyed"``
            (equality-correlated: the plan groups by the correlation key and
            consumers look their key up), or ``"set"`` (IN-subquery: the
            plan's first output column is the membership key).
        value_column: Output column holding the scalar value ("scalar"/
            "keyed") or the membership key ("set").
        key_column: For "keyed": the plan output column holding the
            correlation key.
    """

    slot: int
    plan: LogicalPlan
    kind: str
    value_column: str
    key_column: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("scalar", "keyed", "set"):
            raise PlanError(f"unknown subquery kind {self.kind!r}")
        if self.kind == "keyed" and self.key_column is None:
            raise PlanError("keyed subquery requires key_column")


@dataclass
class Query:
    """A fully bound query: the main plan plus its subquery side plans."""

    plan: LogicalPlan
    subqueries: Dict[int, SubquerySpec] = field(default_factory=dict)
    streamed_table: Optional[str] = None

    def describe(self, scan_columns: bool = False) -> str:
        """The main plan and each subquery plan; ``scan_columns`` names
        the columns each scan reads (what ``explain()`` shows)."""
        columns = self.scan_columns if scan_columns else None
        lines = [self.plan.describe(scan_columns=columns)]
        for slot in sorted(self.subqueries):
            spec = self.subqueries[slot]
            lines.append(f"subquery #{slot} [{spec.kind}]:")
            lines.append(spec.plan.describe(indent=1, scan_columns=columns))
        return "\n".join(lines)

    @cached_property
    def scan_columns(self) -> Dict[str, List[str]]:
        """Table -> the columns the query reads from it, in schema order.

        One set per table covers every scan of it, subqueries included,
        so the controller and the exact engine can read each table once
        at this width.  Column names are matched against each scanned
        table's schema, so a name another table shares only widens the
        set, which is safe.
        """
        plans = [self.plan] + [s.plan for s in self.subqueries.values()]
        referenced: Set[str] = set()
        schemas: Dict[str, Schema] = {}
        for plan in plans:
            referenced |= plan.column_references()
            for scan in plan.scans():
                schemas[scan.table_name] = scan.schema
        return {
            name: [n for n in schema.names if n in referenced]
            for name, schema in schemas.items()
        }

    def subquery_order(self) -> List[int]:
        """Slots in dependency (topological) order, innermost first."""
        order: List[int] = []
        seen: Set[int] = set()

        def visit(slot: int, stack: Tuple[int, ...] = ()) -> None:
            if slot in seen:
                return
            if slot in stack:
                raise PlanError(f"cyclic subquery dependency at slot {slot}")
            for dep in sorted(self.subqueries[slot].plan.subquery_slots()):
                visit(dep, stack + (slot,))
            seen.add(slot)
            order.append(slot)

        for slot in sorted(self.subqueries):
            visit(slot)
        return order


def _expr_type(expr: Expression, input_schema: Schema) -> ColumnType:
    """Best-effort output type inference for a projection expression."""
    if isinstance(expr, ColumnRef) and expr.name in input_schema:
        return input_schema.type_of(expr.name)
    from ..expr.expressions import Comparison, BooleanOp, Between, InList, InSubquery, Literal

    if isinstance(expr, (Comparison, BooleanOp, Between, InList, InSubquery)):
        return ColumnType.BOOL
    if isinstance(expr, Literal):
        if isinstance(expr.value, bool):
            return ColumnType.BOOL
        if isinstance(expr.value, int):
            return ColumnType.INT64
        if isinstance(expr.value, str):
            return ColumnType.STRING
        return ColumnType.FLOAT64
    return ColumnType.FLOAT64
