"""Seeded random SQL generation from a catalog schema (``repro.qa``).

:class:`QueryGenerator` derives random-but-valid aggregate SQL from
table specs plus lightweight column statistics of the materialized
tables (quantiles, so filter thresholds land inside the data instead of
selecting everything or nothing).  Generated queries stay inside the
dialect the online engine supports — one streamed FROM relation,
equi-joins to dimension tables only, GROUP BY plain columns, ORDER BY
output names — and deliberately over-sample the constructs G-OLA exists
for: nested-aggregate predicates (uncorrelated scalar, equality-
correlated scalar, and IN-subquery membership), which drive the
uncertain-set machinery.

A query is represented as a structural :class:`QuerySpec` (lists of
predicate/aggregate/group-by parts, each rendered SQL plus a kind tag),
not as a string: the shrinker minimizes failures by dropping parts and
re-rendering, and failure artifacts serialize the spec as JSON.

The ``deep`` grammar profile adds weighted productions for the deep-OLA
query surface: window functions over the grouped output (cumulative and
``ROWS n PRECEDING`` frames), DISTINCT aggregates, quantile aggregates,
multi-fact subqueries against a second streamed fact table, and two
edge biases — NaN-heavy ``nullish`` measures and near-empty-group
filters at extreme data quantiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..storage.table import Table
from .tables import GROUPABLE_KINDS, NUMERIC_KINDS, TableSpec

#: VAR/STDEV fold ``weights * deviation ** 2``, the one non-integral
#: weight matrix any fold kernel sees.
AGG_FUNCS = ("SUM", "AVG", "MIN", "MAX", "COUNT", "VAR", "STDEV")

#: Aggregate functions that accept DISTINCT in the supported dialect.
DISTINCT_FUNCS = ("COUNT", "SUM", "AVG")

#: Grammar profiles the generator understands.
GRAMMARS = ("default", "deep")

#: Quantiles used for filter thresholds (kept off the extremes so
#: predicates select a meaningful, non-degenerate fraction of rows).
_THRESHOLD_QS = (0.2, 0.35, 0.5, 0.65, 0.8)

#: Extreme quantiles for the empty-group edge bias: a ``> q0.98``
#: filter leaves most groups with a handful of rows and some with none.
_EXTREME_QS = (0.02, 0.98)

#: Reservoir capacity of QuantileState: quantile productions are only
#: offered when the fact fits the reservoir, so every execution path
#: sees the identical (complete) reservoir regardless of batching.
_QUANTILE_ROW_LIMIT = 4096


@dataclass(frozen=True)
class Predicate:
    """One WHERE conjunct: rendered SQL plus its structural kind."""

    sql: str
    kind: str  # compare | between | in_list | bool | scalar_sub |
    #            keyed_sub | in_sub | guard_sub (deep) | ...

    def to_dict(self) -> dict:
        return {"sql": self.sql, "kind": self.kind}

    @classmethod
    def from_dict(cls, d: dict) -> "Predicate":
        return cls(sql=d["sql"], kind=d["kind"])


@dataclass(frozen=True)
class AggItem:
    """One aggregate select item (``func(expr) AS alias``).

    ``distinct`` renders ``func(DISTINCT expr)``; ``param`` is the
    fraction argument of QUANTILE (``QUANTILE(expr, param)``).
    """

    func: str
    expr: str  # "*" for COUNT(*)
    alias: str
    distinct: bool = False
    param: Optional[float] = None

    def render(self) -> str:
        inner = f"DISTINCT {self.expr}" if self.distinct else self.expr
        if self.param is not None:
            inner = f"{inner}, {self.param:g}"
        return f"{self.func}({inner}) AS {self.alias}"

    def to_dict(self) -> dict:
        out = {"func": self.func, "expr": self.expr, "alias": self.alias}
        if self.distinct:
            out["distinct"] = True
        if self.param is not None:
            out["param"] = self.param
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "AggItem":
        return cls(func=d["func"], expr=d["expr"], alias=d["alias"],
                   distinct=bool(d.get("distinct", False)),
                   param=d.get("param"))


@dataclass(frozen=True)
class WindowItem:
    """One window select item over the grouped output.

    Renders ``func(arg) OVER (ORDER BY order_col [ROWS n PRECEDING])``;
    ``arg`` names a sibling output column (an aggregate alias) and is
    None for the arg-less COUNT(*) frame-size window.  ``order_col``
    must be a projected group-by column — the binder enforces both.
    """

    func: str  # SUM | AVG | COUNT
    arg: Optional[str]
    order_col: str
    alias: str
    preceding: Optional[int] = None  # None = cumulative frame

    def render(self) -> str:
        inner = self.arg if self.arg is not None else "*"
        frame = (f" ROWS {self.preceding} PRECEDING"
                 if self.preceding is not None else "")
        return (f"{self.func}({inner}) OVER "
                f"(ORDER BY {self.order_col}{frame}) AS {self.alias}")

    def to_dict(self) -> dict:
        return {"func": self.func, "arg": self.arg,
                "order_col": self.order_col, "alias": self.alias,
                "preceding": self.preceding}

    @classmethod
    def from_dict(cls, d: dict) -> "WindowItem":
        return cls(func=d["func"], arg=d.get("arg"),
                   order_col=d["order_col"], alias=d["alias"],
                   preceding=d.get("preceding"))


@dataclass(frozen=True)
class QuerySpec:
    """A structurally-shrinkable aggregate query over one fact table."""

    table: str
    aggregates: Tuple[AggItem, ...]
    predicates: Tuple[Predicate, ...] = ()
    group_by: Tuple[str, ...] = ()
    join: Optional[Tuple[str, str, str, str]] = None  # (dim, left, right, how)
    having: Optional[str] = None
    order_by: Optional[str] = None  # output column name (aliases ok)
    order_desc: bool = False
    windows: Tuple[WindowItem, ...] = ()

    def render(self) -> str:
        """The SQL text for this spec."""
        select = list(self.group_by) + [a.render() for a in self.aggregates]
        select += [w.render() for w in self.windows]
        parts = [f"SELECT {', '.join(select)}", f"FROM {self.table}"]
        if self.join is not None:
            dim, left, right, how = self.join
            parts.append(f"{how} JOIN {dim} ON {left} = {right}")
        if self.predicates:
            parts.append(
                "WHERE " + " AND ".join(p.sql for p in self.predicates)
            )
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having}")
        if self.order_by is not None:
            direction = " DESC" if self.order_desc else ""
            parts.append(f"ORDER BY {self.order_by}{direction}")
        return "\n".join(parts)

    @property
    def uses_subquery(self) -> bool:
        return self.having_uses_subquery or any(
            p.kind in ("scalar_sub", "keyed_sub", "in_sub", "guard_sub")
            for p in self.predicates
        )

    @property
    def having_uses_subquery(self) -> bool:
        return self.having is not None and "SELECT" in self.having

    def to_dict(self) -> dict:
        return {
            "table": self.table,
            "aggregates": [a.to_dict() for a in self.aggregates],
            "predicates": [p.to_dict() for p in self.predicates],
            "group_by": list(self.group_by),
            "join": list(self.join) if self.join else None,
            "having": self.having,
            "order_by": self.order_by,
            "order_desc": self.order_desc,
            "windows": [w.to_dict() for w in self.windows],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "QuerySpec":
        return cls(
            table=d["table"],
            aggregates=tuple(AggItem.from_dict(a) for a in d["aggregates"]),
            predicates=tuple(
                Predicate.from_dict(p) for p in d.get("predicates", [])
            ),
            group_by=tuple(d.get("group_by", ())),
            join=tuple(d["join"]) if d.get("join") else None,
            having=d.get("having"),
            order_by=d.get("order_by"),
            order_desc=bool(d.get("order_desc", False)),
            windows=tuple(
                WindowItem.from_dict(w) for w in d.get("windows", [])
            ),
        )


@dataclass
class _ColumnStats:
    """Quantiles of one numeric column of a materialized table."""

    quantiles: Dict[float, float] = field(default_factory=dict)

    def threshold(self, rng: np.random.Generator) -> float:
        q = _THRESHOLD_QS[int(rng.integers(len(_THRESHOLD_QS)))]
        return self.quantiles[q]

    def extreme(self, rng: np.random.Generator) -> Tuple[str, float]:
        """An (op, value) pair selecting a tiny fraction of the rows."""
        if rng.random() < 0.5:
            return "<", self.quantiles[_EXTREME_QS[0]]
        return ">", self.quantiles[_EXTREME_QS[1]]


def _column_stats(table: Table) -> Dict[str, _ColumnStats]:
    stats: Dict[str, _ColumnStats] = {}
    all_qs = _THRESHOLD_QS + _EXTREME_QS
    for col in table.schema:
        if not col.ctype.is_numeric:
            continue
        values = np.asarray(table.column(col.name), dtype=np.float64)
        if not np.isfinite(values).any():
            continue
        # nanquantile: nullish columns get thresholds from their finite
        # mass (a NaN threshold would make every predicate empty).
        qs = np.nanquantile(values, all_qs)
        stats[col.name] = _ColumnStats(
            {q: float(v) for q, v in zip(all_qs, qs)}
        )
    return stats


def _fmt(value: float) -> str:
    """Render a threshold constant with limited, stable precision."""
    return f"{value:.6g}"


class QueryGenerator:
    """Derives seeded random aggregate SQL from table specs + data.

    Args:
        fact: Spec of the streamed fact table queries scan.
        fact_table: Its materialized data (for threshold statistics).
        dims: Dimension specs (streamed=False) available for joins,
            keyed by name, with their materialized tables.
        seed: Generator seed; the i-th query for a given (specs, seed)
            pair is deterministic.
        fact2: Optional second *streamed* fact (spec, table) sharing the
            primary fact's first key column; enables the multi-fact
            subquery productions of the deep grammar.
        grammar: "default" for the classic nested-aggregate grammar,
            "deep" to also produce windows, DISTINCT/quantile
            aggregates, multi-fact subqueries and edge biases.
    """

    def __init__(self, fact: TableSpec, fact_table: Table,
                 dims: Optional[Dict[str, Tuple[TableSpec, Table]]] = None,
                 seed: int = 0,
                 fact2: Optional[Tuple[TableSpec, Table]] = None,
                 grammar: str = "default"):
        if grammar not in GRAMMARS:
            raise ValueError(
                f"unknown grammar {grammar!r}; one of {GRAMMARS}"
            )
        self.fact = fact
        self.dims = dims or {}
        self.fact2 = fact2
        self.grammar = grammar
        self.rng = np.random.default_rng(seed)
        self.stats = _column_stats(fact_table)
        self._numeric = [c.name for c in fact.columns
                         if c.kind in NUMERIC_KINDS]
        self._groupable = [c.name for c in fact.columns
                           if c.kind in GROUPABLE_KINDS]
        self._keys = [c for c in fact.columns if c.kind == "key"]
        self._categories = {
            c.name: c.card for c in fact.columns if c.kind == "category"
        }
        self._bools = [c.name for c in fact.columns if c.kind == "bool"]
        self._distinctable = [c.name for c in fact.columns
                              if c.kind in ("key", "int")]
        self._fact2_numeric = (
            [c.name for c in fact2[0].columns if c.kind in NUMERIC_KINDS]
            if fact2 is not None else []
        )
        if not self._numeric:
            raise ValueError("fact table needs at least one numeric column")

    # -- pieces ----------------------------------------------------------

    def _choice(self, seq: Sequence):
        return seq[int(self.rng.integers(len(seq)))]

    def _measure_expr(self) -> str:
        """A numeric expression over fact measures."""
        rng = self.rng
        col = self._choice(self._numeric)
        roll = rng.random()
        if roll < 0.55 or len(self._numeric) < 2:
            return col
        if roll < 0.75:
            other = self._choice(self._numeric)
            op = self._choice(["+", "*"])
            return f"{col} {op} {other}"
        return f"{col} * {_fmt(float(rng.uniform(0.25, 4.0)))}"

    def _aggregate(self, index: int) -> AggItem:
        if self.grammar == "deep":
            roll = self.rng.random()
            if roll < 0.20 and self._distinctable:
                func = self._choice(DISTINCT_FUNCS)
                col = self._choice(self._distinctable)
                return AggItem(func, col, f"agg_{index}", distinct=True)
            if (roll < 0.35
                    and self.fact.rows <= _QUANTILE_ROW_LIMIT):
                q = float(self._choice([0.25, 0.5, 0.75, 0.9, 0.95]))
                col = self._choice(self._numeric)
                return AggItem("QUANTILE", col, f"agg_{index}", param=q)
        func = self._choice(AGG_FUNCS)
        if func == "COUNT":
            return AggItem("COUNT", "*", f"agg_{index}")
        return AggItem(func, self._measure_expr(), f"agg_{index}")

    def _compare_predicate(self) -> Predicate:
        col = self._choice(list(self.stats))
        op = self._choice(["<", "<=", ">", ">="])
        value = self.stats[col].threshold(self.rng)
        return Predicate(f"{col} {op} {_fmt(value)}", "compare")

    def _between_predicate(self) -> Predicate:
        col = self._choice(list(self.stats))
        lo = self.stats[col].quantiles[0.2]
        hi = self.stats[col].quantiles[
            self._choice([0.5, 0.65, 0.8])
        ]
        return Predicate(
            f"{col} BETWEEN {_fmt(lo)} AND {_fmt(hi)}", "between"
        )

    def _in_list_predicate(self) -> Predicate:
        name = self._choice(list(self._categories))
        card = self._categories[name]
        count = int(self.rng.integers(1, max(2, card - 1)))
        chosen = self.rng.choice(card, size=count, replace=False)
        values = ", ".join(f"'{name}_{i}'" for i in sorted(chosen))
        return Predicate(f"{name} IN ({values})", "in_list")

    def _bool_predicate(self) -> Predicate:
        col = self._choice(self._bools)
        value = "TRUE" if self.rng.random() < 0.5 else "FALSE"
        return Predicate(f"{col} = {value}", "bool")

    def _scalar_sub_predicate(self) -> Predicate:
        """``col op (SELECT f * AGG(col2) FROM fact)`` — uncorrelated."""
        col = self._choice(list(self.stats))
        inner = self._choice(self._numeric)
        func = self._choice(["AVG", "AVG", "AVG", "MIN", "MAX"])
        f = float(self.rng.uniform(0.6, 1.4))
        op = self._choice(["<", ">"])
        return Predicate(
            f"{col} {op} (SELECT {_fmt(f)} * {func}({inner}) "
            f"FROM {self.fact.name})",
            "scalar_sub",
        )

    def _keyed_sub_predicate(self, func: str = "AVG") -> Predicate:
        """Equality-correlated scalar subquery (per-key inner aggregate)."""
        key = self._choice(self._keys).name
        col = self._choice(list(self.stats))
        inner = self._choice(self._numeric)
        f = float(self.rng.uniform(0.6, 1.4))
        op = self._choice(["<", ">"])
        fact = self.fact.name
        return Predicate(
            f"{col} {op} (SELECT {_fmt(f)} * {func}({inner}) FROM {fact} t "
            f"WHERE t.{key} = {fact}.{key})",
            "keyed_sub",
        )

    def _in_sub_predicate(self) -> Predicate:
        """``key IN (SELECT key FROM fact GROUP BY key HAVING ...)``."""
        key = self._choice(self._keys).name
        inner = self._choice(list(self.stats))
        func = self._choice(["AVG", "SUM"])
        value = self.stats[inner].threshold(self.rng)
        if func == "SUM":
            # Per-group sums exceed global row quantiles; scale up by the
            # expected group size so the membership set stays non-trivial.
            key_card = next(c.card for c in self.fact.columns
                            if c.name == key)
            value *= max(1.0, self.fact.rows / max(1, key_card))
        op = self._choice(["<", ">"])
        fact = self.fact.name
        return Predicate(
            f"{key} IN (SELECT {key} FROM {fact} GROUP BY {key} "
            f"HAVING {func}({inner}) {op} {_fmt(value)})",
            "in_sub",
        )

    def _fact2_scalar_sub_predicate(self) -> Predicate:
        """Uncorrelated scalar aggregate over the *second* streamed fact."""
        col = self._choice(list(self.stats))
        inner = self._choice(self._fact2_numeric)
        f = float(self.rng.uniform(0.6, 1.4))
        op = self._choice(["<", ">"])
        return Predicate(
            f"{col} {op} (SELECT {_fmt(f)} * AVG({inner}) "
            f"FROM {self.fact2[0].name})",
            "fact2_scalar_sub",
        )

    def _fact2_keyed_sub_predicate(self) -> Predicate:
        """Per-key aggregate over the second fact, correlated through
        the shared key column (correlated resampling across tables)."""
        key = self._keys[0].name
        col = self._choice(list(self.stats))
        inner = self._choice(self._fact2_numeric)
        f = float(self.rng.uniform(0.6, 1.4))
        op = self._choice(["<", ">"])
        fact2 = self.fact2[0].name
        return Predicate(
            f"{col} {op} (SELECT {_fmt(f)} * AVG({inner}) FROM {fact2} s "
            f"WHERE s.{key} = {self.fact.name}.{key})",
            "fact2_keyed_sub",
        )

    def _guard_sub_predicate(self) -> Predicate:
        """A nested AVG/MIN/MAX, plain or in a shape beyond a lone
        ``certain θ f(slot)``: ``=`` (a guard pair), an ``OR`` (a guard
        tree), two slots, a row column beside the slot."""
        fact = self.fact.name
        base = (
            self._keyed_sub_predicate(self._choice(["AVG", "MIN", "MAX"]))
            if self._keys and self.rng.random() < 0.5
            else self._scalar_sub_predicate()
        ).sql
        shape = self._choice(["eq", "or", "two", "row", "plain"])
        if shape == "eq" and self._distinctable:
            # Rows holding the extreme: integral, so equality decides.
            col = self._choice(self._distinctable)
            func = self._choice(["MIN", "MAX"])
            base = f"{col} = (SELECT {func}({col}) FROM {fact})"
        elif shape == "or":
            base = f"({base} OR {self._compare_predicate().sql})"
        elif shape == "two":
            other = self._choice(self._numeric)
            base += f" - 0.5 * (SELECT AVG({other}) FROM {fact})"
        elif shape == "row":
            base += f" + 0.1 * {self._choice(self._numeric)}"
        return Predicate(base, "guard_sub")

    def _empty_group_predicate(self) -> Predicate:
        """Extreme-quantile filter: most groups shrink to a few rows,
        some to zero — the empty-group edge bias."""
        col = self._choice(list(self.stats))
        op, value = self.stats[col].extreme(self.rng)
        return Predicate(f"{col} {op} {_fmt(value)}", "empty_group")

    def _predicate(self, allow_subqueries: bool = True) -> Predicate:
        menu = [self._compare_predicate, self._between_predicate]
        if self._categories:
            menu.append(self._in_list_predicate)
        if self._bools:
            menu.append(self._bool_predicate)
        if allow_subqueries:
            # Over-sample the nested-aggregate shapes; they are the
            # uncertain-set machinery this harness exists to hunt in.
            menu += [self._scalar_sub_predicate] * 3
            if self._keys:
                menu += [self._keyed_sub_predicate] * 2
                menu += [self._in_sub_predicate] * 2
            if self.grammar == "deep":
                menu += [self._guard_sub_predicate] * 2
            if self.grammar == "deep" and self._fact2_numeric:
                menu += [self._fact2_scalar_sub_predicate] * 2
                if self._keys:
                    menu += [self._fact2_keyed_sub_predicate] * 2
        return self._choice(menu)()

    def _having(self, aggregates: Tuple[AggItem, ...]) -> Optional[str]:
        candidates = [a for a in aggregates if a.func in ("SUM", "AVG")]
        if not candidates:
            return None
        agg = self._choice(candidates)
        base = agg.expr.split(" ")[0]
        stats = self.stats.get(base)
        if stats is None:
            return None
        op = self._choice(["<", ">"])
        if self.rng.random() < 0.5:
            # Nested-aggregate HAVING (the Q11 shape): compare the group
            # aggregate against a fraction of the global aggregate.
            f = (float(self.rng.uniform(0.005, 0.1)) if agg.func == "SUM"
                 else float(self.rng.uniform(0.6, 1.4)))
            return (
                f"{agg.func}({agg.expr}) {op} "
                f"(SELECT {_fmt(f)} * {agg.func}({agg.expr}) "
                f"FROM {self.fact.name})"
            )
        value = stats.threshold(self.rng)
        if agg.func == "SUM":
            groups = max(1, len(self._group_cards()))
            value *= max(1.0, self.fact.rows / max(1, groups))
        return f"{agg.func}({agg.expr}) {op} {_fmt(value)}"

    def _group_cards(self) -> List[int]:
        return [c.card for c in self.fact.columns
                if c.kind in ("key", "category")]

    # -- whole queries ---------------------------------------------------

    def generate(self) -> QuerySpec:
        """One random valid aggregate query spec."""
        rng = self.rng

        n_aggs = int(rng.integers(1, 4))
        aggregates = tuple(self._aggregate(i) for i in range(n_aggs))

        join = None
        join_group: List[str] = []
        if self.dims and rng.random() < 0.35:
            dim_name = self._choice(sorted(self.dims))
            dim_spec, _ = self.dims[dim_name]
            key = self._keys[0].name if self._keys else None
            dim_id = next(c.name for c in dim_spec.columns
                          if c.kind == "id")
            if key is not None:
                how = "INNER" if rng.random() < 0.7 else "LEFT"
                join = (dim_name, f"{self.fact.name}.{key}",
                        f"{dim_name}.{dim_id}", how)
                dim_cat = next((c.name for c in dim_spec.columns
                                if c.kind == "category"), None)
                if dim_cat is not None and rng.random() < 0.5:
                    join_group.append(dim_cat)

        group_by: Tuple[str, ...] = ()
        if rng.random() < 0.45 and (self._groupable or join_group):
            n_keys = int(rng.integers(1, 3))
            pool = list(dict.fromkeys(self._groupable + join_group))
            rng.shuffle(pool)
            group_by = tuple(pool[:n_keys])
        elif join_group and rng.random() < 0.5:
            group_by = tuple(join_group)

        n_preds = int(rng.integers(0, 4))
        predicates = tuple(self._predicate() for _ in range(n_preds))
        if not any(p.kind.endswith("_sub") or p.kind == "in_sub"
                   for p in predicates) and rng.random() < 0.8:
            # Bias: most fuzz queries must exercise nested aggregates.
            predicates = predicates + (self._predicate_subquery_only(),)
        if (self.grammar == "deep" and group_by
                and rng.random() < 0.25):
            predicates = predicates + (self._empty_group_predicate(),)

        having = None
        if group_by and rng.random() < 0.4:
            having = self._having(aggregates)

        windows: Tuple[WindowItem, ...] = ()
        if self.grammar == "deep":
            windows = self._windows(group_by, aggregates)

        order_by = None
        order_desc = False
        if group_by and rng.random() < 0.4:
            order_by = self._choice(
                list(group_by) + [a.alias for a in aggregates]
            )
            order_desc = bool(rng.random() < 0.5)

        return QuerySpec(
            table=self.fact.name, aggregates=aggregates,
            predicates=predicates, group_by=group_by, join=join,
            having=having, order_by=order_by, order_desc=order_desc,
            windows=windows,
        )

    def _windows(self, group_by: Tuple[str, ...],
                 aggregates: Tuple[AggItem, ...]
                 ) -> Tuple[WindowItem, ...]:
        """0-2 window items when the grouped output supports them.

        Windows need a GROUP BY and order deterministically over an
        int64 key column (the binder accepts any projected group key;
        int keys keep the generated total order meaningful).
        """
        key_cols = [c.name for c in self._keys if c.name in group_by]
        if not key_cols or self.rng.random() >= 0.5:
            return ()
        order_col = self._choice(key_cols)
        items = []
        for i in range(int(self.rng.integers(1, 3))):
            preceding = (int(self.rng.integers(1, 6))
                         if self.rng.random() < 0.5 else None)
            if self.rng.random() < 0.25:
                items.append(WindowItem("COUNT", None, order_col,
                                        f"win_{i}", preceding))
                continue
            func = self._choice(["SUM", "AVG"])
            arg = self._choice([a.alias for a in aggregates])
            items.append(WindowItem(func, arg, order_col,
                                    f"win_{i}", preceding))
        return tuple(items)

    def _predicate_subquery_only(self) -> Predicate:
        makers = [self._scalar_sub_predicate]
        if self._keys:
            makers += [self._keyed_sub_predicate, self._in_sub_predicate]
        return self._choice(makers)()


def shrink_candidates(spec: QuerySpec):
    """Yield structurally smaller variants of ``spec``, simplest first.

    Used by the shrinker: each candidate removes exactly one part
    (window, predicate, HAVING, ORDER BY, join, group-by column,
    aggregate) so a failing query minimizes to the smallest spec that
    still diverges.  Removing a part that other parts depend on (an
    aggregate a window reads, a group column a window orders by) also
    removes the dependents, so every candidate renders valid SQL.
    """
    for i in range(len(spec.windows)):
        yield replace(
            spec, windows=spec.windows[:i] + spec.windows[i + 1:]
        )
    for i, agg in enumerate(spec.aggregates):
        # Simplify DISTINCT/QUANTILE aggregates in place before trying
        # to remove whole select items.
        if agg.distinct:
            plain = (AggItem("COUNT", "*", agg.alias)
                     if agg.func == "COUNT"
                     else replace(agg, distinct=False))
            yield replace(
                spec,
                aggregates=(spec.aggregates[:i] + (plain,)
                            + spec.aggregates[i + 1:]),
            )
        elif agg.param is not None:
            yield replace(
                spec,
                aggregates=(spec.aggregates[:i]
                            + (AggItem("AVG", agg.expr, agg.alias),)
                            + spec.aggregates[i + 1:]),
            )
    for i in range(len(spec.predicates)):
        yield replace(
            spec,
            predicates=spec.predicates[:i] + spec.predicates[i + 1:],
        )
    if spec.having is not None:
        yield replace(spec, having=None)
    if spec.order_by is not None:
        yield replace(spec, order_by=None, order_desc=False)
    if spec.join is not None and not _references_join(spec):
        yield replace(spec, join=None)
    for i in range(len(spec.group_by)):
        dropped = spec.group_by[i]
        smaller = replace(
            spec, group_by=spec.group_by[:i] + spec.group_by[i + 1:]
        )
        if spec.order_by == dropped:
            smaller = replace(smaller, order_by=None, order_desc=False)
        if not smaller.group_by and smaller.having is not None:
            smaller = replace(smaller, having=None)
        kept_windows = tuple(
            w for w in smaller.windows
            if w.order_col != dropped and smaller.group_by
        )
        if kept_windows != smaller.windows:
            smaller = replace(smaller, windows=kept_windows)
        yield smaller
    if len(spec.aggregates) > 1:
        for i in range(len(spec.aggregates)):
            dropped = spec.aggregates[i]
            smaller = replace(
                spec,
                aggregates=spec.aggregates[:i] + spec.aggregates[i + 1:],
            )
            if spec.order_by == dropped.alias:
                smaller = replace(smaller, order_by=None, order_desc=False)
            kept_windows = tuple(
                w for w in smaller.windows if w.arg != dropped.alias
            )
            if kept_windows != smaller.windows:
                smaller = replace(smaller, windows=kept_windows)
            yield smaller


def _references_join(spec: QuerySpec) -> bool:
    """Whether dropping the join would orphan a dim-column reference."""
    if spec.join is None:
        return False
    dim = spec.join[0]
    mentions = list(spec.group_by)
    mentions += [p.sql for p in spec.predicates]
    mentions += [a.expr for a in spec.aggregates]
    return any(f"{dim}_" in m for m in mentions)
