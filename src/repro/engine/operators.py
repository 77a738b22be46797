"""Physical (vectorized) relational operators.

Each function evaluates one logical plan node over concrete
:class:`~repro.storage.table.Table` inputs.  They are shared by the exact
batch executor, the CDM baseline, and — for everything except Aggregate —
the online engine (which replaces aggregation with incremental state and
filters with uncertain/deterministic classification).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from ..expr.expressions import Environment, Expression, evaluate_mask
from ..plan.logical import Aggregate, Filter, Limit, Project, Sort, Window, WindowCall
from ..storage.table import ColumnType, Schema, Table
from .aggregates import (
    GroupIndex,
    UDAFRegistry,
    argument_values,
    make_state,
)


def run_filter(node: Filter, table: Table, env: Environment) -> Table:
    """Apply a Filter node's predicate as a boolean mask."""
    if table.num_rows == 0:
        return table
    return table.take(evaluate_mask(node.predicate, table, env))


def run_project(node: Project, table: Table, env: Environment) -> Table:
    """Evaluate a Project node's expressions into output columns."""
    n = table.num_rows
    columns = {}
    for expr, name in node.exprs:
        raw = expr.evaluate(table, env)
        arr = np.asarray(raw)
        if arr.ndim == 0:
            arr = np.full(n, arr[()])
        if arr.dtype.kind in ("U", "S"):
            arr = arr.astype(object)
        columns[name] = arr
    return Table.from_columns(columns) if n or columns else Table.empty(
        node.schema
    )


class JoinIndex(NamedTuple):
    """Build side of the hash join: the build keys' encoder plus
    ``rows[dense key id] -> build row``, whose extra last entry is -1 so
    an unmatched probe (id -1) gathers -1."""

    keys: GroupIndex
    rows: np.ndarray


def build_join_index(right: Table, key_names: Sequence[str]) -> JoinIndex:
    """Index ``right``'s key columns for :func:`probe_join`.

    Right-side rows must be unique per key combination (dimension
    semantics); duplicate build keys raise because fan-out joins would
    break the online multiplicity accounting.
    """
    keys = GroupIndex()
    ids = keys.encode(_composite_keys([right.column(n) for n in key_names]))
    if keys.num_groups < len(ids):
        dup = keys.key_at(np.bincount(ids).argmax())
        raise ExecutionError(
            f"duplicate key {dup!r} on join build side; dimension "
            "tables must be unique per key"
        )
    rows = np.full(len(ids) + 1, -1, dtype=np.int64)
    rows[ids] = np.arange(len(ids))
    return JoinIndex(keys, rows)


def probe_join(left: Table, right: Table, index: JoinIndex,
               keys: Sequence[Tuple[str, str]], how: str = "inner",
               span=None) -> Tuple[Table, Optional[np.ndarray]]:
    """Probe ``index`` with ``left``'s keys and gather ``right``'s columns.

    Returns the joined table plus the boolean mask of ``left`` rows it
    kept (None for a left join, which keeps every row and fills the
    unmatched ones per :func:`_fill_value`).  The batch executor and the
    online certain pipeline both join through here.  Probe keys match
    build keys under Python equality (``5.0`` finds ``5``), and only the
    batch's distinct probe keys reach the encoder's dict.

    ``span`` is an optional observability span
    (:class:`repro.obs.Span`); when given, the match count is recorded.
    """
    if how not in ("inner", "left"):
        raise ExecutionError(f"unsupported join type {how!r}")
    match = index.rows[index.keys.encode(
        _composite_keys([left.column(l) for l, _ in keys]), add_new=False
    )]
    matched = match >= 0
    if span is not None:
        span.set("matched", int(matched.sum()))
    keep = None
    if how == "inner":
        keep = matched
        left = left.take(keep)
        match = match[keep]

    columns = {n: left.column(n) for n in left.schema.names}
    cols = list(left.schema.columns)
    right_key_names = {r for _, r in keys}
    for col in right.schema:
        if col.name in right_key_names:
            continue
        arr = right.column(col.name)
        if how == "left":
            # An unmatched row's -1 gathers the appended fill value.
            arr = np.append(arr, _fill_value(col.ctype))
        columns[col.name] = arr[match]
        cols.append(col)
    return Table(Schema(cols), columns), keep


def hash_join(left: Table, right: Table, keys: Sequence[Tuple[str, str]],
              how: str = "inner", span=None) -> Table:
    """Hash equi-join; right side is the build side (dimension table)."""
    index = build_join_index(right, [r for _, r in keys])
    return probe_join(left, right, index, keys, how, span)[0]


def _composite_keys(parts: Sequence[np.ndarray]) -> np.ndarray:
    """One key per row: the single key column itself, or per-row tuples
    of several (the only per-row objects a multi-column key needs)."""
    if len(parts) == 1:
        return parts[0]
    combined = np.empty(len(parts[0]), dtype=object)
    combined[:] = list(zip(*[p.tolist() for p in parts]))
    return combined


def _fill_value(ctype: ColumnType):
    if ctype is ColumnType.FLOAT64:
        return np.nan
    if ctype is ColumnType.INT64:
        return 0
    if ctype is ColumnType.BOOL:
        return False
    return None


def group_indices(table: Table, group_by: Sequence[Tuple[Expression, str]],
                  env: Environment,
                  index: Optional[GroupIndex] = None) -> Tuple[np.ndarray, GroupIndex]:
    """Dense group indices for a table under the given grouping exprs.

    With no grouping every row maps to group 0 (a single global group).
    Passing an existing :class:`GroupIndex` extends it — the online engine
    uses this to keep group identities stable across mini-batches.
    """
    if index is None:
        index = GroupIndex()
    n = table.num_rows
    if not group_by:
        index.encode(np.zeros(1, dtype=np.int64))  # ensure group 0 exists
        return np.zeros(n, dtype=np.int64), index
    parts = []
    for expr, _ in group_by:
        raw = np.asarray(expr.evaluate(table, env))
        parts.append(
            np.broadcast_to(raw, (n,)) if raw.ndim == 0 else raw
        )
    return index.encode(_composite_keys(parts)), index


def run_aggregate(node: Aggregate, table: Table, env: Environment,
                  scale: float = 1.0,
                  udafs: Optional[UDAFRegistry] = None,
                  seed: int = 0, span=None) -> Table:
    """Exact one-shot aggregation (the batch path).

    ``scale`` implements the ``Q(D_i, k/i)`` multiset semantics when the
    input is a prefix of the mini-batch stream.  ``span`` is an optional
    observability span; when given, the group count is recorded.
    """
    group_idx, index = group_indices(table, node.group_by, env)
    # A grouped aggregate over empty input has zero output rows; only the
    # global (no GROUP BY) aggregate keeps its single row on empty input.
    num_groups = (index.num_groups if node.group_by
                  else max(index.num_groups, 1))
    if span is not None:
        span.set("groups", num_groups)

    agg_columns: Dict[str, np.ndarray] = {}
    for call in node.aggregates:
        state = make_state(call, trials=None, udafs=udafs, seed=seed)
        state.ensure_groups(num_groups)
        if table.num_rows:
            values = None
            if call.arg is not None:
                values = argument_values(
                    call, call.arg.evaluate(table, env), table.num_rows
                )
            state.update(group_idx, values)
        finalized = state.finalize(scale)
        if len(finalized) < num_groups:
            finalized = np.concatenate(
                [finalized, np.zeros(num_groups - len(finalized))]
            )
        agg_columns[call.alias] = finalized

    columns: Dict[str, np.ndarray] = {}
    if node.group_by:
        keys = index.keys()
        if len(node.group_by) == 1:
            name = node.group_by[0][1]
            ctype = node.schema.type_of(name)
            columns[name] = np.array(keys, dtype=ctype.numpy_dtype)
        else:
            for pos, (_, name) in enumerate(node.group_by):
                ctype = node.schema.type_of(name)
                columns[name] = np.array(
                    [k[pos] for k in keys], dtype=ctype.numpy_dtype
                )
    else:
        # Global aggregate: exactly one output row, even over empty input.
        pass
    columns.update(agg_columns)
    out = Table(node.schema, columns)

    if node.having is not None and out.num_rows:
        out = out.take(evaluate_mask(node.having, out, env))
    return out


def window_order(columns: Dict[str, np.ndarray], call: "WindowCall",
                 tiebreak: Sequence[str]) -> np.ndarray:
    """Deterministic total-order permutation for one window call.

    Stable successive argsorts over (order column, then the tiebreak
    columns — the projected group keys, whose tuple is unique per row),
    so the resulting order is identical however the input rows were
    physically arranged.  Shared by the batch operator and the online
    snapshot path: both must place every row in the same frame.
    """
    n = len(columns[call.order_column])
    order = np.arange(n)
    keys = [call.order_column] + [
        t for t in tiebreak if t != call.order_column
    ]
    for name in reversed(keys):
        values = columns[name]
        order = order[np.argsort(values[order], kind="stable")]
    return order


def windowed_values(call: "WindowCall", values: Optional[np.ndarray],
                    order: np.ndarray) -> np.ndarray:
    """Evaluate one window call given the total order.

    ``values`` is the argument column — ``(n,)`` point values or an
    ``(n, B)`` bootstrap replica matrix (the rolling transform is linear,
    so applying it per trial column gives the replica of the windowed
    value) — or None for COUNT, whose result is the frame row count.
    Cumulative sums plus a shifted subtraction implement the rolling
    frame in O(n) per column; the result scatters back to input order.
    """
    n = len(order)
    width = None if call.preceding is None else call.preceding + 1
    if call.func == "count":
        counts = np.arange(1, n + 1, dtype=np.float64)
        if width is not None:
            counts = np.minimum(counts, float(width))
        out = np.empty(n, dtype=np.float64)
        out[order] = counts
        return out
    if values is None:
        raise ExecutionError(f"window {call.func} requires an argument")
    vals = np.asarray(values, dtype=np.float64)
    sorted_vals = vals[order]
    cum = np.cumsum(sorted_vals, axis=0)
    if width is not None and n > width:
        roll = cum.copy()
        roll[width:] = cum[width:] - cum[:-width]
    else:
        roll = cum
    if call.func == "avg":
        counts = np.arange(1, n + 1, dtype=np.float64)
        if width is not None:
            counts = np.minimum(counts, float(width))
        roll = roll / (counts[:, None] if roll.ndim == 2 else counts)
    out = np.empty_like(roll)
    out[order] = roll
    return out


def run_window(node: Window, table: Table) -> Table:
    """Evaluate a Window node over a concrete (projected) table."""
    columns = {name: table.column(name) for name in table.schema.names}
    computed: Dict[str, np.ndarray] = {}
    for call in node.calls:
        order = window_order(columns, call, node.tiebreak)
        arg = columns[call.arg] if call.arg is not None else None
        computed[call.alias] = windowed_values(call, arg, order)
    final = {
        name: computed.get(name, columns.get(name))
        for name in node.output_order
    }
    return Table(node.schema, final)


def run_sort(node: Sort, table: Table) -> Table:
    return table.sort_by(
        [n for n, _ in node.keys], [d for _, d in node.keys]
    )


def run_limit(node: Limit, table: Table) -> Table:
    return table.slice(0, min(node.n, table.num_rows))
