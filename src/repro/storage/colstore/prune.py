"""Zone-map pruning: skip chunks a predicate provably rejects.

Two consumers:

* the certain-filter hooks (``engine.operators.run_filter`` and the
  delta pipeline's certain steps) use :func:`pruned_filter_mask`, which
  evaluates the predicate only on chunks its zone maps cannot rule out
  and scatters ``False`` for the rest — the resulting mask is
  *identical* to a full ``evaluate_mask`` because every comparison is
  row-local and NaN rows compare ``False`` under numpy semantics for
  ``< <= > >= =`` (``!=`` is the exception: NaN ``!=`` c is ``True``,
  so those chunks only prune when the zone map records zero nulls);

* the delta controller's uncertain-set re-evaluation uses
  :func:`match_uncertain_comparison` + :func:`chunk_decisions` to
  resolve whole chunks of the tri-state classification against a
  row-constant slot interval without evaluating per-row intervals.

Both reduce to one array call into :func:`repro.expr.tristate.tri_compare`
over the per-chunk min/max arrays — the same comparison table the
per-row classifier uses — with the NaN and all-null rules applied as
masks.  (This module cannot import :mod:`repro.core`, which would cycle
back through the controller into this package; the shared table lives
in :mod:`repro.expr` for that reason.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ...expr.expressions import (
    ColumnRef,
    Comparison,
    Literal,
    conjuncts,
    evaluate_mask,
)
from ...expr.tristate import (
    FLIP_COMPARISON,
    TRI_FALSE,
    TRI_UNKNOWN,
    tri_compare,
)


@dataclass
class ColumnZones:
    """Per-chunk statistics for one column of one partition.

    ``lows``/``highs`` arrive as the footer's JSON lists (``None`` for
    an all-null chunk) and are held as arrays in the column's own dtype
    — int64 bounds stay exact — with ``all_null`` marking the chunks
    whose placeholder bound means nothing.
    """

    ctype: str                       # ColumnType value string
    lows: np.ndarray                 # per-chunk min, NaN excluded
    highs: np.ndarray                # per-chunk max, NaN excluded
    nulls: np.ndarray                # per-chunk NaN count
    distinct: np.ndarray             # per-chunk distinct estimate
    all_null: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        dtype = {"float64": np.float64, "string": object}.get(
            self.ctype, np.int64
        )

        def as_array(bounds):
            return np.array([0 if v is None else v for v in bounds],
                            dtype=dtype)

        self.all_null = np.array([v is None for v in self.lows], dtype=bool)
        self.lows, self.highs = as_array(self.lows), as_array(self.highs)


@dataclass
class ZoneMapIndex:
    """Zone maps for every column of one partition (one mini-batch)."""

    chunk_rows: int
    num_rows: int
    columns: Dict[str, ColumnZones]
    #: Chunks skipped by certain-filter pruning against this partition
    #: (benchmarks read it; tracing counts the same events globally).
    pruned_total: int = field(default=0, compare=False)

    @property
    def num_chunks(self) -> int:
        if self.num_rows == 0:
            return 0
        return -(-self.num_rows // self.chunk_rows)

    def row_mask_for_chunks(self, keep: np.ndarray) -> np.ndarray:
        """Expand a per-chunk bool array to a per-row bool array."""
        return np.repeat(keep, self.chunk_rows)[: self.num_rows]


def _literal_value(expr):
    """The python constant of a Literal, or None when not a literal."""
    if isinstance(expr, Literal):
        value = expr.value
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (int, float, str, np.integer, np.floating)):
            return value
    return None


def _match_filter_conjunct(expr) -> Optional[Tuple[str, str, object]]:
    """Match ``col op literal`` (either side) -> (name, op, const)."""
    if not isinstance(expr, Comparison):
        return None
    left, right = expr.left, expr.right
    if isinstance(left, ColumnRef):
        const = _literal_value(right)
        if const is not None:
            return left.name, expr.op, const
    if isinstance(right, ColumnRef):
        const = _literal_value(left)
        if const is not None:
            return right.name, FLIP_COMPARISON[expr.op], const
    return None


def _const_matches_type(const, ctype: str) -> bool:
    if ctype == "string":
        return isinstance(const, str)
    if ctype in ("int64", "float64", "bool"):
        return isinstance(const, (int, float, np.integer, np.floating))
    return False


def chunk_keep(predicate, zones: ZoneMapIndex) -> Optional[np.ndarray]:
    """Per-chunk keep mask for a certain filter, or None if no conjunct
    of ``predicate`` has a usable ``col op literal`` shape."""
    if zones.num_chunks == 0:
        return None
    keep: Optional[np.ndarray] = None
    for conjunct in conjuncts(predicate):
        matched = _match_filter_conjunct(conjunct)
        if matched is None:
            continue
        name, op, const = matched
        cz = zones.columns.get(name)
        if cz is None or not _const_matches_type(const, cz.ctype):
            continue
        # A chunk is dead when every row fails ``col op const``: FALSE
        # over the chunk's [min, max] speaks for its non-NaN rows, and
        # NaN rows fail every comparison — except ``!=``, where they
        # pass, so there only null-free chunks prune.
        rejected = tri_compare(op, cz.lows, cz.highs, const, const) \
            == TRI_FALSE
        if op == "!=":
            dead = rejected & (cz.nulls == 0)
        else:
            dead = rejected | cz.all_null
        keep = ~dead if keep is None else (keep & ~dead)
    return keep


def pruned_filter_mask(predicate, table, env,
                       zones: ZoneMapIndex) -> Tuple[np.ndarray, int]:
    """``(mask, chunks_pruned)`` — bit-identical to ``evaluate_mask``.

    Chunks whose zone maps prove the predicate false contribute
    ``False`` rows directly; the predicate is evaluated only on the
    surviving rows (every expression is row-local, so evaluating on the
    gathered sub-table matches evaluating in place).
    """
    keep = None
    if zones.num_rows == table.num_rows:
        keep = chunk_keep(predicate, zones)
    if keep is None or keep.all():
        return np.asarray(evaluate_mask(predicate, table, env),
                          dtype=bool), 0
    pruned = int((~keep).sum())
    mask = np.zeros(table.num_rows, dtype=bool)
    rows_keep = zones.row_mask_for_chunks(keep)
    if rows_keep.any():
        sub = table.take(rows_keep)
        mask[rows_keep] = np.asarray(
            evaluate_mask(predicate, sub, env), dtype=bool
        )
    zones.pruned_total += pruned
    return mask, pruned


def match_uncertain_comparison(predicate):
    """Match an uncertain predicate ``col op <row-constant slot expr>``.

    Returns ``(column_name, op, uncertain_side)`` with ``op`` oriented
    as ``col op slot``, or None.  The uncertain side must be
    row-constant: it may carry subquery slots but reference no columns
    of the lineage table (correlated subqueries reference columns and
    are rejected).  The column side must be a bare numeric ColumnRef —
    its per-row interval is the degenerate ``[v, v]``, which the chunk
    interval ``[min, max]`` contains, making chunk-level tri-state
    decisions sound for every row of the chunk.
    """
    if not isinstance(predicate, Comparison):
        return None
    left, right = predicate.left, predicate.right
    left_slots = bool(left.subquery_slots())
    right_slots = bool(right.subquery_slots())
    if left_slots == right_slots:
        return None
    if left_slots:
        col_side, unc_side, op = right, left, FLIP_COMPARISON[predicate.op]
    else:
        col_side, unc_side, op = left, right, predicate.op
    if not isinstance(col_side, ColumnRef):
        return None
    if unc_side.references():
        return None
    return col_side.name, op, unc_side


def chunk_decisions(zones: ZoneMapIndex, column: str, op: str,
                    lo: float, hi: float) -> Optional[np.ndarray]:
    """Per-chunk tri-state decisions for ``col op [lo, hi]``.

    ``[lo, hi]`` is the slot's variation range.  Every row value ``v``
    is the degenerate interval ``[v, v]`` inside its chunk's
    ``[min, max]``, and :func:`tri_compare` is monotone under interval
    containment, so a TRUE/FALSE verdict for the chunk is the verdict
    per-row classification gives each of its rows.

    None when the column has no numeric zone maps.  Chunks containing
    NaN rows stay TRI_UNKNOWN (a NaN row is individually unknown to the
    interval comparison, never decidable at chunk granularity).
    """
    cz = zones.columns.get(column)
    if cz is None or cz.ctype not in ("int64", "float64"):
        return None
    out = tri_compare(op, cz.lows, cz.highs, lo, hi)
    out[cz.nulls > 0] = TRI_UNKNOWN
    return out
