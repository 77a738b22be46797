"""Columnar in-memory tables.

The storage substrate for the whole engine: a :class:`Table` is an ordered
set of named numpy columns of equal length.  All relational operators are
vectorized over these columns, which is what makes laptop-scale runs of the
paper's 100GB-scale experiments feasible.

Types are deliberately minimal (the four the paper's queries need); strings
are stored as object arrays so joins and group-bys can hash them directly.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import SchemaError


class ColumnType(enum.Enum):
    """Logical column types supported by the engine."""

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"
    BOOL = "bool"

    @property
    def numpy_dtype(self):
        if self is ColumnType.INT64:
            return np.dtype(np.int64)
        if self is ColumnType.FLOAT64:
            return np.dtype(np.float64)
        if self is ColumnType.BOOL:
            return np.dtype(np.bool_)
        return np.dtype(object)

    @classmethod
    def infer(cls, array: np.ndarray) -> "ColumnType":
        """Infer a logical type from a numpy array's dtype."""
        if array.dtype == np.bool_:
            return cls.BOOL
        if np.issubdtype(array.dtype, np.integer):
            return cls.INT64
        if np.issubdtype(array.dtype, np.floating):
            return cls.FLOAT64
        return cls.STRING

    @property
    def is_numeric(self) -> bool:
        return self in (ColumnType.INT64, ColumnType.FLOAT64)


class Column:
    """A named, typed column definition (no data)."""

    __slots__ = ("name", "ctype")

    def __init__(self, name: str, ctype: ColumnType):
        if not name:
            raise SchemaError("column name must be non-empty")
        self.name = name
        self.ctype = ctype

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Column)
            and self.name == other.name
            and self.ctype is other.ctype
        )

    def __hash__(self) -> int:
        return hash((self.name, self.ctype))

    def __repr__(self) -> str:
        return f"Column({self.name!r}, {self.ctype.value})"


class Schema:
    """An ordered, duplicate-free list of :class:`Column` definitions."""

    def __init__(self, columns: Sequence[Column]):
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        self._columns: Tuple[Column, ...] = tuple(columns)
        self._index: Dict[str, int] = {c.name: i for i, c in enumerate(columns)}

    @property
    def columns(self) -> Tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> List[str]:
        return [c.name for c in self._columns]

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self._columns == other._columns

    def __repr__(self) -> str:
        inner = ", ".join(f"{c.name}:{c.ctype.value}" for c in self._columns)
        return f"Schema({inner})"

    def field(self, name: str) -> Column:
        try:
            return self._columns[self._index[name]]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}; have {self.names}") from None

    def index_of(self, name: str) -> int:
        if name not in self._index:
            raise SchemaError(f"unknown column {name!r}; have {self.names}")
        return self._index[name]

    def type_of(self, name: str) -> ColumnType:
        return self.field(name).ctype

    def select(self, names: Sequence[str]) -> "Schema":
        """A new schema containing only ``names``, in the given order."""
        return Schema([self.field(n) for n in names])


def _coerce(array: np.ndarray, ctype: ColumnType) -> np.ndarray:
    """Coerce ``array`` to the numpy dtype of ``ctype``, validating it."""
    want = ctype.numpy_dtype
    arr = np.asarray(array)
    if arr.ndim != 1:
        raise SchemaError(f"columns must be 1-D, got shape {arr.shape}")
    if arr.dtype == want:
        return arr
    if ctype is ColumnType.STRING:
        return arr.astype(object)
    try:
        return arr.astype(want)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"cannot coerce dtype {arr.dtype} to {ctype.value}") from exc


class Table:
    """An immutable-by-convention columnar table.

    Construct with :meth:`from_columns` (a mapping of name -> array) or
    :meth:`from_rows`.  Operations return new tables; column arrays are
    shared where safe (callers must not mutate returned arrays).
    """

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray],
                 num_rows: Optional[int] = None):
        """``num_rows`` is required for a zero-column table (a scan that
        reads no column, as ``COUNT(*)`` does, still has rows) and
        checked against the columns otherwise."""
        lengths = {name: len(arr) for name, arr in columns.items()}
        if set(lengths) != set(schema.names):
            raise SchemaError(
                f"columns {sorted(lengths)} do not match schema {schema.names}"
            )
        counts = set(lengths.values())
        if num_rows is not None:
            counts.add(num_rows)
        if len(counts) > 1:
            raise SchemaError(
                f"ragged columns: {lengths} (num_rows={num_rows})"
            )
        self._schema = schema
        self._columns = {
            c.name: _coerce(columns[c.name], c.ctype) for c in schema
        }
        self._num_rows = counts.pop() if counts else 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, np.ndarray],
        schema: Optional[Schema] = None,
    ) -> "Table":
        """Build a table from a name -> array mapping, inferring types."""
        if schema is None:
            cols = []
            arrays = {}
            for name, values in columns.items():
                arr = np.asarray(values)
                if arr.dtype.kind in ("U", "S"):
                    arr = arr.astype(object)
                cols.append(Column(name, ColumnType.infer(arr)))
                arrays[name] = arr
            return cls(Schema(cols), arrays)
        return cls(schema, dict(columns))

    @classmethod
    def from_rows(
        cls, rows: Iterable[Sequence], schema: Schema
    ) -> "Table":
        """Build a table from row tuples matching ``schema``'s order."""
        rows = list(rows)
        columns = {}
        for i, col in enumerate(schema):
            values = [row[i] for row in rows]
            columns[col.name] = np.array(values, dtype=col.ctype.numpy_dtype)
        return cls(schema, columns, num_rows=len(rows))

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        """An empty table with the given schema."""
        return cls(
            schema,
            {c.name: np.empty(0, dtype=c.ctype.numpy_dtype) for c in schema},
            num_rows=0,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def __len__(self) -> int:
        return self._num_rows

    def column(self, name: str) -> np.ndarray:
        """The backing array for ``name`` (treat as read-only)."""
        self._schema.field(name)
        return self._columns[name]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def row(self, index: int) -> Tuple:
        """A single row as a tuple in schema order."""
        return tuple(self._columns[n][index] for n in self._schema.names)

    def iter_rows(self) -> Iterator[Tuple]:
        """Iterate rows as tuples (slow path; for tests and display)."""
        for i in range(self._num_rows):
            yield self.row(i)

    def to_pylist(self) -> List[dict]:
        """All rows as a list of dicts (slow path; for tests and display)."""
        names = self._schema.names
        return [
            {n: self._columns[n][i].item() if hasattr(self._columns[n][i], "item")
             else self._columns[n][i] for n in names}
            for i in range(self._num_rows)
        ]

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def take(self, indices_or_mask: np.ndarray) -> "Table":
        """Rows selected by an integer index array or boolean mask."""
        sel = np.asarray(indices_or_mask)
        if sel.dtype == np.bool_ and len(sel) != self._num_rows:
            raise SchemaError(
                f"mask length {len(sel)} != table length {self._num_rows}"
            )
        num_rows = None
        if not self._columns:
            # No column to gather: select (and bounds-check) row ids.
            num_rows = len(np.arange(self._num_rows)[sel])
        return Table(
            self._schema, {n: arr[sel] for n, arr in self._columns.items()},
            num_rows=num_rows,
        )

    def slice(self, start: int, stop: int) -> "Table":
        """Rows in ``[start, stop)`` (arrays are views, zero-copy)."""
        return Table(
            self._schema,
            {n: arr[start:stop] for n, arr in self._columns.items()},
            num_rows=len(range(self._num_rows)[start:stop]),
        )

    def select(self, names: Sequence[str]) -> "Table":
        """A table with only ``names``, in the given order (the arrays
        are shared; no column at all keeps the row count)."""
        return Table(
            self._schema.select(names), {n: self._columns[n] for n in names},
            num_rows=self._num_rows,
        )

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """A table with columns renamed per ``mapping`` (others unchanged)."""
        cols = [
            Column(mapping.get(c.name, c.name), c.ctype) for c in self._schema
        ]
        arrays = {
            mapping.get(n, n): arr for n, arr in self._columns.items()
        }
        return Table(Schema(cols), arrays, num_rows=self._num_rows)

    def with_column(self, name: str, values: np.ndarray) -> "Table":
        """A table with ``name`` added (or replaced) by ``values``."""
        arr = np.asarray(values)
        if arr.dtype.kind in ("U", "S"):
            arr = arr.astype(object)
        ctype = ColumnType.infer(arr)
        if name in self._schema:
            cols = [
                Column(name, ctype) if c.name == name else c
                for c in self._schema
            ]
        else:
            cols = list(self._schema.columns) + [Column(name, ctype)]
        arrays = dict(self._columns)
        arrays[name] = arr
        return Table(Schema(cols), arrays, num_rows=self._num_rows)

    def drop(self, names: Sequence[str]) -> "Table":
        """A table without the given columns."""
        keep = [n for n in self._schema.names if n not in set(names)]
        return self.select(keep)

    @staticmethod
    def concat(tables: Sequence["Table"]) -> "Table":
        """Vertically concatenate tables with identical schemas."""
        if not tables:
            raise SchemaError("cannot concat zero tables")
        schema = tables[0].schema
        for t in tables[1:]:
            if t.schema != schema:
                raise SchemaError(
                    f"schema mismatch in concat: {t.schema} vs {schema}"
                )
        if len(tables) == 1:
            return tables[0]
        columns = {
            n: np.concatenate([t._columns[n] for t in tables])
            for n in schema.names
        }
        return Table(schema, columns,
                     num_rows=sum(t._num_rows for t in tables))

    def sort_order(self, keys: Sequence[str],
                   descending: Sequence[bool] = ()) -> np.ndarray:
        """The stable multi-key sort permutation :meth:`sort_by` applies.

        ``descending[i]`` applies to ``keys[i]``.  Exposed so callers
        carrying row-aligned side arrays can reorder them identically.
        """
        desc = list(descending) + [False] * (len(keys) - len(descending))
        order = np.arange(self._num_rows)
        # np.lexsort sorts by the *last* key first, so iterate reversed.
        for key, d in reversed(list(zip(keys, desc))):
            col = self._columns[key][order]
            try:
                idx = np.argsort(col, kind="stable")
            except TypeError:
                # NULL (a LEFT JOIN's unmatched string) met a value:
                # NULL sorts first, as it groups first.
                idx = np.array(sorted(
                    range(len(col)), key=lambda i: (col[i] is not None, col[i])
                ), dtype=np.intp)
            if d:
                idx = idx[::-1]
            order = order[idx]
        return order

    def sort_by(self, keys: Sequence[str], descending: Sequence[bool] = ()) -> "Table":
        """Stable multi-key sort.  ``descending[i]`` applies to ``keys[i]``."""
        if not keys:
            return self
        return self.take(self.sort_order(keys, descending))

    def __repr__(self) -> str:
        return f"Table({self._schema!r}, num_rows={self._num_rows})"

    def head_str(self, n: int = 10) -> str:
        """A small aligned textual preview for consoles and docs."""
        names = self._schema.names
        rows = [names] + [
            [f"{v:.4g}" if isinstance(v, float) else str(v) for v in self.row(i)]
            for i in range(min(n, self._num_rows))
        ]
        widths = [max(len(r[i]) for r in rows) for i in range(len(names))]
        lines = [
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in rows
        ]
        if self._num_rows > n:
            lines.append(f"... ({self._num_rows} rows)")
        return "\n".join(lines)


def table_bytes(table: Table) -> int:
    """Estimated resident bytes of a table's column arrays.

    Colstore datasets (registered in place of a table) expose an
    ``estimated_bytes`` of their *logical* decoded size — the admission
    bound is deliberately conservative, since the scheduler cannot know
    how much of a memory-mapped dataset a query will fault in.
    """
    est = getattr(table, "estimated_bytes", None)
    if est is not None:
        return int(est)
    total = 0
    for name in table.schema.names:
        arr = table.column(name)
        total += int(arr.nbytes)
        if arr.dtype == object:
            # nbytes counts only the pointers; approximate the payload.
            total += sum(len(str(v)) for v in arr[:256]) * max(
                len(arr) // 256, 1
            )
    return total
