"""Plain-text table I/O (CSV and JSON lines).

Kept deliberately dependency-free: the generators in ``repro.workloads``
produce tables directly, but users adopting the library will want to load
their own logs, and the examples round-trip through these functions.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import SchemaError
from .table import Column, ColumnType, Schema, Table

PathLike = Union[str, Path]

_TRUE_TOKENS = frozenset({"1", "true", "t", "yes"})
_FALSE_TOKENS = frozenset({"0", "false", "f", "no"})

def _parse_bool(s: str) -> bool:
    """Strict boolean parse: unrecognized tokens raise, never read False."""
    token = s.strip().lower()
    if token in _TRUE_TOKENS:
        return True
    if token in _FALSE_TOKENS:
        return False
    raise ValueError(f"not a boolean: {s!r}")


_PARSERS = {
    ColumnType.INT64: int,
    ColumnType.FLOAT64: float,
    ColumnType.STRING: str,
    ColumnType.BOOL: _parse_bool,
}

#: Stand-in written for a quarantined row's cell before the row is dropped.
_PLACEHOLDERS = {
    ColumnType.INT64: 0,
    ColumnType.FLOAT64: float("nan"),
    ColumnType.STRING: "",
    ColumnType.BOOL: False,
}


def _infer_column(values: List[str], error_budget: float = 0.0
                  ) -> ColumnType:
    """Infer the narrowest type that parses (almost) every column value.

    With ``error_budget > 0`` (quarantine active), a type is accepted
    when at least ``1 - error_budget`` of the values parse — otherwise a
    single malformed cell would demote a numeric column to STRING and
    the bad row would sail through unquarantined.
    """
    def ok_fraction(fn) -> float:
        if not values:
            return 1.0
        bad = 0
        for v in values:
            try:
                fn(v)
            except (TypeError, ValueError):
                bad += 1
        return 1.0 - bad / len(values)

    threshold = 1.0 - error_budget
    if ok_fraction(int) >= threshold:
        return ColumnType.INT64
    if ok_fraction(float) >= threshold:
        return ColumnType.FLOAT64
    if ok_fraction(_parse_bool) >= threshold:
        return ColumnType.BOOL
    return ColumnType.STRING


def read_csv(path: PathLike, schema: Optional[Schema] = None,
             delimiter: str = ",", quarantine=None) -> Table:
    """Load a headered CSV file, inferring types unless a schema is given.

    ``quarantine`` (a :class:`repro.faults.RowQuarantine`) switches from
    abort-on-first-bad-row to collect-and-drop: malformed rows are
    recorded with their line number and reason, dropped from the result,
    and the load only aborts when the quarantined fraction exceeds the
    quarantine's error budget.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, no header") from None
        rows = list(reader)

    raw = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    if schema is None:
        budget = quarantine.error_budget if quarantine is not None else 0.0
        schema = Schema(
            [Column(name, _infer_column(raw[name], budget))
             for name in header]
        )

    num_rows = len(rows)
    parsed: Dict[str, list] = {}
    # row index -> (column, value, reason): only the first failing column
    # is reported per row; the whole row is dropped either way.
    bad_rows: Dict[int, Tuple[str, str, str]] = {}
    for col in schema:
        parse = _PARSERS[col.ctype]
        placeholder = _PLACEHOLDERS[col.ctype]
        values = []
        for idx, v in enumerate(raw[col.name]):
            try:
                values.append(parse(v))
            except (TypeError, ValueError) as exc:
                if quarantine is None:
                    raise SchemaError(
                        f"{path}: line {idx + 2}, column {col.name!r}: "
                        f"{exc}"
                    ) from None
                bad_rows.setdefault(idx, (col.name, v, str(exc)))
                values.append(placeholder)
        parsed[col.name] = values

    keep = None
    if bad_rows:
        for idx in sorted(bad_rows):
            column, value, reason = bad_rows[idx]
            quarantine.add(line_number=idx + 2, column=column,
                           value=value, reason=reason)
        keep = np.ones(num_rows, dtype=bool)
        keep[list(bad_rows)] = False
    if quarantine is not None:
        quarantine.check_budget(num_rows, source=str(path))

    columns = {}
    for col in schema:
        arr = np.array(parsed[col.name], dtype=col.ctype.numpy_dtype)
        columns[col.name] = arr if keep is None else arr[keep]
    return Table(schema, columns)


def write_csv(table: Table, path: PathLike, delimiter: str = ",") -> None:
    """Write a table as a headered CSV file."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, delimiter=delimiter)
        writer.writerow(table.schema.names)
        writer.writerows(table.iter_rows())


def read_jsonl(path: PathLike) -> Table:
    """Load a JSON-lines file (one flat object per line)."""
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    if not records:
        raise SchemaError(f"{path}: no records")
    names = list(records[0])
    columns = {n: np.array([r[n] for r in records]) for n in names}
    return Table.from_columns(columns)


def write_jsonl(table: Table, path: PathLike) -> None:
    """Write a table as JSON lines."""
    names = table.schema.names
    with open(path, "w") as f:
        for row in table.iter_rows():
            record = {
                n: (v.item() if hasattr(v, "item") else v)
                for n, v in zip(names, row)
            }
            f.write(json.dumps(record) + "\n")
