"""Seeded random table specs for the QA harness (``repro.qa``).

A :class:`TableSpec` is a tiny, JSON-serializable recipe — name, row
count, seed and a list of typed column specs — from which
:func:`generate_table` deterministically materializes a
:class:`~repro.storage.table.Table`.  Because a spec (not the data) is
what the fuzzer records in failure artifacts, a one-file reproducer can
rebuild the exact tables a divergence was found on, and the shrinker can
minimize a failure by shrinking the *spec* (fewer rows, fewer columns)
and re-materializing.

Column kinds:

``key``
    int64 foreign-key-like values in ``[0, card)``; usable for GROUP
    BY, correlated subqueries and joins against a dimension's ``id``.
``id``
    int64 primary key ``0..rows-1`` (dimension tables; unique).
``int``
    small non-negative int64 measures.
``float``
    positive exponential float64 measures (the paper's play/buffer
    times are exponential).
``tail``
    heavy-tailed positive float64 (lognormal) — exercises estimator
    behaviour under skew.
``category``
    low-cardinality strings with zipf-ish popularity skew.
``bool``
    booleans.
``nullish``
    float64 measures with a heavy NaN fraction (the engine's stand-in
    for NULLs) — exercises NaN propagation through aggregates and
    NaN-dropping comparison predicates identically across paths.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..storage.table import Table

COLUMN_KINDS = ("key", "id", "int", "float", "tail", "category", "bool",
                "nullish")

#: Kinds that yield numeric measure columns (aggregate arguments).
NUMERIC_KINDS = ("int", "float", "tail", "nullish")

#: Kinds that make sensible GROUP BY / correlation keys.
GROUPABLE_KINDS = ("key", "category", "bool")


@dataclass(frozen=True)
class ColumnSpec:
    """One column's recipe: a name, a kind and shape parameters."""

    name: str
    kind: str
    card: int = 8       # key/category cardinality
    scale: float = 1.0  # numeric scale multiplier

    def __post_init__(self) -> None:
        if self.kind not in COLUMN_KINDS:
            raise ValueError(
                f"unknown column kind {self.kind!r}; one of {COLUMN_KINDS}"
            )
        if self.card < 1:
            raise ValueError("card must be >= 1")
        if self.scale <= 0:
            raise ValueError("scale must be > 0")

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "card": self.card, "scale": self.scale}

    @classmethod
    def from_dict(cls, d: dict) -> "ColumnSpec":
        return cls(name=d["name"], kind=d["kind"],
                   card=int(d.get("card", 8)),
                   scale=float(d.get("scale", 1.0)))


@dataclass(frozen=True)
class TableSpec:
    """A deterministic table recipe; equal specs generate equal tables."""

    name: str
    rows: int
    seed: int
    columns: Tuple[ColumnSpec, ...] = field(default_factory=tuple)
    streamed: bool = True

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ValueError("rows must be >= 1")
        if not self.columns:
            raise ValueError("a table needs at least one column")

    def with_rows(self, rows: int) -> "TableSpec":
        return TableSpec(self.name, rows, self.seed, self.columns,
                         self.streamed)

    def to_dict(self) -> dict:
        return {
            "name": self.name, "rows": self.rows, "seed": self.seed,
            "streamed": self.streamed,
            "columns": [c.to_dict() for c in self.columns],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TableSpec":
        return cls(
            name=d["name"], rows=int(d["rows"]), seed=int(d["seed"]),
            streamed=bool(d.get("streamed", True)),
            columns=tuple(ColumnSpec.from_dict(c) for c in d["columns"]),
        )


def _category_values(name: str, card: int) -> np.ndarray:
    return np.array([f"{name}_{i}" for i in range(card)], dtype=object)


def generate_table(spec: TableSpec) -> Table:
    """Materialize a spec into a Table (bit-reproducible per spec)."""
    rng = np.random.default_rng(spec.seed)
    n = spec.rows
    columns: Dict[str, np.ndarray] = {}
    for col in spec.columns:
        # One child stream per column: adding/removing a column does not
        # reshuffle the others, which keeps shrinks "local".  The stream
        # seed must survive process boundaries (artifacts replay in a
        # fresh interpreter), so no builtin hash() here.
        digest = hashlib.blake2s(
            f"{spec.seed}/{col.name}".encode("utf-8"), digest_size=8
        ).digest()
        crng = np.random.default_rng(int.from_bytes(digest, "little"))
        if col.kind == "key":
            columns[col.name] = crng.integers(0, col.card, n,
                                              dtype=np.int64)
        elif col.kind == "id":
            columns[col.name] = np.arange(n, dtype=np.int64)
        elif col.kind == "int":
            columns[col.name] = crng.integers(
                0, max(2, int(50 * col.scale)), n, dtype=np.int64
            )
        elif col.kind == "float":
            columns[col.name] = crng.exponential(30.0 * col.scale, n)
        elif col.kind == "tail":
            columns[col.name] = crng.lognormal(
                mean=np.log(20.0 * col.scale), sigma=1.5, size=n
            )
        elif col.kind == "bool":
            columns[col.name] = crng.random(n) < 0.5
        elif col.kind == "nullish":
            values = crng.exponential(30.0 * col.scale, n)
            values[crng.random(n) < 0.35] = np.nan
            columns[col.name] = values
        else:  # category
            values = _category_values(col.name, col.card)
            weights = 1.0 / np.arange(1, col.card + 1)
            weights /= weights.sum()
            columns[col.name] = values[
                crng.choice(col.card, n, p=weights)
            ]
    del rng
    return Table.from_columns(columns)


# ---------------------------------------------------------------------------
# Random spec construction (the fuzzer's input universe)
# ---------------------------------------------------------------------------


def random_fact_spec(rng: np.random.Generator, rows: int,
                     name: str = "fact", seed: int = 0,
                     grammar: str = "default") -> TableSpec:
    """A random streamed fact table: keys, measures and dimensions.

    The ``deep`` grammar always includes a NaN-heavy ``nullish`` measure
    (the NULL-edge bias) alongside the usual float/tail measures.
    """
    cols: List[ColumnSpec] = [
        ColumnSpec("k1", "key", card=int(rng.integers(6, 24))),
    ]
    if rng.random() < 0.5:
        cols.append(ColumnSpec("k2", "key",
                               card=int(rng.integers(4, 12))))
    n_floats = int(rng.integers(2, 5))
    for i in range(n_floats):
        kind = "tail" if rng.random() < 0.25 else "float"
        cols.append(ColumnSpec(f"x{i + 1}", kind,
                               scale=float(rng.uniform(0.5, 3.0))))
    if rng.random() < 0.6:
        cols.append(ColumnSpec("m1", "int",
                               scale=float(rng.uniform(0.5, 2.0))))
    if grammar == "deep" or rng.random() < 0.15:
        cols.append(ColumnSpec("n1", "nullish",
                               scale=float(rng.uniform(0.5, 2.0))))
    n_cats = int(rng.integers(1, 3))
    for i in range(n_cats):
        cols.append(ColumnSpec(f"c{i + 1}", "category",
                               card=int(rng.integers(3, 9))))
    if rng.random() < 0.5:
        cols.append(ColumnSpec("flag", "bool"))
    return TableSpec(name=name, rows=rows, seed=seed,
                     columns=tuple(cols), streamed=True)


_MIN_FACT2_ROWS = 64


def random_fact2_spec(rng: np.random.Generator, fact: TableSpec,
                      name: str = "fact2", seed: int = 2) -> TableSpec:
    """A second streamed fact sharing the primary fact's first key.

    Multi-fact queries correlate the two facts through this shared key
    column (same name, same cardinality), so generated subqueries like
    ``(SELECT AVG(y1) FROM fact2 t WHERE t.k1 = fact.k1)`` always
    resolve and always have matching key domains.
    """
    key = next(c for c in fact.columns if c.kind == "key")
    cols = [
        ColumnSpec(key.name, "key", card=key.card),
        ColumnSpec("y1", "float", scale=float(rng.uniform(0.5, 2.0))),
    ]
    if rng.random() < 0.5:
        cols.append(ColumnSpec("y2", "tail",
                               scale=float(rng.uniform(0.5, 2.0))))
    rows = max(_MIN_FACT2_ROWS, fact.rows // 2)
    return TableSpec(name=name, rows=rows, seed=seed,
                     columns=tuple(cols), streamed=True)


def random_dim_spec(rng: np.random.Generator, fact: TableSpec,
                    name: str = "dim", seed: int = 1) -> TableSpec:
    """A dimension table joinable on the fact's first key column.

    Its ids cover all but a seeded top slice (one key up to a quarter)
    of the key's domain, so a ``LEFT JOIN`` always meets fact rows with
    no dimension row and NULL-fills them.
    """
    key = next(c for c in fact.columns if c.kind == "key")
    cols = [
        ColumnSpec(f"{name}_id", "id"),
        ColumnSpec(f"{name}_cat", "category",
                   card=int(rng.integers(2, 6))),
        ColumnSpec(f"{name}_weight", "float",
                   scale=float(rng.uniform(0.5, 2.0))),
    ]
    unmatched = int(rng.integers(1, max(1, key.card // 4) + 1))
    return TableSpec(name=name, rows=max(1, key.card - unmatched),
                     seed=seed, columns=tuple(cols), streamed=False)
