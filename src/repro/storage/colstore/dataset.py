"""Colstore datasets: a directory of partition files plus a manifest.

``convert_table`` writes one ``.gcp`` partition file per shuffled
mini-batch (via the lazy partitioner, so the full shuffled copy is
never materialized) and a ``manifest.json`` recording the schema, the
partitioning parameters, a content fingerprint, and any quarantined
rows carried over from a CSV load.

``ColstoreDataset`` opens such a directory and can stand in for an
in-memory :class:`Table` in the catalog: the binder only needs
``.schema``, the controller streams ``.batches()`` lazily (each batch
decoded on demand from its memory-mapped partition), and batch
(non-online) execution materializes via ``.to_table()``, which
reconstructs the *original* row order so results match the source
table bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import List, Optional

import numpy as np

from ...errors import StorageError
from ...faults.quarantine import QuarantinedRow, RowQuarantine
from ..partition import MiniBatchPartitioner
from ..table import Column, ColumnType, Schema, Table
from .format import DEFAULT_CHUNK_ROWS, PartitionReader, write_partition

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
PARTITION_SUFFIX = ".gcp"

#: Decoded per-row byte estimates for admission control.
_ROW_BYTES = {"int64": 8, "float64": 8, "bool": 1, "string": 64}


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _quarantine_records(quarantine: Optional[RowQuarantine]):
    if quarantine is None:
        return None
    return {
        "error_budget": quarantine.error_budget,
        "total_seen": quarantine.total_seen,
        "rows": [
            {"line_number": row.line_number, "column": row.column,
             "value": row.value, "reason": row.reason}
            for row in quarantine.rows
        ],
    }


def convert_table(table: Table, out_dir, num_batches: int,
                  seed: int = 0, shuffle: bool = True,
                  codec: str = "auto",
                  quarantine: Optional[RowQuarantine] = None,
                  source: Optional[str] = None) -> "ColstoreDataset":
    """Write ``table`` as a colstore dataset directory.

    The partitioning parameters (``num_batches``, ``seed``,
    ``shuffle``) are baked into the files: a run whose config matches
    them streams the stored batches directly; any other config falls
    back to materializing and re-partitioning.
    """
    if num_batches < 1:
        raise StorageError("num_batches must be >= 1")
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    partitioner = MiniBatchPartitioner(num_batches, seed=seed,
                                       shuffle=shuffle)
    partitions = []
    fingerprint = hashlib.sha256()
    fingerprint.update(repr(table.schema).encode())
    fingerprint.update(
        f"k={num_batches};seed={seed};shuffle={shuffle}".encode()
    )
    for index, batch in enumerate(partitioner.iter_batches(table)):
        name = f"part-{index:05d}{PARTITION_SUFFIX}"
        path = os.path.join(out_dir, name)
        write_partition(path, batch, codec=codec)
        sha = _file_sha256(path)
        fingerprint.update(sha.encode())
        partitions.append({
            "file": name,
            "rows": batch.num_rows,
            "bytes": os.path.getsize(path),
            "sha256": sha,
        })
    manifest = {
        "format": "colstore",
        "version": MANIFEST_VERSION,
        "num_rows": table.num_rows,
        "num_batches": num_batches,
        "seed": seed,
        "shuffle": shuffle,
        "codec": codec,
        "chunk_rows": DEFAULT_CHUNK_ROWS,
        "schema": [[c.name, c.ctype.value] for c in table.schema],
        "partitions": partitions,
        "fingerprint": fingerprint.hexdigest()[:32],
        "quarantine": _quarantine_records(quarantine),
        "source": source,
    }
    tmp = os.path.join(out_dir, MANIFEST_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, os.path.join(out_dir, MANIFEST_NAME))
    return ColstoreDataset(out_dir)


class _LazyBatchSeq:
    """Sequence view over a dataset's batches, decoded on access.

    The controller indexes batches one at a time (``batches[i - 1]``
    per step), so no decoded batch is retained here — memory stays
    bounded by one batch plus whatever the run itself keeps.
    """

    def __init__(self, dataset: "ColstoreDataset"):
        self._dataset = dataset

    def __len__(self) -> int:
        return self._dataset.num_batches

    def __getitem__(self, index: int) -> Table:
        return self._dataset.batch(index)

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


class ColstoreDataset:
    """An opened colstore dataset directory.

    Duck-types the subset of :class:`Table` the catalog and binder
    need (``schema``, ``num_rows``) while providing lazy batch access
    for streaming runs and ``to_table()`` for batch execution.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        manifest_path = os.path.join(self.path, MANIFEST_NAME)
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                self.manifest = json.load(fh)
        except OSError as exc:
            raise StorageError(
                f"{self.path}: not a colstore dataset ({exc.strerror})"
            ) from None
        except ValueError as exc:
            raise StorageError(
                f"{manifest_path}: corrupt manifest ({exc})"
            ) from None
        if self.manifest.get("format") != "colstore":
            raise StorageError(f"{manifest_path}: not a colstore manifest")
        if self.manifest.get("version") != MANIFEST_VERSION:
            raise StorageError(
                f"{manifest_path}: unsupported manifest version "
                f"{self.manifest.get('version')!r}"
            )
        self.schema = Schema(tuple(
            Column(name, ColumnType(type_name))
            for name, type_name in self.manifest["schema"]
        ))
        self._readers: List[Optional[PartitionReader]] = \
            [None] * self.num_batches

    # ------------------------------------------------------------------
    # Manifest accessors
    # ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return int(self.manifest["num_rows"])

    def __len__(self) -> int:
        return self.num_rows

    @property
    def num_batches(self) -> int:
        return int(self.manifest["num_batches"])

    @property
    def seed(self) -> int:
        return int(self.manifest["seed"])

    @property
    def shuffle(self) -> bool:
        return bool(self.manifest["shuffle"])

    @property
    def fingerprint(self) -> str:
        return self.manifest["fingerprint"]

    @property
    def quarantined_rows(self) -> List[QuarantinedRow]:
        records = self.manifest.get("quarantine") or {"rows": []}
        return [
            QuarantinedRow(line_number=row["line_number"],
                           column=row["column"], value=row["value"],
                           reason=row["reason"])
            for row in records["rows"]
        ]

    @property
    def estimated_bytes(self) -> int:
        """Decoded-size estimate for serve-layer admission control."""
        row = sum(_ROW_BYTES.get(c.ctype.value, 8) for c in self.schema)
        return self.num_rows * max(row, 1)

    def config_matches(self, config) -> bool:
        """True when ``config`` partitions exactly like the stored files."""
        return (config.num_batches == self.num_batches
                and config.seed == self.seed
                and config.shuffle == self.shuffle)

    def verify(self) -> None:
        """Check every partition file against its manifest sha256."""
        for entry in self.manifest["partitions"]:
            path = os.path.join(self.path, entry["file"])
            digest = _file_sha256(path)
            if digest != entry["sha256"]:
                raise StorageError(
                    f"{path}: sha256 mismatch (file {digest[:12]}..., "
                    f"manifest {entry['sha256'][:12]}...)"
                )

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    def reader(self, index: int) -> PartitionReader:
        if not 0 <= index < self.num_batches:
            raise StorageError(
                f"partition {index} out of range 0..{self.num_batches - 1}"
            )
        if self._readers[index] is None:
            entry = self.manifest["partitions"][index]
            self._readers[index] = PartitionReader(
                os.path.join(self.path, entry["file"]))
        return self._readers[index]

    def batch(self, index: int) -> Table:
        """Decode mini-batch ``index``."""
        return self.reader(index).read_table()

    def batches(self) -> _LazyBatchSeq:
        """A lazy, indexable sequence of all mini-batches."""
        return _LazyBatchSeq(self)

    def to_table(self) -> Table:
        """Materialize the dataset in its *original* row order.

        Inverts the partitioner's permutation (recomputed from the
        manifest seed, never stored) so batch execution over the
        materialized table matches the pre-conversion source exactly.
        """
        batches = [self.batch(i) for i in range(self.num_batches)]
        rng = np.random.default_rng(self.seed)
        if self.shuffle:
            shuffled = Table.concat(batches) if batches else \
                Table.empty(self.schema)
            perm = rng.permutation(self.num_rows)
            return shuffled.take(np.argsort(perm))
        order = rng.permutation(self.num_batches)
        slots: List[Optional[Table]] = [None] * self.num_batches
        for position, original in enumerate(order):
            slots[original] = batches[position]
        return Table.concat([t for t in slots if t is not None])


def open_dataset(path) -> ColstoreDataset:
    """Open a colstore dataset directory."""
    return ColstoreDataset(path)


def is_dataset_dir(path) -> bool:
    """True when ``path`` looks like a colstore dataset directory."""
    return os.path.isfile(os.path.join(os.fspath(path), MANIFEST_NAME))
