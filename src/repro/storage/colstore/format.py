"""On-disk colstore partition files (one file per mini-batch).

Layout::

    GOLACOL1                      8-byte magic
    <64-byte-aligned segments>    column payloads, in footer order
    <footer JSON>                 schema, codecs, segment index, zones
    <uint64 LE footer length>
    GOLACOL1                      trailing magic

Every segment starts on a 64-byte boundary so a ``np.memmap`` view of
the file yields cache-line-aligned, dtype-safe zero-copy column arrays
for ``plain``-coded numeric columns.  Per-chunk zone maps (min/max,
null count, distinct estimate) are computed at encode time and stored
in the footer as statistics ``repro inspect`` reports; no read path
consults them (see ``docs/storage.md``).
"""

from __future__ import annotations

import json
import os
import struct
from typing import List, Optional

import numpy as np

from ...errors import StorageError
from ..table import Column, ColumnType, Schema, Table
from .codecs import decode_column, encode_column

MAGIC = b"GOLACOL1"
ALIGN = 64
FORMAT_VERSION = 1
_TRAILER = struct.Struct("<Q")

#: Rows per zone-map chunk.
DEFAULT_CHUNK_ROWS = 4096


def _json_scalar(value):
    """A JSON-safe python scalar for zone-map bounds."""
    if value is None:
        return None
    if isinstance(value, (np.bool_, bool)):
        return int(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def compute_zones(arr: np.ndarray, ctype: ColumnType,
                  chunk_rows: int) -> List[dict]:
    """Per-chunk zone maps for one column.

    ``lo``/``hi`` exclude NaN and are ``None`` for all-null chunks;
    ``nulls`` counts NaN rows; ``distinct`` is an exact per-chunk
    cardinality (cheap at ≤ ``chunk_rows`` values — an estimate in
    spirit, since chunks are tiny relative to the table).
    """
    zones: List[dict] = []
    n = len(arr)
    for start in range(0, max(n, 1), chunk_rows):
        chunk = arr[start:start + chunk_rows]
        if len(chunk) == 0:
            break
        if ctype == ColumnType.STRING:
            lo, hi = min(chunk), max(chunk)
            nulls = 0
            distinct = len(set(chunk))
        elif ctype == ColumnType.FLOAT64:
            nan = np.isnan(chunk)
            nulls = int(nan.sum())
            if nulls == len(chunk):
                lo = hi = None
            else:
                valid = chunk[~nan]
                lo, hi = valid.min(), valid.max()
            distinct = int(len(np.unique(chunk)))
        else:
            nulls = 0
            lo, hi = chunk.min(), chunk.max()
            distinct = int(len(np.unique(chunk)))
        zones.append({
            "lo": _json_scalar(lo), "hi": _json_scalar(hi),
            "nulls": nulls, "distinct": distinct,
        })
    return zones


def write_partition(path, table: Table, codec: str = "auto",
                    chunk_rows: int = DEFAULT_CHUNK_ROWS) -> dict:
    """Write ``table`` as one partition file; returns the footer dict."""
    columns = []
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        for name in table.schema.names:
            ctype = table.schema.type_of(name)
            arr = table.column(name)
            encoded = encode_column(arr, ctype, codec)
            segments = []
            for seg in encoded.segments:
                seg = np.ascontiguousarray(seg)
                pad = (-fh.tell()) % ALIGN
                if pad:
                    fh.write(b"\x00" * pad)
                segments.append({
                    "offset": fh.tell(),
                    "nbytes": int(seg.nbytes),
                    "dtype": str(seg.dtype),
                    "count": int(len(seg)),
                })
                fh.write(seg.tobytes())
            columns.append({
                "name": name,
                "type": ctype.value,
                "codec": encoded.codec,
                "meta": encoded.meta,
                "segments": segments,
                "zones": compute_zones(arr, ctype, chunk_rows),
                "encoded_bytes": encoded.encoded_bytes,
            })
        footer = {
            "version": FORMAT_VERSION,
            "num_rows": table.num_rows,
            "chunk_rows": chunk_rows,
            "columns": columns,
        }
        blob = json.dumps(footer).encode("utf-8")
        fh.write(blob)
        fh.write(_TRAILER.pack(len(blob)))
        fh.write(MAGIC)
    return footer


class PartitionReader:
    """Read one partition file through ``np.memmap``.

    The file bytes are paged in lazily by the OS and ``plain``-coded
    numeric columns decode to zero-copy (read-only) views into the
    mapping, so a partition never has to fit in the process heap at
    once.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        size = os.path.getsize(self.path)
        tail_len = _TRAILER.size + len(MAGIC)
        if size < len(MAGIC) + tail_len:
            raise StorageError(f"{self.path}: truncated partition file")
        with open(self.path, "rb") as fh:
            if fh.read(len(MAGIC)) != MAGIC:
                raise StorageError(f"{self.path}: bad partition magic")
            fh.seek(size - tail_len)
            tail = fh.read(tail_len)
            if tail[_TRAILER.size:] != MAGIC:
                raise StorageError(f"{self.path}: bad trailing magic")
            (footer_len,) = _TRAILER.unpack(tail[:_TRAILER.size])
            footer_at = size - tail_len - footer_len
            if footer_at < len(MAGIC):
                raise StorageError(f"{self.path}: bad footer length")
            fh.seek(footer_at)
            try:
                self.footer = json.loads(fh.read(footer_len))
            except ValueError as exc:
                raise StorageError(
                    f"{self.path}: corrupt footer ({exc})"
                ) from None
        if self.footer.get("version") != FORMAT_VERSION:
            raise StorageError(
                f"{self.path}: unsupported format version "
                f"{self.footer.get('version')!r}"
            )
        self._buf: Optional[np.ndarray] = None

    @property
    def num_rows(self) -> int:
        return int(self.footer["num_rows"])

    def _segment(self, desc: dict) -> np.ndarray:
        if self._buf is None:
            self._buf = np.memmap(self.path, dtype=np.uint8, mode="r")
        off, nbytes = int(desc["offset"]), int(desc["nbytes"])
        if off + nbytes > len(self._buf):
            raise StorageError(f"{self.path}: segment past end of file")
        raw = self._buf[off:off + nbytes]
        return raw.view(np.dtype(desc["dtype"]))[: int(desc["count"])]

    def schema(self) -> Schema:
        return Schema(tuple(
            Column(col["name"], ColumnType(col["type"]))
            for col in self.footer["columns"]
        ))

    def read_table(self) -> Table:
        """Decode the whole partition into a :class:`Table`."""
        arrays = {}
        for col in self.footer["columns"]:
            ctype = ColumnType(col["type"])
            segments = [self._segment(d) for d in col["segments"]]
            arrays[col["name"]] = decode_column(
                col["codec"], segments, col["meta"], ctype, self.num_rows
            )
        return Table(self.schema(), arrays)
