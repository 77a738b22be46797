"""Output checks: stream digests and the final-against-exact comparison.

The digest is the benchmark's own (not ``repro.faults.chaos``), so that
a change under ``src/`` cannot move what the benchmark accepts.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, List, Optional, Set

import numpy as np


def _update_array(digest, arr: np.ndarray) -> None:
    if arr.dtype == object:
        # tobytes() of an object array is its pointers.
        for value in arr:
            encoded = str(value).encode()
            digest.update(len(encoded).to_bytes(4, "little"))
            digest.update(encoded)
    else:
        digest.update(str(arr.dtype).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())


def snapshot_digest(snapshot) -> str:
    """sha256 over what a user sees of one ``OnlineSnapshot``: column
    bytes, confidence bounds, uncertain-set sizes and rebuilds."""
    digest = hashlib.sha256()
    digest.update(f"{snapshot.batch_index}/{snapshot.num_batches}".encode())
    for name in snapshot.table.schema.names:
        digest.update(name.encode())
        _update_array(digest, snapshot.table.column(name))
    for name in sorted(snapshot.errors):
        err = snapshot.errors[name]
        digest.update(name.encode())
        _update_array(digest, np.asarray(err.lows))
        _update_array(digest, np.asarray(err.highs))
    for block in sorted(snapshot.uncertain_sizes):
        digest.update(f"U:{block}={snapshot.uncertain_sizes[block]}".encode())
    digest.update(("R:" + ",".join(snapshot.rebuilds)).encode())
    return digest.hexdigest()


def stream_digests(snapshots: Iterable) -> List[str]:
    return [snapshot_digest(s) for s in snapshots]


#: NDJSON fields that differ between two runs of one query by design.
_VOLATILE = ("query_id", "elapsed_s")


def record_digest(record: dict) -> str:
    """sha256 of one NDJSON snapshot record without its id and timing."""
    kept = {k: v for k, v in record.items() if k not in _VOLATILE}
    return hashlib.sha256(
        json.dumps(kept, sort_keys=True).encode()
    ).hexdigest()


def _row_order(columns: List[np.ndarray]) -> np.ndarray:
    # The first column is the primary key; lexsort takes it last.
    return np.lexsort(columns[::-1])


def table_mismatch(online, exact, exempt: Set[str] = frozenset(),
                   rtol: float = 1e-8) -> Optional[str]:
    """Why the final online table differs from the exact one, or None.

    Rows are compared in a canonical order (a query without ORDER BY
    may emit its groups in any).  NaN equals NaN.  Columns in
    ``exempt`` only have to exist.
    """
    if online.schema.names != exact.schema.names:
        return (f"columns {online.schema.names} != "
                f"{exact.schema.names}")
    if online.num_rows != exact.num_rows:
        return f"{online.num_rows} rows != {exact.num_rows}"
    names = [n for n in online.schema.names if n not in exempt]
    if online.num_rows == 0 or not names:
        return None
    pairs = []
    for name in names:
        a, b = online.column(name), exact.column(name)
        if a.dtype == object or b.dtype == object:
            # The online engine boxes group keys the exact one keeps as
            # integers; compare (and order) both as text.
            a, b = a.astype(str), b.astype(str)
        else:
            a, b = a.astype(np.float64), b.astype(np.float64)
        pairs.append((a, b))
    order_a = _row_order([a for a, _ in pairs])
    order_b = _row_order([b for _, b in pairs])
    for name, (a, b) in zip(names, pairs):
        a, b = a[order_a], b[order_b]
        if a.dtype.kind == "U":
            same = bool((a == b).all())
        else:
            same = bool(np.allclose(a, b, rtol=rtol, atol=0.0,
                                    equal_nan=True))
        if not same:
            return f"column {name!r} differs from execute_batch"
    return None
