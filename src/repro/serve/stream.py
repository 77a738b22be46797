"""Snapshot streaming: JSON encoding plus per-query pub/sub queues.

Each served query owns one :class:`SnapshotStream`.  The scheduler
thread publishes one encoded record per mini-batch; subscribers (HTTP
handler threads, Python callers) each get their own bounded queue so a
slow consumer can never stall the scheduler — under backpressure the
*oldest undelivered* records are dropped for that subscriber only
(counted in ``dropped``), while the full history is kept on the stream
so replay-from-start subscriptions stay lossless and deterministic.

Record schema (one JSON object per NDJSON line):

``{"type": "snapshot", "query_id", "batch", "of", "fraction", "rows":
[{col: value, ...}, ...], "errors": {col: {"lo": [...], "hi": [...],
"rel_stdev": [...]}}, "estimate", "lo", "hi", "rel_stdev", "uncertain",
"elapsed_s"}`` — the scalar convenience fields are present
only for single-cell answers; NaNs are encoded as null.  The stream ends
with one ``{"type": "end", "query_id", "state", ...}`` record.
"""

from __future__ import annotations

import math
import queue
import threading
from typing import Iterator, List, Optional

from ..core.result import OnlineSnapshot


def _json_safe(value):
    """Coerce numpy scalars and non-finite floats for strict JSON."""
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def encode_snapshot(query_id: str, snapshot: OnlineSnapshot) -> dict:
    """One progressive-result record (estimate ± CI) as a JSON dict."""
    table = snapshot.table
    rows = [
        {name: _json_safe(value) for name, value in row.items()}
        for row in table.to_pylist()
    ]
    errors = {
        name: {
            "lo": [_json_safe(v) for v in err.lows.tolist()],
            "hi": [_json_safe(v) for v in err.highs.tolist()],
            "rel_stdev": [_json_safe(v) for v in err.rel_stdev.tolist()],
        }
        for name, err in snapshot.errors.items()
    }
    record = {
        "type": "snapshot",
        "query_id": query_id,
        "batch": snapshot.batch_index,
        "of": snapshot.num_batches,
        "fraction": round(snapshot.fraction, 9),
        "rows": rows,
        "errors": errors,
        "uncertain": snapshot.total_uncertain,
        "rows_processed": snapshot.total_rows_processed,
        "rebuilds": list(snapshot.rebuilds),
        "confidence": snapshot.confidence,
        "elapsed_s": round(snapshot.elapsed_s, 9),
    }
    try:
        interval = snapshot.interval
        record["estimate"] = _json_safe(snapshot.estimate)
        record["lo"] = _json_safe(interval.low)
        record["hi"] = _json_safe(interval.high)
        record["rel_stdev"] = _json_safe(snapshot.relative_stdev)
    except ValueError:
        pass  # multi-row/multi-column answer: rows/errors carry it all
    return record


#: Per-subscriber buffer of undelivered snapshot records: a slower
#: consumer has its oldest records dropped (counted, never blocking the
#: scheduler).  Replay-from-start subscriptions are never lossy — the
#: full per-query history is kept for the query's lifetime.
SNAPSHOT_QUEUE = 256


class SnapshotStream:
    """Replayable pub/sub channel for one query's snapshot records."""

    _DONE = object()

    def __init__(self, maxsize: int = SNAPSHOT_QUEUE):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._history: List[dict] = []
        self._subscribers: List["queue.Queue"] = []
        self._closed = False
        self.dropped = 0

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def history(self) -> List[dict]:
        """Every record published so far (snapshot copy)."""
        with self._lock:
            return list(self._history)

    def _offer(self, q: "queue.Queue", item) -> None:
        """Enqueue without ever blocking: drop the oldest on overflow."""
        while True:
            try:
                q.put_nowait(item)
                return
            except queue.Full:
                try:
                    dropped = q.get_nowait()
                    if dropped is not self._DONE:
                        self.dropped += 1
                except queue.Empty:
                    pass

    def publish(self, record: dict) -> None:
        """Append to history and fan out to every live subscriber."""
        with self._lock:
            if self._closed:
                raise RuntimeError("stream is closed")
            self._history.append(record)
            for q in self._subscribers:
                self._offer(q, record)

    def close(self, final: Optional[dict] = None) -> None:
        """End the stream, optionally appending one terminal record."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if final is not None:
                self._history.append(final)
                for q in self._subscribers:
                    self._offer(q, final)
            for q in self._subscribers:
                self._offer(q, self._DONE)

    def subscribe(self) -> Iterator[dict]:
        """Iterate records from the start, then live until the end.

        The backlog copy and the live-queue registration happen under
        one lock, so a subscriber sees every record exactly once, in
        publish order (minus any dropped under its own backpressure).
        """
        with self._lock:
            backlog = list(self._history)
            if self._closed:
                live = None
            else:
                live = queue.Queue(self.maxsize)
                self._subscribers.append(live)
        try:
            for record in backlog:
                yield record
            if live is None:
                return
            while True:
                record = live.get()
                if record is self._DONE:
                    return
                yield record
        finally:
            if live is not None:
                with self._lock:
                    if live in self._subscribers:
                        self._subscribers.remove(live)
