"""Trace sinks: where span/event records go.

One interface, three implementations:

* :class:`NullSink` — the default; ``enabled`` is False so every record
  site short-circuits before building a record dict.
* :class:`JsonlSink` — one JSON object per line, the event log
  ``python -m repro report`` consumes (schema documented in README).
* :class:`AggregatingSink` — in-memory per-span-name statistics for live
  console rendering and tests.

:class:`TeeSink` fans one record out to several sinks (e.g. JSONL file +
live aggregation).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, TextIO, Union


class TraceSink:
    """Interface: receives record dicts; ``enabled`` gates producers."""

    enabled = True

    def emit(self, record: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/close underlying resources (idempotent)."""


class NullSink(TraceSink):
    """Discards everything; producers skip work entirely."""

    enabled = False

    def emit(self, record: dict) -> None:
        pass


NULL_SINK = NullSink()


class JsonlSink(TraceSink):
    """Writes one compact JSON object per record line.

    Accepts a path (opened lazily, owned and closed by the sink) or an
    already-open file-like object (borrowed, only flushed).

    Owned paths can rotate: when the current file exceeds ``max_bytes``
    or ``max_lines`` (0 disables either cap), it is rolled to
    ``<path>.1`` (existing backups shifting to ``.2``, ... up to
    ``backups``, oldest dropped) and a fresh file is started — so a
    long-running session traced through ``GolaConfig.trace_path`` with
    ``trace_rotate_mb`` set keeps at most ``(backups + 1) * max_bytes``
    of trace on disk.  Borrowed file objects never rotate.
    """

    def __init__(self, target: Union[str, "TextIO"],
                 max_bytes: int = 0, max_lines: int = 0, backups: int = 2):
        self._path: Optional[str] = None
        self._file: Optional[TextIO] = None
        if isinstance(target, str):
            self._path = target
        else:
            self._file = target
        self._owns = self._path is not None
        self.max_bytes = int(max_bytes)
        self.max_lines = int(max_lines)
        self.backups = max(int(backups), 0)
        self._bytes = 0
        self._lines = 0

    def _over_limit(self) -> bool:
        return (
            (self.max_bytes > 0 and self._bytes >= self.max_bytes)
            or (self.max_lines > 0 and self._lines >= self.max_lines)
        )

    def _rotate(self) -> None:
        self._file.close()
        self._file = None
        for i in range(self.backups, 1, -1):
            older = f"{self._path}.{i - 1}"
            if os.path.exists(older):
                os.replace(older, f"{self._path}.{i}")
        if self.backups > 0:
            os.replace(self._path, f"{self._path}.1")
        else:
            os.remove(self._path)
        self._bytes = 0
        self._lines = 0

    def emit(self, record: dict) -> None:
        if self._owns and self._file is not None and self._over_limit():
            self._rotate()
        if self._file is None:
            self._file = open(self._path, "w", encoding="utf-8")
        line = json.dumps(record, separators=(",", ":"), default=str) + "\n"
        self._file.write(line)
        if self._owns:
            self._bytes += len(line.encode("utf-8"))
            self._lines += 1

    def close(self) -> None:
        if self._file is None:
            return
        if self._owns:
            self._file.close()
            self._file = None
        else:
            self._file.flush()


@dataclass
class SpanStats:
    """Aggregate over all completions of one span name."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0
    #: Sums of integer-valued span attributes (rows_in, rows_out, ...).
    attr_totals: Dict[str, float] = None

    def __post_init__(self) -> None:
        if self.attr_totals is None:
            self.attr_totals = {}

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else float("nan")

    def observe(self, elapsed_s: float, attrs: Optional[dict]) -> None:
        self.count += 1
        self.total_s += elapsed_s
        if elapsed_s < self.min_s:
            self.min_s = elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s
        if attrs:
            for key, value in attrs.items():
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                self.attr_totals[key] = (
                    self.attr_totals.get(key, 0.0) + value
                )


class AggregatingSink(TraceSink):
    """Folds span records into per-name statistics, in memory.

    ``spans`` maps span name -> :class:`SpanStats`; ``events`` counts
    point events by name.  ``render()`` produces the same per-phase
    profile table the CLI report prints, without any file round trip.
    """

    def __init__(self) -> None:
        self.spans: Dict[str, SpanStats] = {}
        self.events: Dict[str, int] = {}

    def emit(self, record: dict) -> None:
        kind = record.get("type")
        if kind == "span":
            stats = self.spans.get(record["name"])
            if stats is None:
                stats = self.spans[record["name"]] = SpanStats()
            stats.observe(record.get("elapsed_s", 0.0),
                          record.get("attrs"))
        elif kind == "event":
            name = record["name"]
            self.events[name] = self.events.get(name, 0) + 1

    def total_seconds(self, name: str) -> float:
        stats = self.spans.get(name)
        return stats.total_s if stats is not None else 0.0

    def render(self, indent: str = "") -> str:
        from .report import render_span_table  # local: avoid import cycle

        return render_span_table(self.spans, self.events, indent=indent)


class TeeSink(TraceSink):
    """Fans every record out to several child sinks."""

    def __init__(self, *sinks: TraceSink):
        self.sinks: List[TraceSink] = [s for s in sinks if s.enabled]
        self.enabled = bool(self.sinks)

    def emit(self, record: dict) -> None:
        for sink in self.sinks:
            sink.emit(record)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
