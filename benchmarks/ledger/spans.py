"""The benchmark's own spans, and the arithmetic that reads them.

A span is a name, a start, an end, the span that caused it and the id
of the query it belongs to.  Spans are kept in memory and handed back
when the run ends; nothing is written while a pass is being timed.

The program's own tracer records (``repro.obs.Tracer`` into an
in-memory sink) are turned into the same shape by :func:`adopt`, so one
tree holds both: the benchmark's spans around each public call, and
under them whatever the program said about itself.

No import from ``repro`` here: the arithmetic is tested on its own.
"""

from __future__ import annotations

import bisect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional


@dataclass
class Span:
    id: Hashable
    name: str
    start: float
    end: float
    parent: Optional[Hashable] = None
    query: Optional[str] = None
    attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """Spans of one thread of control, in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[Hashable] = None,
            query: Optional[str] = None) -> Hashable:
        """Record a span whose clock readings were already taken, so a
        timed loop reads the clock once per boundary and books later."""
        if query is None and parent is not None:
            query = self.spans[parent].query
        span = Span(id=len(self.spans), name=name, start=start, end=end,
                    parent=parent, query=query)
        self.spans.append(span)
        return span.id

    @contextmanager
    def span(self, name: str, query: Optional[str] = None):
        parent = self._stack[-1].id if self._stack else None
        span = self.spans[self.add(name, self.clock(), 0.0, parent, query)]
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()


def self_times(spans: Iterable[Span]) -> Dict[Hashable, float]:
    """Span id -> duration minus the part its children cover.

    Children may overlap each other (work fanned out to threads) or
    stick out of the parent by a rounding error; only the part of the
    parent's own interval that at least one child covers is taken off.
    """
    spans = list(spans)
    children: Dict[Hashable, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: Dict[Hashable, float] = {}
    for span in spans:
        covered = 0.0
        edge = span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda c: c.start):
            lo = max(child.start, edge)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[span.id] = span.duration - covered
    return out


def self_time_by_name(spans: Iterable[Span]) -> Dict[str, float]:
    """Span name -> summed self time."""
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += own[span.id]
    return dict(out)


#: The program's span that stays open across a query's batches.
_PROGRAM_QUERY = "query"


def adopt(own: List[Span], records: Iterable[dict],
          origin: float) -> List[Span]:
    """The benchmark's spans plus the program's, as one tree.

    ``records`` are the program tracer's span records (``id``,
    ``parent``, ``ts`` relative to ``origin``, ``elapsed_s``).  A
    program span without a parent hangs under the innermost benchmark
    span that was open while it ran.  The program's ``query`` span
    stays open while the consumer thinks between two batches, so it is
    not a layer: it is dropped and its children hang where it would
    have.
    """
    leaves = _leaves(own)
    starts = [span.start for span in leaves]
    dropped = set()
    adopted: List[Span] = []
    for rec in records:
        if rec.get("type") != "span":
            continue
        if rec["name"] == _PROGRAM_QUERY:
            dropped.add(rec["id"])
            continue
        start = origin + rec["ts"]
        adopted.append(Span(
            id=("p", rec["id"]), name=rec["name"], start=start,
            end=start + rec["elapsed_s"], parent=rec.get("parent"),
            attrs=rec.get("attrs"),
        ))
    for span in adopted:
        if span.parent is None or span.parent in dropped:
            host = _host(leaves, starts, span)
            span.parent = host.id if host is not None else None
            span.query = host.query if host is not None else None
        else:
            span.parent = ("p", span.parent)
    by_id = {span.id: span for span in adopted}
    for span in adopted:
        # Children are recorded before their parents (a record is
        # written when its span closes), so walk up for the query id.
        node = span
        while node.query is None and node.parent in by_id:
            node = by_id[node.parent]
        span.query = node.query
    return list(own) + adopted


def _leaves(spans: List[Span]) -> List[Span]:
    parents = {span.parent for span in spans}
    return sorted((s for s in spans if s.id not in parents),
                  key=lambda s: s.start)


def _host(leaves: List[Span], starts: List[float],
          span: Span, slack: float = 1e-6) -> Optional[Span]:
    i = bisect.bisect_right(starts, span.start + slack) - 1
    if i >= 0 and span.end <= leaves[i].end + slack:
        return leaves[i]
    return None
