"""Hierarchical spans, point events and the one shared clock path.

Span hierarchy mirrors the execution model: ``query`` → ``batch`` →
``block`` → ``phase:*`` / ``op:*``.  A disabled tracer (the default)
hands back one shared no-op span, so instrumented hot paths pay a single
attribute check per record site.

The :class:`Timer` here is *the* clock path for every component that
reports elapsed seconds — the G-OLA controller, the CDM and batch
baselines — so cross-engine time ratios (Figure 3(b)) come from one
measurement discipline rather than ad-hoc ``perf_counter()`` bracketing.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import List, Optional

from .metrics import MetricsRegistry
from .sinks import (
    NULL_SINK,
    AggregatingSink,
    JsonlSink,
    TeeSink,
    TraceSink,
)


class Timer:
    """Context-manager stopwatch over the shared monotonic clock.

    Usable standalone (the baselines' timing bracket) or via
    :meth:`Tracer.timer`::

        with Timer() as t:
            work()
        print(t.elapsed_s)
    """

    __slots__ = ("started", "_stopped")

    def __init__(self) -> None:
        self.started = 0.0
        self._stopped: Optional[float] = None

    def __enter__(self) -> "Timer":
        self.started = time.perf_counter()
        self._stopped = None
        return self

    def __exit__(self, *exc) -> None:
        self._stopped = time.perf_counter()

    @property
    def elapsed_s(self) -> float:
        """Seconds since start; freezes once the context exits."""
        end = self._stopped
        if end is None:
            end = time.perf_counter()
        return end - self.started


class Span:
    """One timed region; records itself to the sink on exit."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id",
                 "start_ts", "elapsed_s")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.start_ts = 0.0
        self.elapsed_s = 0.0

    def set(self, key: str, value) -> None:
        """Attach/overwrite one attribute (visible in the record)."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.span_id = tracer._alloc_id()
        stack = tracer._stack
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self.start_ts = time.perf_counter() - tracer.origin
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        self.elapsed_s = (
            time.perf_counter() - tracer.origin - self.start_ts
        )
        stack = tracer._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        tracer._emit({
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "ts": round(self.start_ts, 9),
            "elapsed_s": self.elapsed_s,
            "attrs": self.attrs,
        })


class _NullSpan:
    """Shared do-nothing span for disabled tracers."""

    __slots__ = ()
    elapsed_s = 0.0

    def set(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Emits spans/events to one sink; owns a :class:`MetricsRegistry`.

    ``tracer.enabled`` is the one cheap check every record site guards
    with; when False, :meth:`span` returns a shared no-op and
    :meth:`event` returns immediately.

    Thread-aware: the open-span stack is thread-local (each thread
    nests its own spans), while id allocation and sink emission are
    serialized behind one lock so concurrent spans interleave safely in
    the event stream.  :meth:`scoped_parent` parents a run of spans
    under a span opened earlier.
    """

    def __init__(self, sink: Optional[TraceSink] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.sink = sink if sink is not None else NULL_SINK
        self.enabled = self.sink.enabled
        self.metrics = (
            metrics if metrics is not None
            else MetricsRegistry(enabled=self.enabled)
        )
        self.origin = time.perf_counter()
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _alloc_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _emit(self, record: dict) -> None:
        with self._lock:
            self.sink.emit(record)

    @contextmanager
    def scoped_parent(self, parent_id: Optional[int]):
        """Run this thread's spans as children of ``parent_id``.

        Each controller step enters its query span's scope, so a
        scheduler interleaving many queries on one thread nests every
        query's spans under that query's own span.
        """
        stack = self._stack
        saved = list(stack)
        stack[:] = [parent_id] if parent_id is not None else []
        try:
            yield
        finally:
            stack[:] = saved

    # -- recording -------------------------------------------------------

    def span(self, name: str, **attrs):
        """A timed child region of whatever span is currently open."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """A point-in-time record under the currently open span."""
        if not self.enabled:
            return
        stack = self._stack
        self._emit({
            "type": "event",
            "name": name,
            "parent": stack[-1] if stack else None,
            "ts": round(time.perf_counter() - self.origin, 9),
            "attrs": attrs,
        })

    def timer(self) -> Timer:
        """A standalone stopwatch on the shared clock path."""
        return Timer()

    def close(self) -> None:
        """Flush and close the sink (idempotent)."""
        self.sink.close()


#: The always-available disabled tracer; safe to share everywhere.
NULL_TRACER = Tracer(NULL_SINK)


def tracer_from_config(config) -> Tracer:
    """Build the tracer a :class:`~repro.config.GolaConfig` asks for.

    ``trace_path`` adds a JSONL event log; ``trace`` (or any path)
    enables in-memory aggregation for live rendering; ``metrics`` turns
    on the registry even without span sinks.  With everything off it
    returns :data:`NULL_TRACER`.
    """
    trace = bool(getattr(config, "trace", False))
    trace_path = getattr(config, "trace_path", None)
    metrics_on = bool(getattr(config, "metrics", False))
    if not trace and trace_path is None:
        if metrics_on:
            return Tracer(NULL_SINK, metrics=MetricsRegistry(enabled=True))
        return NULL_TRACER
    sinks: List[TraceSink] = [AggregatingSink()]
    if trace_path is not None:
        rotate_mb = float(getattr(config, "trace_rotate_mb", 0.0) or 0.0)
        sinks.append(JsonlSink(
            str(trace_path), max_bytes=int(rotate_mb * 2 ** 20),
        ))
    sink = sinks[0] if len(sinks) == 1 else TeeSink(*sinks)
    return Tracer(sink, metrics=MetricsRegistry(enabled=True))
