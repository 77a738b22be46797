"""Observability: structured tracing, metrics and profiling hooks.

The online-execution claims of the paper — per-batch latency, the size
of the uncertain set, the cost of guard-violation rebuilds — are claims
about *where time and rows go per mini-batch*.  This package gives every
engine component one cheap, injectable instrumentation surface:

* :class:`Tracer` — hierarchical wall-clock spans (query → batch →
  lineage-block → phase) plus point events, fanned out to a
  :class:`TraceSink`;
* :class:`MetricsRegistry` — counters, gauges and histograms with
  mergeable snapshots;
* three sinks behind one interface: :class:`NullSink` (the default;
  near-zero overhead — every record site is guarded by a cheap
  ``enabled`` check), :class:`JsonlSink` (an event log for
  ``python -m repro report``), and :class:`AggregatingSink` (in-memory
  per-span statistics the console renders live);
* :func:`load_events` / :func:`render_profile` — turn a JSONL event log
  back into per-phase / per-operator profile tables;
* :mod:`repro.obs.live` — bounded log-bucketed quantile histograms
  (:class:`LogBuckets`), the store behind every registry histogram and
  the serve layer's ``/metrics`` buckets.

There is no process-wide tracer: a run is traced only through the
tracer its session is given or the one its config asks for
(:func:`tracer_from_config`), so tests and concurrent sessions stay
isolated.
"""

from .live import (
    BUCKETS_PER_OCTAVE,
    GROWTH,
    LogBuckets,
    bucket_key,
    bucket_upper_edge,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)
from .report import (
    ProfileReport,
    build_profile,
    load_events,
    render_profile,
    render_recovery,
)
from .sinks import AggregatingSink, JsonlSink, NullSink, TeeSink, TraceSink
from .tracer import (
    NULL_TRACER,
    Span,
    Timer,
    Tracer,
    tracer_from_config,
)

__all__ = [
    "AggregatingSink",
    "BUCKETS_PER_OCTAVE",
    "Counter",
    "GROWTH",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "JsonlSink",
    "LogBuckets",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_TRACER",
    "NullSink",
    "ProfileReport",
    "Span",
    "TeeSink",
    "Timer",
    "TraceSink",
    "Tracer",
    "bucket_key",
    "bucket_upper_edge",
    "build_profile",
    "load_events",
    "render_profile",
    "render_recovery",
    "tracer_from_config",
]
