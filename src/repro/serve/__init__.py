"""Concurrent multi-query serving: scheduler, scan cache, HTTP streaming.

The paper's system serves *interactive analysis*: many analysts pointing
dashboards at one engine, each expecting their estimate to refine every
few seconds.  This package turns a single :class:`~repro.core.session.
GolaSession` into that shared service:

* :class:`QueryScheduler` — admits, prioritizes (deficit round-robin)
  and cooperatively interleaves mini-batch steps across concurrent
  online queries, with deadlines, pause/resume, cancellation and
  quarantine-on-crash; all queries share one worker pool and one
  :class:`BatchScanCache`;
* :class:`SnapshotStream` / :func:`encode_snapshot` — per-query
  replayable pub/sub snapshot records with non-blocking backpressure;
* :class:`GolaServer` — a stdlib HTTP/JSON front end streaming NDJSON
  (``python -m repro serve``), with graceful SIGTERM drain;
* :class:`ServeTelemetry` / :class:`QueryTelemetry` — live SLO
  histograms, sliding-window rates and per-query convergence streams
  behind ``GET /metrics`` (Prometheus text) and
  ``GET /queries/<id>/telemetry`` (NDJSON);
* :class:`LoadGenerator` — a seeded Poisson open/closed-loop load
  harness (``python -m repro loadgen``).  The serve path's wall-clock
  benchmark is the ledger's ``serve_mix`` workload
  (``benchmarks/ledger/run.py``), which brings its own client.

Every query's snapshot stream is bit-identical to running it alone — the
scheduler multiplexes *scheduling*, never the per-query RNG streams or
block state.
"""

from .cache import BatchScanCache, table_bytes
from .loadgen import LoadGenerator, LoadSpec
from .scheduler import (
    CANCELLED,
    DONE,
    EXPIRED,
    FAILED,
    PAUSED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    DrainingError,
    QueryScheduler,
    ScheduledQuery,
)
from .server import GolaServer
from .stream import SnapshotStream, encode_snapshot
from .telemetry import (
    EPSILONS,
    PROMETHEUS_CONTENT_TYPE,
    PrometheusFamily,
    QueryTelemetry,
    ServeTelemetry,
    parse_prometheus,
    relative_half_width,
    render_prometheus,
)

__all__ = [
    "BatchScanCache",
    "DrainingError",
    "EPSILONS",
    "GolaServer",
    "LoadGenerator",
    "LoadSpec",
    "PROMETHEUS_CONTENT_TYPE",
    "PrometheusFamily",
    "QueryScheduler",
    "QueryTelemetry",
    "ScheduledQuery",
    "ServeTelemetry",
    "SnapshotStream",
    "encode_snapshot",
    "parse_prometheus",
    "relative_half_width",
    "render_prometheus",
    "table_bytes",
    "QUEUED",
    "RUNNING",
    "PAUSED",
    "DONE",
    "CANCELLED",
    "FAILED",
    "EXPIRED",
    "TERMINAL_STATES",
]
