"""Concurrent multi-query serving: scheduler, HTTP streaming, metrics.

The paper's system serves *interactive analysis*: many analysts pointing
dashboards at one engine, each expecting their estimate to refine every
few seconds.  This package turns a single :class:`~repro.core.session.
GolaSession` into that shared service:

* :class:`QueryScheduler` — admits, prioritizes (deficit round-robin)
  and cooperatively interleaves mini-batch steps across concurrent
  online queries, with deadlines, pause/resume, cancellation and
  quarantine-on-crash; all queries share one worker pool and the
  session's :class:`~repro.core.store.BatchStore`;
* :class:`SnapshotStream` / :func:`encode_snapshot` — per-query
  replayable pub/sub snapshot records with non-blocking backpressure;
* :class:`GolaServer` — a stdlib HTTP/JSON front end streaming NDJSON
  (``python -m repro serve``), with graceful SIGTERM drain; the shared
  metrics registry, including the scheduler's queue-wait, step,
  first-answer and convergence histograms, is served at ``GET /metrics``
  (Prometheus text, :func:`render_prometheus`) and ``GET /metrics.json``.

The serve path's wall-clock benchmark is the ledger's ``serve_mix``
workload (``benchmarks/ledger/run.py``), which brings its own client.

Every query's snapshot stream is bit-identical to running it alone — the
scheduler multiplexes *scheduling*, never the per-query RNG streams or
block state.
"""

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
    PROMETHEUS_CONTENT_TYPE,
    relative_half_width,
    render_prometheus,
)

__all__ = [
    "DrainingError",
    "GolaServer",
    "PROMETHEUS_CONTENT_TYPE",
    "QueryScheduler",
    "ScheduledQuery",
    "SnapshotStream",
    "encode_snapshot",
    "relative_half_width",
    "render_prometheus",
    "QUEUED",
    "RUNNING",
    "PAUSED",
    "DONE",
    "CANCELLED",
    "FAILED",
    "EXPIRED",
    "TERMINAL_STATES",
]
