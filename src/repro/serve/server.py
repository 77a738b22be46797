"""HTTP/JSON front end for the query scheduler (stdlib only).

Exposes a :class:`QueryScheduler` over a small REST surface so any HTTP
client can submit G-OLA queries and watch their estimates refine live:

* ``POST /query`` — submit; body ``{"sql": ..., "priority"?,
  "deadline_s"?, "target_rsd"?, "config"? : {field: value}, "faults"? :
  {field: value}}``; returns ``201`` with the query id and URLs.
* ``GET /query/<id>/snapshots`` — the progressive result as an NDJSON
  stream: one JSON snapshot record per mini-batch (replayed from the
  start, then live), terminated by one ``{"type": "end", ...}`` record.
* ``GET /query/<id>/status`` — current state/estimate summary.
* ``DELETE /query/<id>`` — cancel.
* ``GET /queries`` — every known query's status.
* ``GET /metrics`` — the shared metrics registry in Prometheus text
  exposition format (counters, gauges, cumulative log-bucket
  histograms; a scraper derives windowed rates and quantiles).
* ``GET /metrics.json`` — the same registry as JSON (counters/gauges
  plus per-histogram summaries), for ad-hoc scripting.
* ``GET /healthz`` — liveness plus scheduler stats (state ``serving``
  or ``draining``, uptime, query counts, cache stats).

Streaming uses HTTP/1.0 semantics (no ``Content-Length``, connection
close marks end-of-stream) so no chunked-encoding code is needed; each
connection runs on its own :class:`ThreadingHTTPServer` thread, and
backpressure from a slow client only ever drops that client's queued
records (see :class:`~repro.serve.stream.SnapshotStream`), never the
scheduler's progress.

Error mapping: bad SQL/parameters → 400, unknown id → 404, DELETE of an
already-terminal query → 409, admission refused → 429, draining /
snapshots of a quarantined (failed) query → 503.  Backpressure responses
(429 and the draining 503) carry a ``Retry-After`` header derived from
queue depth and drain state (:meth:`QueryScheduler.retry_after_hint`).
"""

from __future__ import annotations

import dataclasses
import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..config import FaultsConfig, GolaConfig, ServeConfig
from ..errors import (
    AdmissionError,
    BindError,
    ParseError,
    PlanError,
)
from .scheduler import FAILED, DrainingError, QueryScheduler
from .telemetry import PROMETHEUS_CONTENT_TYPE, render_prometheus

_CONFIG_FIELDS = {
    f.name: str(f.type) for f in dataclasses.fields(GolaConfig)
}
_FAULT_FIELDS = {
    f.name: str(f.type) for f in dataclasses.fields(FaultsConfig)
}


def _finite_or_none(value: float) -> Optional[float]:
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        return None
    return value


def _typed(kind: str, name: str, ftype: str, value):
    """A JSON request value checked against its field's declared type.

    A bool is not an int; an int is a valid float (and becomes one).
    Raises ValueError (HTTP 400) on a mismatch, so a mistyped value never
    reaches the scheduler thread.
    """
    if "bool" in ftype:
        ok = isinstance(value, bool)
    elif "int" in ftype:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif "float" in ftype:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        value = float(value) if ok else value
    else:
        ok = isinstance(value, str)
    if not ok:
        raise ValueError(
            f"{kind} field {name!r} must be {ftype}, "
            f"not {type(value).__name__}"
        )
    return value


def _apply_overrides(config: GolaConfig, overrides: dict,
                     faults: Optional[dict]) -> GolaConfig:
    """A per-query GolaConfig from JSON overrides of simple fields."""
    changes = {}
    for name, value in (overrides or {}).items():
        if name not in _CONFIG_FIELDS or name in ("faults", "parallel"):
            raise ValueError(f"unknown config field {name!r}")
        changes[name] = _typed("config", name, _CONFIG_FIELDS[name], value)
    if faults:
        fchanges = {}
        for name, value in faults.items():
            if name not in _FAULT_FIELDS:
                raise ValueError(f"unknown faults field {name!r}")
            fchanges[name] = _typed("faults", name, _FAULT_FIELDS[name],
                                    value)
        changes["faults"] = dataclasses.replace(config.faults, **fchanges)
    if not changes:
        return config
    return dataclasses.replace(config, **changes)


class _Handler(BaseHTTPRequestHandler):
    """One request; ``self.server.scheduler`` is the shared scheduler."""

    server_version = "repro-gola/1.0"

    # -- plumbing --------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # HTTP access logging would drown the trace/metrics output

    def _send_json(self, code: int, payload: dict,
                   retry_after: Optional[int] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, code: int, exc: Exception,
                         retry_after: Optional[int] = None) -> None:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if retry_after is not None:
            payload["retry_after_s"] = retry_after
        self._send_json(code, payload, retry_after=retry_after)

    def _fail(self, exc: Exception) -> None:
        # Backpressure responses (429/503) carry Retry-After so clients
        # can pace resubmission instead of hammering: derived from queue
        # depth when at capacity, from the drain window when draining.
        if isinstance(exc, (ParseError, BindError, PlanError, ValueError)):
            self._send_error_json(400, exc)
        elif isinstance(exc, KeyError):
            self._send_json(404, {"error": "NotFound",
                                  "message": str(exc).strip("'\"")})
        elif isinstance(exc, DrainingError):
            # Shutting down: retry only after the drain window, against
            # whatever replaces this process.
            self._send_error_json(
                503, exc,
                retry_after=self.server.scheduler.retry_after_hint(),
            )
        elif isinstance(exc, AdmissionError):
            self._send_error_json(
                429, exc,
                retry_after=self.server.scheduler.retry_after_hint(),
            )
        else:
            # Anything unmapped is the server's own fault: answer it
            # rather than drop the connection.
            self._send_error_json(500, exc)

    # -- routes ----------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        if self.path.rstrip("/") != "/query":
            self._send_json(404, {"error": "NotFound", "message": self.path})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            try:
                body = json.loads(self.rfile.read(length) or b"{}")
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid JSON body: {exc}")
            if not isinstance(body, dict) or not body.get("sql"):
                raise ValueError('body must be JSON with a "sql" field')
            scheduler = self.server.scheduler
            config = _apply_overrides(
                scheduler.session.config,
                body.get("config") or {}, body.get("faults"),
            )
            limits = {
                key: _typed("request", key, "float", body[key])
                for key in ("deadline_s", "target_rsd")
                if body.get(key) is not None
            }
            run = scheduler.submit(
                str(body["sql"]),
                config=config,
                priority=_typed("request", "priority", "int",
                                body.get("priority", 1)),
                **limits,
            )
        except Exception as exc:  # mapped to an HTTP status above
            self._fail(exc)
            return
        self._send_json(201, {
            "id": run.id,
            "state": run.state,
            "status_url": f"/query/{run.id}/status",
            "snapshots_url": f"/query/{run.id}/snapshots",
        })

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        scheduler = self.server.scheduler
        path = self.path.rstrip("/") or "/"
        try:
            if path == "/healthz":
                self._send_json(200, self._health_body(scheduler))
            elif path == "/queries":
                self._send_json(200, {"queries": scheduler.queries()})
            elif path == "/metrics":
                self._send_prometheus(scheduler)
            elif path == "/metrics.json":
                snap = scheduler.metrics_snapshot()
                self._send_json(200, {
                    "counters": dict(snap.counters),
                    "gauges": dict(snap.gauges),
                    "histograms": {
                        name: {
                            "count": h.count,
                            "mean": None if h.mean != h.mean else h.mean,
                            "p50": _finite_or_none(h.quantile(0.50)),
                            "p95": _finite_or_none(h.quantile(0.95)),
                            "p99": _finite_or_none(h.quantile(0.99)),
                        }
                        for name, h in snap.histograms.items()
                    },
                })
            elif path.startswith("/query/") and path.endswith("/status"):
                qid = path[len("/query/"):-len("/status")]
                self._send_json(200, scheduler.status(qid))
            elif path.startswith("/query/") and path.endswith("/snapshots"):
                qid = path[len("/query/"):-len("/snapshots")]
                run = scheduler.get(qid)  # KeyError -> 404
                if run.state == FAILED:
                    # A quarantined (crashed) query degrades to a 503 on
                    # *its* stream; the server and every other query's
                    # stream stay up.  No Retry-After — the failure is
                    # permanent for this query id.
                    self._send_json(503, {
                        "error": "QueryFailed",
                        "message": run.error or "query failed",
                        "id": run.id,
                        "state": run.state,
                    })
                else:
                    self._stream_ndjson(scheduler.subscribe(qid))
            else:
                self._send_json(404, {"error": "NotFound", "message": path})
        except Exception as exc:
            self._fail(exc)

    def _health_body(self, scheduler: QueryScheduler) -> dict:
        stats = scheduler.stats()
        body = {
            "ok": True,
            "state": "draining" if stats["draining"] else "serving",
            "scheduler": stats,
        }
        started = getattr(self.server, "started_at", None)
        if started is not None:
            body["uptime_s"] = round(time.monotonic() - started, 3)
        return body

    def _send_prometheus(self, scheduler: QueryScheduler) -> None:
        text = render_prometheus(scheduler.metrics_snapshot())
        body = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib casing
        path = self.path.rstrip("/")
        if not path.startswith("/query/"):
            self._send_json(404, {"error": "NotFound", "message": path})
            return
        qid = path[len("/query/"):]
        try:
            run = self.server.scheduler.get(qid)  # KeyError -> 404
            if run.is_terminal:
                # Cancelling a finished/cancelled query is a conflict,
                # not a server error — report it cleanly.
                self._send_json(409, {
                    "error": "AlreadyFinished",
                    "message": f"query {qid} is already {run.state}",
                    "state": run.state,
                })
                return
            status = self.server.scheduler.cancel(qid)
        except Exception as exc:
            self._fail(exc)
            return
        self._send_json(200, status)

    def _stream_ndjson(self, subscription) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for record in subscription:
                line = json.dumps(record, sort_keys=True) + "\n"
                self.wfile.write(line.encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; the generator's finally unsubscribes
        finally:
            subscription.close()


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, scheduler: QueryScheduler):
        super().__init__(address, handler)
        self.scheduler = scheduler


class GolaServer:
    """The serving process: one scheduler behind a threaded HTTP server.

    ``port=0`` binds an ephemeral port (read it back from ``.port`` after
    :meth:`start` — how the tests and the smoke CI job avoid clashes).
    """

    def __init__(self, scheduler: QueryScheduler,
                 host: Optional[str] = None, port: Optional[int] = None):
        serve: ServeConfig = scheduler.serve
        self.scheduler = scheduler
        self.host = host if host is not None else serve.host
        self.port = port if port is not None else serve.port
        self._httpd: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None
        self.started_at: Optional[float] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "GolaServer":
        """Bind, start the scheduler loop and serve in the background."""
        if self._httpd is not None:
            return self
        self.scheduler.start()
        self._httpd = _Server((self.host, self.port), _Handler,
                              self.scheduler)
        self._httpd.started_at = time.monotonic()
        self.started_at = self._httpd.started_at
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self, ready=None) -> None:
        """Start and block until SIGTERM/SIGINT, then shut down
        gracefully: stop admissions, drain in-flight queries (up to
        ``serve.drain_timeout_s``), close streams, release pools.

        Signal handlers are installed only when running on the main
        thread (the CLI path) and restored on exit; elsewhere (tests,
        embedding) a plain KeyboardInterrupt still triggers the same
        graceful path.  ``ready`` (if given) is called once the server
        is listening *and* the handlers are installed — anything the
        caller announces from it (a "serving on ..." banner, a pid
        file) is therefore a safe signal to start sending SIGTERM.
        """
        self.start()
        stop = threading.Event()
        installed: dict = {}
        if threading.current_thread() is threading.main_thread():
            def _request_stop(signum, frame):
                stop.set()
            for signum in (signal.SIGTERM, signal.SIGINT):
                installed[signum] = signal.signal(signum, _request_stop)
        if ready is not None:
            ready()
        try:
            # A polled wait: Event.wait(None) can block signal delivery
            # on some platforms; short waits keep handlers responsive.
            while not stop.is_set():
                stop.wait(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            for signum, previous in installed.items():
                signal.signal(signum, previous)
            self.shutdown(drain=True)

    def shutdown(self, drain: bool = False) -> None:
        """Stop accepting, end streams, cancel queries, release pools.

        With ``drain=True`` the scheduler first refuses new admissions
        and in-flight queries get ``serve.drain_timeout_s`` to finish
        refining — while the HTTP server stays up, so clients holding
        snapshot streams see them end cleanly — before anything is
        cancelled.
        """
        if drain and self._httpd is not None:
            self.scheduler.drain(
                timeout_s=self.scheduler.serve.drain_timeout_s
            )
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.scheduler.close()

    def __enter__(self) -> "GolaServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()
