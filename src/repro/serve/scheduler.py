"""The concurrent multi-query scheduler.

One :class:`QueryScheduler` turns a :class:`~repro.core.session.
GolaSession` into a multi-tenant service: it admits queries, builds one
:class:`~repro.core.controller.QueryController` per query, and drives
them *cooperatively* — a single scheduler thread interleaves mini-batch
:meth:`~repro.core.controller.QueryController.step` calls across all
running queries under a deficit round-robin policy, so every client sees
its estimate refine every few seconds even under heavy concurrency
(PF-OLA's shared-engine OLA, Wake/Deep-OLA's progressive serving).

Why cooperative, single-threaded stepping (plus the session's
``repro.parallel`` pool *inside* a step) rather than one thread per
query:

* **determinism** — each controller keeps its own RNG streams and block
  state, and its step sequence is exactly what a serial run would
  execute, so every query's snapshot stream is bit-identical to running
  it alone (the property the acceptance tests pin);
* **isolation** — a query that crashes mid-step is *quarantined*:
  finalized with its error and released, while every other query keeps
  refining;
* **control** — admission (slots, queue depth),
  per-query deadlines, pause/resume and cancellation are all decided at
  step boundaries, where no partial batch state can be corrupted.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Dict, Iterator, List, Optional, Union

from ..config import GolaConfig, ServeConfig
from ..core.result import OnlineSnapshot
from ..core.session import GolaSession, OnlineQuery
from ..errors import AdmissionError
from ..obs import MetricsRegistry, Tracer, tracer_from_config
from .stream import SnapshotStream, encode_snapshot
from .telemetry import relative_half_width

#: Lifecycle states of a scheduled query.
QUEUED = "queued"
RUNNING = "running"
PAUSED = "paused"
DONE = "done"
CANCELLED = "cancelled"
FAILED = "failed"
EXPIRED = "expired"

#: States a query never leaves.
TERMINAL_STATES = frozenset({DONE, CANCELLED, FAILED, EXPIRED})

#: Finished queries kept readable (status, stream replay); older ones
#: are forgotten in finish order, so a long-lived server's registry
#: holds every live query plus at most this many finished.
MAX_FINISHED_QUERIES = 64

#: Relative CI half-width at which a query's answer counts as converged
#: (``serve.convergence_seconds`` records submission to ±1 %).
CONVERGED_REL_WIDTH = 0.01


class DrainingError(AdmissionError):
    """Submission refused because the scheduler is draining for shutdown.

    A subclass of :class:`AdmissionError` so existing 429 handling still
    applies, but the HTTP layer maps it to 503 (the server is going
    away — retrying against this process is pointless)."""


class ScheduledQuery:
    """One admitted query's lifecycle, stream and bookkeeping.

    Handles are returned by :meth:`QueryScheduler.submit`; all mutation
    happens on the scheduler, treat the fields as read-only.
    """

    def __init__(self, qid: str, online: OnlineQuery, sql: str,
                 config: GolaConfig, priority: int, deadline_s: float,
                 target_rsd: Optional[float], stream: SnapshotStream):
        self.id = qid
        self.online = online
        self.sql = sql
        self.config = config
        self.priority = priority
        self.deadline_s = deadline_s
        self.target_rsd = target_rsd
        self.stream = stream
        self.state = QUEUED
        self.controller = None
        self.deficit = 0.0
        self.cancel_requested = False
        self.error: Optional[str] = None
        self.reason: Optional[str] = None
        self.batches_done = 0
        self.snapshots: List[OnlineSnapshot] = []
        self.last_snapshot: Optional[OnlineSnapshot] = None
        self.submitted_ts = time.time()
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Seconds from submission to the first snapshot, and to the
        #: first snapshot within ±``CONVERGED_REL_WIDTH``.
        self.first_answer_s: Optional[float] = None
        self.converged_s: Optional[float] = None
        self.done_event = threading.Event()

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def elapsed_s(self) -> float:
        if self.started_at is None:
            return 0.0
        end = self.finished_at
        if end is None:
            end = time.monotonic()
        return end - self.started_at

    def status(self) -> dict:
        """A JSON-ready status summary (the ``/query/<id>/status`` body)."""
        info = {
            "id": self.id,
            "sql": self.sql,
            "state": self.state,
            "priority": self.priority,
            "deadline_s": self.deadline_s or None,
            "target_rsd": self.target_rsd,
            "batches_done": self.batches_done,
            "num_batches": self.config.num_batches,
            "snapshots": len(self.snapshots),
            "dropped_snapshots": self.stream.dropped,
            "error": self.error,
            "reason": self.reason,
            "submitted_ts": self.submitted_ts,
            "elapsed_s": round(self.elapsed_s, 6),
        }
        last = self.last_snapshot
        if last is not None:
            try:
                rsd = last.relative_stdev
                info["estimate"] = last.estimate
                info["rel_stdev"] = None if rsd != rsd else rsd
            except ValueError:
                info["result_rows"] = last.table.num_rows
        return info

    def _end_record(self) -> dict:
        return {
            "type": "end",
            "query_id": self.id,
            "state": self.state,
            "batches_done": self.batches_done,
            "of": self.config.num_batches,
            "error": self.error,
            "reason": self.reason,
        }


class QueryScheduler:
    """Admits, prioritizes and cooperatively steps concurrent queries.

    All queries borrow the session's worker pools (the same ones its
    library queries use; the session, not the scheduler, closes them),
    share the session's :class:`~repro.core.store.BatchStore`
    (same-table queries reuse mini-batch partitions and weights) and one
    tracer/metrics registry; each keeps its own controller, RNG
    streams, shared-memory segment and snapshot stream,
    which is what makes concurrent output bit-identical to serial runs.
    """

    def __init__(self, session: GolaSession,
                 serve: Optional[ServeConfig] = None,
                 tracer: Optional[Tracer] = None):
        self.session = session
        self.serve = serve if serve is not None else ServeConfig()
        if tracer is not None:
            self.tracer = tracer
        elif session.tracer is not None:
            self.tracer = session.tracer
        else:
            built = tracer_from_config(session.config)
            if not built.metrics.enabled:
                # Scheduling metrics are always on; never mutate the
                # config-built tracer (it may be the shared NULL_TRACER).
                built = Tracer(metrics=MetricsRegistry(enabled=True))
            self.tracer = built
        self._cond = threading.Condition()
        self._queries: Dict[str, ScheduledQuery] = {}
        self._queue: "deque[ScheduledQuery]" = deque()
        self._running: List[ScheduledQuery] = []
        self._seq = itertools.count(1)
        self._thread: Optional[threading.Thread] = None
        self._shutdown = False
        self._draining = False
        self._completed = 0
        #: Ids of the retained finished queries, oldest finish first.
        self.completed_order: List[str] = []

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "QueryScheduler":
        """Launch the scheduler loop thread (idempotent)."""
        with self._cond:
            if self._shutdown:
                raise AdmissionError("scheduler is shut down")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="repro-scheduler", daemon=True
                )
                self._thread.start()
        return self

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting new queries; in-flight queries keep refining."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Graceful shutdown: refuse admissions, let in-flight queries
        finish for up to ``timeout_s``, then cancel the stragglers.

        Returns True when every query finished on its own (nothing was
        cancelled).  The scheduler stays usable for status/stream reads;
        call :meth:`close` afterwards to stop the loop.
        """
        self.begin_drain()
        clean = self.wait(timeout=timeout_s if timeout_s > 0 else 0.001)
        if not clean:
            for run in list(self._queries.values()):
                if not run.is_terminal:
                    self.cancel(run.id)
            self.wait(timeout=5.0)
        return clean

    def stats(self) -> dict:
        """Live scheduler counts (the ``/healthz`` body's core)."""
        with self._cond:
            by_state: Dict[str, int] = {}
            for run in self._queries.values():
                by_state[run.state] = by_state.get(run.state, 0) + 1
            info = {
                "queries": len(self._queries),
                "running": len(self._running),
                "queued": len(self._queue),
                "completed": self._completed,
                "by_state": by_state,
                "draining": self._draining,
                "shutdown": self._shutdown,
            }
        info["store"] = self.session.batch_store.stats
        return info

    def retry_after_hint(self) -> int:
        """Whole seconds a refused client should wait before retrying.

        Sent as the ``Retry-After`` header on 429/503.  Draining (or
        shut down): the full drain window — this process is going away,
        and after that long either a replacement is up or there is
        nothing to retry against.  At capacity: one second per *wave*
        of queued queries ahead of a new arrival (``queue_depth /
        max_concurrent`` rounded up), clamped to [1, 30] — coarse on
        purpose; its job is spreading thundering herds, not predicting
        service time.
        """
        with self._cond:
            if self._draining or self._shutdown:
                return max(1, int(self.serve.drain_timeout_s + 0.999))
            queued = len(self._queue)
        waves = 1 + queued // max(1, self.serve.max_concurrent)
        return min(30, max(1, waves))

    def close(self) -> None:
        """Stop the loop and cancel whatever is still live.  The worker
        pools are the session's: ``session.close()`` stops them."""
        with self._cond:
            if self._shutdown:
                return
            self._shutdown = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        # The loop is dead; finalizing on this thread is race-free now.
        with self._cond:
            for run in list(self._queue) + list(self._running):
                if not run.is_terminal:
                    self._finalize_locked(run, CANCELLED,
                                          reason="scheduler shutdown")
            self._queue.clear()

    def __enter__(self) -> "QueryScheduler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission and control -----------------------------------------

    def submit(self, sql: Union[str, OnlineQuery], *,
               config: Optional[GolaConfig] = None,
               priority: int = 1,
               deadline_s: Optional[float] = None,
               target_rsd: Optional[float] = None) -> ScheduledQuery:
        """Admit one query for concurrent online execution.

        Args:
            sql: SQL text (parsed/bound against the session catalog) or
                an already-bound :class:`OnlineQuery`.
            config: Per-query run configuration; defaults to the
                session's.  Its ``faults`` set this query's
                auto-checkpoints.
            priority: Deficit round-robin weight: a priority-2 query is
                granted twice the step credits per scheduling cycle of a
                priority-1 query (capped by ``max_steps_per_turn``).
            deadline_s: Seconds after its first step at which the query
                is finalized with its latest snapshot (state
                ``expired``); None uses ``serve.default_deadline_s``.
            target_rsd: Stop refining (state ``done``, reason
                ``target``) once the scalar answer's relative stdev
                reaches this — the OLA accuracy contract, served.

        Raises:
            AdmissionError: queue full or scheduler shut down.
            ParseError/BindError/...: the SQL is invalid.
        """
        if priority < 1:
            raise ValueError("priority must be >= 1")
        metrics = self.tracer.metrics
        online = (
            sql if isinstance(sql, OnlineQuery) else self.session.sql(sql)
        )
        run_config = config if config is not None else self.session.config
        if deadline_s is None:
            deadline_s = self.serve.default_deadline_s
        with self._cond:
            if self._shutdown:
                raise AdmissionError("scheduler is shut down")
            if self._draining:
                if metrics.enabled:
                    metrics.counter("scheduler.rejected").inc()
                raise DrainingError(
                    "scheduler is draining; not admitting new queries"
                )
            active = len(self._running)
            if (active >= self.serve.max_concurrent
                    and len(self._queue) >= self.serve.queue_depth):
                if metrics.enabled:
                    metrics.counter("scheduler.rejected").inc()
                raise AdmissionError(
                    f"at capacity: {active} running, "
                    f"{len(self._queue)} queued "
                    f"(queue_depth={self.serve.queue_depth})"
                )
            qid = f"q{next(self._seq)}"
            run = ScheduledQuery(
                qid, online, online.sql or online.plan_description,
                run_config, priority, float(deadline_s or 0.0),
                target_rsd, SnapshotStream(),
            )
            self._queries[qid] = run
            self._queue.append(run)
            if metrics.enabled:
                metrics.counter("serve.submitted").inc()
                metrics.gauge("scheduler.queue_depth").set(len(self._queue))
            if self.tracer.enabled:
                self.tracer.event("serve.submitted", query=qid,
                                  priority=priority)
            self._cond.notify_all()
        self.start()
        return run

    def get(self, qid: str) -> ScheduledQuery:
        run = self._queries.get(qid)
        if run is None:
            raise KeyError(f"unknown query id {qid!r}")
        return run

    def status(self, qid: str) -> dict:
        return self.get(qid).status()

    def queries(self) -> List[dict]:
        """Status summaries of every known query, in submission order."""
        with self._cond:
            runs = list(self._queries.values())
        return [run.status() for run in runs]

    def subscribe(self, qid: str) -> Iterator[dict]:
        """Iterate a query's snapshot records from the start, then live."""
        return self.get(qid).stream.subscribe()

    def cancel(self, qid: str, wait_s: float = 5.0) -> dict:
        """Request cancellation; returns the (usually final) status.

        Queued queries are finalized immediately; a running query is
        finalized by the scheduler thread at its next step boundary
        (waited for up to ``wait_s``).
        """
        run = self.get(qid)
        with self._cond:
            if run.is_terminal:
                return run.status()
            run.cancel_requested = True
            if run.controller is not None:
                run.controller.stop()
            if run.state == QUEUED:
                self._queue.remove(run)
                self._finalize_locked(run, CANCELLED)
                return run.status()
            self._cond.notify_all()
        run.done_event.wait(timeout=wait_s)
        return run.status()

    def pause(self, qid: str) -> dict:
        """Stop granting steps to a query (its deadline keeps ticking)."""
        run = self.get(qid)
        with self._cond:
            if run.state == RUNNING:
                run.state = PAUSED
                if self.tracer.metrics.enabled:
                    self.tracer.metrics.counter("scheduler.paused").inc()
        return run.status()

    def resume(self, qid: str) -> dict:
        run = self.get(qid)
        with self._cond:
            if run.state == PAUSED:
                run.state = RUNNING
                self._cond.notify_all()
        return run.status()

    def wait(self, qid: Optional[str] = None,
             timeout: Optional[float] = None) -> bool:
        """Block until one query (or all known queries) is terminal."""
        if qid is not None:
            return self.get(qid).done_event.wait(timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        for run in list(self._queries.values()):
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            if not run.done_event.wait(remaining):
                return False
        return True

    def metrics_snapshot(self):
        return self.tracer.metrics.snapshot()

    # -- the scheduling loop ---------------------------------------------

    def _loop(self) -> None:
        while True:
            with self._cond:
                if self._shutdown:
                    return
                self._promote_locked()
                targets = [
                    run for run in self._running
                    if run.state == RUNNING or run.cancel_requested
                    or self._deadline_exceeded(run)
                ]
                if not targets:
                    self._cond.wait(timeout=self._wait_timeout_locked())
                    continue
            for run in targets:
                self._visit(run)

    def _deadline_exceeded(self, run: ScheduledQuery) -> bool:
        return (
            run.deadline_s > 0.0 and run.started_at is not None
            and time.monotonic() - run.started_at > run.deadline_s
        )

    def _wait_timeout_locked(self) -> Optional[float]:
        """Sleep until notified, or until the nearest deadline can fire."""
        soonest = None
        now = time.monotonic()
        for run in self._running:
            if run.deadline_s > 0.0 and run.started_at is not None:
                remaining = run.started_at + run.deadline_s - now
                if soonest is None or remaining < soonest:
                    soonest = remaining
        if soonest is None:
            return None
        return max(0.01, soonest)

    def _promote_locked(self) -> None:
        """Move queued queries into run slots, FIFO."""
        serve = self.serve
        metrics = self.tracer.metrics
        while self._queue and len(self._running) < serve.max_concurrent:
            run = self._queue.popleft()
            if run.cancel_requested:
                self._finalize_locked(run, CANCELLED)
                continue
            try:
                run.controller = self.session._make_controller(
                    run.online.query, run.config, tracer=self.tracer,
                )
                run.controller.begin()
            except Exception as exc:  # any bad query fails alone
                run.error = f"{type(exc).__name__}: {exc}"
                self._finalize_locked(run, FAILED)
                continue
            run.state = RUNNING
            run.started_at = time.monotonic()
            self._running.append(run)
            if metrics.enabled:
                metrics.histogram("serve.queue_wait_seconds").observe(
                    run.started_at - run.submitted_at
                )
                metrics.counter("scheduler.admitted").inc()
                metrics.gauge("scheduler.running").set(len(self._running))
                metrics.gauge("scheduler.queue_depth").set(len(self._queue))
            if self.tracer.enabled:
                self.tracer.event("scheduler.admitted", query=run.id)

    def _visit(self, run: ScheduledQuery) -> None:
        """Grant one scheduling turn: up to ``deficit`` mini-batch steps."""
        run.deficit = min(
            run.deficit + run.priority, float(self.serve.max_steps_per_turn)
        )
        steps = int(run.deficit)
        for _ in range(steps):
            with self._cond:
                if run.is_terminal:
                    return
                if run.cancel_requested:
                    self._finalize_locked(run, CANCELLED)
                    return
                if self._deadline_exceeded(run):
                    self._finalize_locked(run, EXPIRED, reason="deadline")
                    return
                if run.state != RUNNING:
                    return  # paused since this turn was granted
            if not self._step(run):
                return
            run.deficit -= 1.0

    def _step(self, run: ScheduledQuery) -> bool:
        """Execute one mini-batch step; False ends this query's turn."""
        tracer = self.tracer
        metrics = tracer.metrics
        controller = run.controller
        step_started = time.perf_counter()
        try:
            with tracer.span("scheduler.step", query=run.id,
                             batch=run.batches_done + 1):
                snapshot = controller.step()
        except Exception as exc:  # a real crash: quarantine, don't spread
            self._quarantine(run, exc)
            return False
        step_s = time.perf_counter() - step_started
        if metrics.enabled:
            metrics.counter("scheduler.steps").inc()
        if snapshot is None:
            with self._cond:
                # controller.stop() during an in-flight step also lands
                # here; a requested cancel must not masquerade as done.
                self._finalize_locked(
                    run, CANCELLED if run.cancel_requested else DONE
                )
            return False
        run.batches_done = snapshot.batch_index
        run.snapshots.append(snapshot)
        run.last_snapshot = snapshot
        run.stream.publish(encode_snapshot(run.id, snapshot))
        if metrics.enabled:
            self._observe_answer(run, snapshot, step_s)
            metrics.counter("serve.snapshots").inc()
        reached_target = False
        if run.target_rsd is not None:
            try:
                rsd = snapshot.relative_stdev
                reached_target = rsd == rsd and rsd <= run.target_rsd
            except ValueError:
                reached_target = False
        if reached_target or controller.is_done:
            with self._cond:
                if run.cancel_requested:
                    self._finalize_locked(run, CANCELLED)
                else:
                    self._finalize_locked(
                        run, DONE,
                        reason="target" if reached_target else None,
                    )
            return False
        return True

    def _observe_answer(self, run: ScheduledQuery,
                        snapshot: OnlineSnapshot, step_s: float) -> None:
        """Record first-answer, convergence and step latencies."""
        metrics = self.tracer.metrics
        since_submit = time.monotonic() - run.submitted_at
        if run.first_answer_s is None:
            run.first_answer_s = since_submit
            metrics.histogram("serve.first_answer_seconds").observe(
                since_submit
            )
        if (run.converged_s is None
                and relative_half_width(snapshot) <= CONVERGED_REL_WIDTH):
            run.converged_s = since_submit
            metrics.histogram("serve.convergence_seconds").observe(
                since_submit
            )
        metrics.histogram("serve.step_seconds").observe(step_s)

    def _quarantine(self, run: ScheduledQuery, exc: Exception) -> None:
        """Isolate a crashed query; every other query keeps refining."""
        run.error = f"{type(exc).__name__}: {exc}"
        tracer = self.tracer
        if tracer.enabled:
            tracer.event("scheduler.quarantined", query=run.id,
                         error=run.error)
        if tracer.metrics.enabled:
            tracer.metrics.counter("scheduler.quarantined").inc()
        with self._cond:
            self._finalize_locked(run, FAILED)

    def _finalize_locked(self, run: ScheduledQuery, state: str,
                         reason: Optional[str] = None) -> None:
        """Move a query to a terminal state and release its memory."""
        if run.is_terminal:
            return
        run.state = state
        run.reason = reason
        run.finished_at = time.monotonic()
        if run in self._running:
            self._running.remove(run)
        if run.controller is not None:
            try:
                run.controller.release()
            except Exception:  # release must never take the loop down
                pass
        run.stream.close(final=run._end_record())
        self.completed_order.append(run.id)
        self._completed += 1
        if len(self.completed_order) > MAX_FINISHED_QUERIES:
            del self._queries[self.completed_order.pop(0)]
        metrics = self.tracer.metrics
        if metrics.enabled:
            metrics.counter(f"scheduler.{state}").inc()
            metrics.gauge("scheduler.running").set(len(self._running))
            metrics.gauge("scheduler.queue_depth").set(len(self._queue))
        if self.tracer.enabled:
            self.tracer.event("scheduler.finalized", query=run.id,
                              state=state, batches=run.batches_done)
        run.done_event.set()
        self._cond.notify_all()
