"""Supervised execution over :class:`~repro.parallel.pool.WorkerPool`.

The plain pool calls ``future.result()`` with no timeout and no crash
handling: one SIGKILLed worker poisons every pending future with
``BrokenProcessPool``, and one hung worker blocks the coordinator
forever.  G-OLA's contract is the opposite — a long-running approximate
query keeps making progress and keeps its error guarantees no matter
what the substrate does — so :class:`SupervisedPool` wraps the pool in
a recovery ladder:

1. **Deadlines** — a dispatch round that outlives its task deadline is
   declared hung; the pool is abandoned (workers killed — SIGKILL also
   reaps SIGSTOPed workers) and rebuilt.
2. **Crash detection** — ``BrokenProcessPool``/worker death breaks only
   the round: the pool is rebuilt and *only the lost tasks* are
   re-dispatched.  Shard payloads are stateless specs into a segment
   the batch's lease keeps live (weights included), so re-execution is
   bit-identical.
3. **Poison quarantine** — a task that fails ``retries`` pool attempts
   (crash, hang, or corrupt result) is quarantined and run serially on
   the coordinator, outside the pool.  Only if that *also* fails is the
   shard abandoned with :class:`~repro.errors.ShardLostError`, which the
   controller maps onto its skip-and-reweight degraded-snapshot path.
4. **Result integrity** — every worker result is validated before it is
   accepted (for fold shards: alias/type/shape/dtype/NaN-budget
   fingerprint, see :func:`validate_fold_shard`).  A corrupted result is
   rejected and the shard re-run instead of being silently folded into
   the estimate.

Every rung taken logs one WARNING on the ``repro.parallel`` logger
beside the counter it bumps.

Fault injection (``parallel.worker_kill`` / ``parallel.worker_hang`` /
``parallel.result_corrupt``) rides along inside the dispatched payloads:
the coordinator draws a deterministic per-task fault plan from the
seeded injector, and the *worker side* executes it — a real
``os.kill(os.getpid(), SIGKILL)``, a real oversleep, a real poisoned
array — so recovery is exercised end to end, not simulated.
"""

from __future__ import annotations

import logging
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor
from concurrent.futures import wait as futures_wait
from math import ceil
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import ExecutionError, ShardLostError
from ..faults import NULL_INJECTOR, RetryPolicy
from ..obs import NULL_TRACER
from .pool import WorkerPool
from .shm import resolve

logger = logging.getLogger("repro.parallel")

#: Worker-side stand-in for a result too mangled to poison in place.
CORRUPT_SENTINEL = "__repro-corrupted-result__"

#: Upper bound on one blocking wait slice: every wake-up bumps the
#: ``parallel.heartbeats`` counter, so liveness is observable even while
#: a round is in flight.
_HEARTBEAT_S = 1.0


class WorkerKilledError(ExecutionError):
    """Injected worker death on a backend where SIGKILL is unavailable
    (thread pools share the coordinator process)."""


def _supervised_call(payload):
    """Worker-side wrapper: execute one task under its fault directive.

    ``payload`` is ``(fn, task, directive)``; the directive (or None)
    was drawn by the coordinator from the seeded injector, so two runs
    with the same fault config misbehave identically:

    * ``kill="sigkill"`` — SIGKILL our own process (process pools);
    * ``kill="raise"`` — raise :class:`WorkerKilledError` (thread pools);
    * ``hang_s > 0`` — oversleep before running the task;
    * ``corrupt`` — run the task, then poison the result in flight.

    Module-level (not a closure) so process pools can pickle it.
    """
    fn, task, directive = payload
    if directive:
        kill = directive.get("kill")
        if kill == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif kill == "raise":
            raise WorkerKilledError("injected worker death")
        hang_s = directive.get("hang_s", 0.0)
        if hang_s > 0.0:
            time.sleep(hang_s)
    result = fn(task)
    if directive and directive.get("corrupt"):
        result = corrupt_result(result)
    return result


def corrupt_result(result):
    """Poison a task result the way a bad worker would: flip the first
    cell of the first per-group array to NaN (what the NaN-budget check
    exists to catch); results with no array to poison are replaced by
    :data:`CORRUPT_SENTINEL` (caught by the structural check)."""
    if isinstance(result, list):
        for item in result:
            if not (isinstance(item, tuple) and len(item) == 2):
                continue
            state = item[1]
            for arr in vars(state).values():
                if isinstance(arr, np.ndarray) and arr.size:
                    arr = np.asarray(arr)
                    arr.reshape(-1)[0] = np.nan
                    return result
    return CORRUPT_SENTINEL


def validate_fold_shard(payload: dict, result) -> Optional[str]:
    """Integrity fingerprint for one fold-shard result (None = valid).

    The worker was handed ``payload`` (see ``shards.run_fold_shard``)
    and must return ``[(alias, state), ...]`` matching the payload's
    alias list, each state of the shard's trial width, with per-group
    arrays of the expected shape/dtype, and NaN-free unless the input
    values themselves carried NaNs (the NaN *budget*: NaNs may flow
    through, never appear).  Anything else is a corrupted worker result
    and must be re-run, not merged.
    """
    expected = payload["aliases"]
    width = payload["hi"] - payload["lo"]
    if not isinstance(result, list) or len(result) != len(expected):
        return "result is not a per-alias state list"
    nan_allowed: Optional[bool] = None  # computed lazily; NaNs are rare
    for item, (alias, state_cls) in zip(result, expected):
        if not (isinstance(item, tuple) and len(item) == 2):
            return "malformed (alias, state) entry"
        got_alias, state = item
        if got_alias != alias:
            return f"alias mismatch: {got_alias!r} != {alias!r}"
        if type(state) is not state_cls:
            return (f"state type {type(state).__name__} != "
                    f"{state_cls.__name__}")
        if state.width != width:
            return f"state width {state.width} != shard width {width}"
        for name, arr in vars(state).items():
            if not isinstance(arr, np.ndarray):
                continue
            if arr.ndim != 2 or arr.shape != (state.num_groups, width):
                return (f"{alias}.{name} shape {arr.shape} != "
                        f"({state.num_groups}, {width})")
            if arr.dtype != np.float64:
                return f"{alias}.{name} dtype {arr.dtype} != float64"
            if np.isnan(arr).any():
                if nan_allowed is None:
                    # Values may arrive as shared-memory specs; resolve
                    # to the zero-copy view before inspecting them.
                    nan_allowed = any(
                        np.isnan(
                            np.asarray(resolve(v), dtype=np.float64)
                        ).any()
                        for v in payload["values"].values()
                    )
                if not nan_allowed:
                    return f"{alias}.{name} violates the NaN budget"
    return None


def _default_validate(payload, result) -> Optional[str]:
    if isinstance(result, str) and result == CORRUPT_SENTINEL:
        return "corrupted result payload"
    return None


class SupervisedPool:
    """Crash/hang/corruption-supervised ordered ``map`` over a pool.

    Drop-in for :class:`WorkerPool` where tasks are **stateless and
    re-executable** (the shard path).
    Bit-identity is preserved through every recovery action because a
    re-dispatched or quarantined task recomputes exactly the same
    deterministic function of its payload.
    """

    def __init__(self, workers: int, backend: str = "process", *,
                 deadline_s: float = 60.0, retries: int = 2,
                 injector=None, tracer=None,
                 validate: Optional[Callable[[object, object],
                                             Optional[str]]] = None,
                 backoff: Optional[RetryPolicy] = None,
                 start_method: str = "auto"):
        if backend not in ("process", "thread"):
            raise ValueError(f"unknown pool backend {backend!r}")
        self.workers = workers
        self.backend = backend
        self.start_method = start_method
        self.deadline_s = deadline_s
        self.retries = retries
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.validate = validate if validate is not None else \
            _default_validate
        self.backoff = backoff if backoff is not None else RetryPolicy(
            max_retries=retries
        )
        self._jitter = self.backoff.jitter_rng(
            getattr(self.injector, "seed", 0), "parallel.supervisor"
        )
        self._pool: Optional[WorkerPool] = None
        self.restarts = 0

    # -- pool lifecycle --------------------------------------------------

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(
                self.workers, backend=self.backend,
                metrics=self.tracer.metrics,
                start_method=self.start_method,
            )
        return self._pool

    def _rebuild_pool(self, why: str) -> None:
        """Abandon the current pool (killing its workers) and count it."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.abandon()
        self.restarts += 1
        logger.warning("worker pool restarted after %s (restart %d)",
                       why, self.restarts)
        if self.tracer.metrics.enabled:
            self.tracer.metrics.counter("parallel.restarts").inc()
        if self.tracer.enabled:
            self.tracer.event("parallel.pool_restarted", reason=why,
                              restarts=self.restarts)

    def worker_pids(self) -> List[int]:
        """Live worker PIDs (chaos harness targets; [] for threads)."""
        pool = self._pool
        return pool.worker_pids() if pool is not None else []

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- supervised map --------------------------------------------------

    def map(self, fn: Callable, tasks: Sequence) -> List:
        """Apply ``fn`` to every task, in task order, surviving worker
        death, hangs and corrupted results.  Raises
        :class:`ShardLostError` only when a task failed its whole
        recovery ladder (pool retries *and* the serial fallback)."""
        tasks = list(tasks)
        n = len(tasks)
        if n == 0:
            return []
        plans = self.injector.worker_faults(n)
        hang_s = getattr(self.injector.config, "worker_hang_s", 0.0)
        return self._map_with_plans(fn, tasks, plans, hang_s)

    def map_async(self, fn: Callable, tasks: Sequence
                  ) -> "SupervisedMapHandle":
        """Dispatch now, supervise in the background, gather later.

        The fault plans are drawn here, on the **caller** thread, so
        deferring the gather never reorders the injector's RNG draws —
        pipelined and eager runs misbehave (and therefore recover)
        identically.  The recovery ladder itself (heartbeats, rebuilds,
        re-dispatch, quarantine) runs on a daemon thread; ``.result()``
        re-raises :class:`ShardLostError` from the caller's context.
        """
        tasks = list(tasks)
        handle = SupervisedMapHandle()
        if not tasks:
            handle._finish(results=[])
            return handle
        plans = self.injector.worker_faults(len(tasks))
        hang_s = getattr(self.injector.config, "worker_hang_s", 0.0)

        def _supervise() -> None:
            try:
                handle._finish(
                    results=self._map_with_plans(fn, tasks, plans, hang_s)
                )
            except BaseException as exc:  # noqa: BLE001 - relayed
                handle._finish(exc=exc)

        threading.Thread(
            target=_supervise, name="repro-supervise", daemon=True
        ).start()
        return handle

    def _map_with_plans(self, fn: Callable, tasks: List, plans,
                        hang_s: float) -> List:
        """The recovery-ladder loop shared by :meth:`map`/:meth:`map_async`."""
        n = len(tasks)
        results: List = [None] * n
        settled = [False] * n
        attempts = [0] * n
        pending = list(range(n))
        round_no = 0
        with self.tracer.span("parallel.supervise", tasks=n,
                              backend=self.backend):
            while pending:
                if round_no > 0:
                    time.sleep(self.backoff.jittered_delay(
                        round_no - 1, self._jitter
                    ))
                failed = self._dispatch_round(
                    fn, tasks, plans, hang_s, attempts, results, settled,
                    pending,
                )
                for t in failed:
                    if attempts[t] > self.retries:
                        results[t] = self._quarantine(fn, tasks[t], t,
                                                      attempts[t])
                        settled[t] = True
                pending = [t for t in pending if not settled[t]]
                round_no += 1
        return results

    def _directive(self, plans: Dict[str, np.ndarray], task: int,
                   attempt: int, hang_s: float) -> Optional[dict]:
        """The injected misbehavior for this (task, attempt), if any."""
        directive = {}
        if attempt < plans["kill"][task]:
            directive["kill"] = (
                "sigkill" if self.backend == "process" else "raise"
            )
        elif attempt < plans["hang"][task]:
            directive["hang_s"] = hang_s
        if attempt < plans["corrupt"][task]:
            directive["corrupt"] = True
        return directive or None

    def _round_deadline_s(self, num_tasks: int) -> Optional[float]:
        """Wall budget for one dispatch round.

        Tasks queue behind ``workers`` slots, so a round of ``m`` tasks
        legitimately needs up to ``ceil(m / workers)`` task deadlines;
        a *single* hung worker is still caught within one task deadline
        of its own dispatch, which is the bound the integration test
        pins (at one task per worker the budget *is* the deadline).
        """
        if self.deadline_s <= 0:
            return None
        return self.deadline_s * ceil(num_tasks / self.workers)

    def _dispatch_round(self, fn, tasks, plans, hang_s, attempts,
                        results, settled, pending) -> List[int]:
        """Dispatch every pending task once; settle what succeeds.

        Returns the task indices that failed this round (attempt
        counters already bumped).  Any breakage — worker death, hang
        past the deadline — abandons the pool so the next round starts
        on a fresh one.
        """
        tracer = self.tracer
        metrics = tracer.metrics
        executor = self._ensure_pool().executor()
        futures = {}
        try:
            for t in pending:
                payload = (fn, tasks[t],
                           self._directive(plans, t, attempts[t], hang_s))
                futures[executor.submit(_supervised_call, payload)] = t
        except BrokenExecutor:
            # A worker from the *previous* round died and its death was
            # only detected now; the whole round is lost before it
            # started.  Same treatment as a mid-round break: bump every
            # pending task (progress must be guaranteed — quarantine's
            # serial fallback stays correct) and rebuild.
            for t in pending:
                attempts[t] += 1
            logger.warning("worker lost before submit; re-dispatching %d "
                           "task(s)", len(pending))
            if metrics.enabled:
                metrics.counter("parallel.worker_lost").inc()
                metrics.counter("parallel.redispatched").inc(len(pending))
            if tracer.enabled:
                tracer.event("parallel.pool_broken", lost=len(pending),
                             at="submit")
            self._rebuild_pool("worker death at submit")
            return list(pending)
        deadline = self._round_deadline_s(len(pending))
        expires = None if deadline is None else time.monotonic() + deadline
        not_done = set(futures)
        failed: List[int] = []
        broken = False
        while not_done and not broken:
            slice_s = _HEARTBEAT_S
            if expires is not None:
                slice_s = min(slice_s, max(0.0, expires - time.monotonic()))
            done, not_done = futures_wait(
                not_done, timeout=slice_s, return_when=FIRST_COMPLETED
            )
            if metrics.enabled:
                metrics.counter("parallel.heartbeats").inc()
            for future in done:
                t = futures[future]
                exc = future.exception()
                if exc is None:
                    result = future.result()
                    error = self.validate(tasks[t], result)
                    if error is None:
                        results[t] = result
                        settled[t] = True
                        continue
                    attempts[t] += 1
                    failed.append(t)
                    logger.warning("task %d result rejected (%s); "
                                   "re-dispatching", t, error)
                    if metrics.enabled:
                        metrics.counter("parallel.corrupt_results").inc()
                    if tracer.enabled:
                        tracer.event("parallel.result_rejected", task=t,
                                     error=error)
                elif isinstance(exc, BrokenExecutor):
                    # A worker died; every sibling future is (or will
                    # be) poisoned too.  Keep scanning this batch so
                    # results that landed before the crash still settle,
                    # then rebuild below.
                    broken = True
                else:
                    attempts[t] += 1
                    failed.append(t)
                    logger.warning("task %d failed (%s: %s); re-dispatching",
                                   t, type(exc).__name__, exc)
                    if metrics.enabled:
                        metrics.counter("parallel.task_failures").inc()
                    if tracer.enabled:
                        tracer.event(
                            "parallel.task_failed", task=t,
                            error=f"{type(exc).__name__}: {exc}",
                        )
            if broken or (not_done and expires is not None
                          and time.monotonic() >= expires):
                break
        if broken:
            # Which task actually took the worker down is unknowable —
            # every unsettled task in the round is poisoned with the
            # same BrokenProcessPool — so all of them take an attempt
            # bump.  That guarantees a repeat killer eventually exhausts
            # its injected plan (or quarantines); innocents that get
            # dragged to quarantine still produce bit-identical results
            # through the serial fallback.
            lost = [t for t in pending
                    if not settled[t] and t not in failed]
            for t in lost:
                attempts[t] += 1
                failed.append(t)
            logger.warning("worker lost mid-round; re-dispatching %d "
                           "task(s)", len(lost))
            if metrics.enabled:
                metrics.counter("parallel.worker_lost").inc()
                metrics.counter("parallel.redispatched").inc(len(lost))
            if tracer.enabled:
                tracer.event("parallel.pool_broken", lost=len(lost))
            self._rebuild_pool("worker death")
        elif not_done:
            # Deadline expiry: the still-running tasks are hung.
            lost = [futures[f] for f in not_done
                    if not settled[futures[f]] and futures[f] not in failed]
            for t in lost:
                attempts[t] += 1
                failed.append(t)
            logger.warning("%d task(s) outlived the %.3g s round deadline; "
                           "re-dispatching", len(lost), deadline)
            if metrics.enabled:
                metrics.counter("parallel.task_timeouts").inc(len(lost))
                metrics.counter("parallel.redispatched").inc(len(lost))
            if tracer.enabled:
                tracer.event("parallel.task_timeout", lost=len(lost),
                             deadline_s=self.deadline_s)
            self._rebuild_pool("task deadline exceeded")
        return failed

    def _quarantine(self, fn, task, index: int, failures: int):
        """Poison task: stop re-dispatching, run it serially right here.

        The serial fallback bypasses the pool (and any injected worker
        faults — those model the *pool*, not the computation), so a task
        that keeps killing workers still produces its bit-identical
        result; only a task whose computation itself fails is abandoned.
        """
        tracer = self.tracer
        logger.warning("task %d quarantined after %d pool failures; "
                       "running it serially", index, failures)
        if tracer.metrics.enabled:
            tracer.metrics.counter("parallel.quarantined").inc()
            tracer.metrics.counter("parallel.serial_fallbacks").inc()
        if tracer.enabled:
            tracer.event("parallel.task_quarantined", task=index,
                         failures=failures)
        try:
            result = fn(task)
        except Exception as exc:
            raise ShardLostError(
                index,
                f"quarantined after {failures} pool failures and the "
                f"serial fallback also failed: "
                f"{type(exc).__name__}: {exc}",
            ) from exc
        error = self.validate(task, result)
        if error is not None:
            raise ShardLostError(
                index,
                f"quarantined after {failures} pool failures and the "
                f"serial fallback produced an invalid result: {error}",
            )
        return result


class SupervisedMapHandle:
    """Deferred results of one :meth:`SupervisedPool.map_async`."""

    __slots__ = ("_done", "_results", "_exc")

    def __init__(self):
        self._done = threading.Event()
        self._results: Optional[List] = None
        self._exc: Optional[BaseException] = None

    def _finish(self, results: Optional[List] = None,
                exc: Optional[BaseException] = None) -> None:
        self._results = results
        self._exc = exc
        self._done.set()

    def result(self) -> List:
        self._done.wait()
        if self._exc is not None:
            raise self._exc
        return self._results

    def done(self) -> bool:
        return self._done.is_set()
