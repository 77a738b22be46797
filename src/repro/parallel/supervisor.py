"""The shard pool: persistent worker processes under supervision.

A plain :class:`~concurrent.futures.ProcessPoolExecutor` gives no
timeout and no crash handling: one SIGKILLed worker poisons every
pending future with ``BrokenProcessPool``, and one hung worker blocks
the coordinator forever.  G-OLA's contract is the opposite — a
long-running approximate query keeps making progress and keeps its
error guarantees no matter what the substrate does — so
:class:`SupervisedPool` dispatches every task once, waits once within a
bounded budget, and recovers on the calling thread in two steps:

1. **Rebuild** — a worker death (``BrokenProcessPool`` at submit or
   wait) or a task that outlives the budget abandons the pool (workers
   killed — SIGKILL also reaps SIGSTOPed workers); the next ``map``
   starts a fresh one.
2. **Serial fallback** — every task the pool failed (lost with a dead
   worker, hung, raised, or returned a result that ``validate`` rejects,
   see :func:`validate_fold_shard`) runs once on the coordinator.  Shard
   payloads are stateless specs into a segment the batch's lease keeps
   live (weights included), so that run is the bit-identical answer.
   Only if it *also* fails is the shard lost:
   :class:`~repro.errors.ShardLostError` propagates out of the
   controller's step and fails the query, because a computation that
   fails on the coordinator is a defect, not a substrate fault.

Each step taken logs one WARNING on the ``repro.parallel`` logger beside
the counter it bumps and the trace event it emits.

Workers are **persistent across queries**: a
:class:`~repro.core.session.GolaSession` owns one pool per worker count
and lends it to every run (library queries and the serve scheduler
alike), so the executor starts on the session's first pooled fold
(``fork`` where the platform has it — cheap start, no import replay —
else the platform default) and lives until the session closes.  Its
workers' caches of attached shared-memory segments stay warm across
batches, and the fork is paid once per session, not once per query.
What is per run stays per run: :meth:`SupervisedPool.map` takes the
run's tracer, and the run's segment is its own.
Two threads may map on one pool at once: a pool broken or hung under
one of them is rebuilt once, and the other's tasks on it run on the
coordinator.  A host that cannot start a
process pool at all (``OSError`` from the executor, e.g. a sandbox
without semaphores) leaves the pool degraded: :meth:`SupervisedPool.start`
returns False and the caller folds inline.

Nothing here causes a fault: the pool recovers from whatever its
workers do.  The chaos harness (``repro.faults.chaos``) and the tests
cause real ones from outside — a SIGKILL, a SIGSTOP, a task function
that kills itself or oversleeps off the coordinator.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from math import ceil
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ParallelConfig
from ..errors import ShardLostError
from ..obs import NULL_TRACER
from .shm import resolve

logger = logging.getLogger("repro.parallel")


def validate_fold_shard(payload: dict, result) -> Optional[str]:
    """Integrity fingerprint for one fold-shard result (None = valid).

    The worker was handed ``payload`` (see ``shards.run_fold_shard``)
    and must return ``[(alias, state), ...]`` matching the payload's
    alias list, each state of the shard's trial width, with per-group
    arrays of the expected shape/dtype, and NaN-free unless some input
    value is non-finite (the NaN *budget*: a NaN input flows through,
    and ``0 * inf`` from a zero weight on an infinite value is NaN too;
    NaNs never appear from finite inputs).  Anything else is a corrupted
    worker result and must be re-run, not merged.
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
                    # Values arrive as shared-memory specs; resolve to
                    # the zero-copy view before inspecting them.
                    nan_allowed = any(
                        (~np.isfinite(
                            np.asarray(resolve(v), dtype=np.float64)
                        )).any()
                        for v in payload["values"].values()
                    )
                if not nan_allowed:
                    return f"{alias}.{name} violates the NaN budget"
    return None


def _mp_context():
    """``fork`` where the platform has it, else the platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platform without fork
        return multiprocessing.get_context()


def _workers(executor) -> list:
    """The executor's worker processes.  Reaches into
    :class:`ProcessPoolExecutor` internals, as there is no public
    enumeration; [] if the attribute ever moves."""
    return list((getattr(executor, "_processes", None) or {}).values())


def _kill_workers(procs) -> None:
    """SIGKILL each process; this also reaps SIGSTOPped ones."""
    for proc in procs:
        try:
            proc.kill()
        except (OSError, AttributeError, ValueError):
            pass  # already dead / already reaped


class SupervisedPool:
    """Crash/hang/corruption-supervised ordered ``map`` over ``workers``
    persistent worker processes.

    Tasks must be **stateless and re-executable** (the shard path), task
    functions module-level and payloads picklable.  Bit-identity is
    preserved through recovery because a task the pool failed
    recomputes exactly the same deterministic function of its payload
    on the coordinator.

    ``tracer`` is a default: a borrowing run passes its own to
    :meth:`map`.  ``validate`` (None: accept every result) checks each
    result, the pool's and the serial fallback's alike.  Thread-safe:
    starting, rebuilding and closing swap the executor under one lock.
    """

    def __init__(self, workers: int, *,
                 deadline_s: float = 60.0, tracer=None,
                 validate: Optional[Callable[[object, object],
                                             Optional[str]]] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1; a serial fold needs "
                             "no pool")
        self.workers = workers
        self.deadline_s = deadline_s
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.validate = validate
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Set once this host refused to start a process pool; the pool
        #: then never tries again and :meth:`start` answers False.
        self._degraded = False
        self.restarts = 0

    # -- pool lifecycle --------------------------------------------------

    def start(self, tracer=None) -> bool:
        """Start the executor if it is not running; False if it cannot.

        A host that cannot run a process pool gets one WARNING and one
        ``parallel.degraded`` bump (on ``tracer``, else the pool's),
        never a silent fallback: the caller folds inline instead, which
        changes the run's speed and fault isolation but not one bit of
        its output.
        """
        return self._running(tracer) is not None

    def _running(self, tracer=None) -> Optional[ProcessPoolExecutor]:
        """The live executor, started if need be (None: degraded)."""
        with self._lock:
            if self._executor is None and not self._degraded:
                try:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.workers, mp_context=_mp_context()
                    )
                except OSError as exc:
                    logger.warning(
                        "process pool unavailable (%s: %s); folding "
                        "inline", type(exc).__name__, exc,
                    )
                    metrics = (self.tracer if tracer is None
                               else tracer).metrics
                    if metrics.enabled:
                        metrics.counter("parallel.degraded").inc()
                    self._degraded = True
            return self._executor

    def _rebuild_pool(self, executor: ProcessPoolExecutor, why: str,
                      tracer=None) -> None:
        """Abandon ``executor`` without waiting (SIGKILL its workers,
        which also reaps SIGSTOPed ones; ``shutdown(wait=True)`` would
        block forever behind a hung worker), and count it.  The next
        :meth:`start` builds a fresh executor.  If another thread has
        already abandoned it, this is a no-op: one rebuild per broken
        executor, and never of its replacement."""
        with self._lock:
            if self._executor is not executor:
                return
            self._executor = None
            self.restarts += 1
            restarts = self.restarts
        _kill_workers(_workers(executor))
        executor.shutdown(wait=False, cancel_futures=True)
        if tracer is None:
            tracer = self.tracer
        logger.warning("worker pool restarted after %s (restart %d)",
                       why, restarts)
        if tracer.metrics.enabled:
            tracer.metrics.counter("parallel.restarts").inc()
        if tracer.enabled:
            tracer.event("parallel.pool_restarted", reason=why,
                         restarts=restarts)

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers ([] before the first start).  The
        chaos harness signals them."""
        return [proc.pid for proc in _workers(self._executor)
                if proc.is_alive()]

    def close(self) -> None:
        """Shut the executor down within one task deadline (idempotent;
        the pool restarts on the next :meth:`map`).

        ``shutdown(wait=True)`` joins every worker, and a SIGSTOPped
        one never exits.  So the workers get ``deadline_s`` to exit
        (no bound when it is 0, as for :meth:`map`); any still running
        then are SIGKILLed as :meth:`_rebuild_pool` does, and each kill
        bumps ``parallel.close_kills``.  A healthy pool closes as fast
        as a plain shutdown: the wait is one join, never a sleep.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is None:
            return
        # The manager thread exits once it has joined every worker, so
        # joining it with a timeout is shutdown(wait=True) with a bound.
        manager = getattr(executor, "_executor_manager_thread", None)
        procs = _workers(executor)
        executor.shutdown(wait=False)
        if manager is None:
            return
        manager.join(self.deadline_s if self.deadline_s > 0 else None)
        if not manager.is_alive():
            return
        stuck = [proc for proc in procs if proc.is_alive()]
        if not stuck:
            return
        _kill_workers(stuck)
        logger.warning("%d worker(s) still running %.3g s after close; "
                       "killed", len(stuck), self.deadline_s)
        if self.tracer.metrics.enabled:
            self.tracer.metrics.counter("parallel.close_kills").inc(
                len(stuck))

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- supervised map --------------------------------------------------

    def map(self, fn: Callable, tasks: Sequence, *, tracer=None) -> List:
        """Apply ``fn`` to every task, in task order, surviving worker
        death, hangs and corrupted results.  Raises
        :class:`ShardLostError` only when a task the pool failed also
        fails its serial run on the coordinator.

        ``tracer`` (default: the pool's) is the calling run's: its
        spans and counters."""
        tasks = list(tasks)
        if not tasks:
            return []
        if tracer is None:
            tracer = self.tracer
        with tracer.span("parallel.supervise", tasks=len(tasks)):
            results, failed = self._dispatch(fn, tasks, tracer)
            for t, cause in failed.items():
                results[t] = self._serial_fallback(fn, tasks[t], t, cause,
                                                   tracer)
        return results

    def _dispatch(self, fn, tasks, tracer) -> Tuple[List, Dict[int, str]]:
        """Dispatch every task once and wait once, within
        ``deadline_s * ceil(n / workers)`` (tasks queue behind
        ``workers`` slots; at one task per worker the budget *is* the
        deadline).

        Returns ``(results, failed)``: ``failed`` maps each task the
        pool did not answer validly to its cause.  A broken or hung
        pool is abandoned, so the next dispatch starts a fresh one.
        Another thread abandoning the executor mid-dispatch (shut down
        at submit, futures cancelled or broken) loses this dispatch's
        unfinished tasks the same way.
        """
        n = len(tasks)
        results: List = [None] * n
        executor = self._running(tracer)
        if executor is None:
            # The host stopped letting a pool start: every task falls
            # back to the coordinator.
            return results, {t: "no process pool" for t in range(n)}
        futures = {}
        broken = False
        try:
            for t, task in enumerate(tasks):
                futures[t] = executor.submit(fn, task)
        except (BrokenExecutor, RuntimeError):
            # A worker died after the previous dispatch (its death only
            # shows now), or another thread abandoned the executor:
            # every task not yet submitted is lost.
            broken = True
        budget = None
        if self.deadline_s > 0:
            budget = self.deadline_s * ceil(n / self.workers)
        futures_wait(futures.values(), timeout=budget)
        metrics = tracer.metrics
        failed: Dict[int, str] = {}
        hung = 0
        for t in range(n):
            future = futures.get(t)
            if future is not None and not future.done():
                failed[t] = f"outlived the {budget:.3g} s deadline"
                hung += 1
                continue
            exc = (None if future is None or future.cancelled()
                   else future.exception())
            if (future is None or future.cancelled()
                    or isinstance(exc, BrokenExecutor)):
                # Which task took the worker down is unknowable: every
                # task unsubmitted or unfinished at the crash is lost.
                broken = True
                failed[t] = "worker lost"
            elif exc is not None:
                failed[t] = f"{type(exc).__name__}: {exc}"
                if metrics.enabled:
                    metrics.counter("parallel.task_failures").inc()
            else:
                result = future.result()
                error = self._check(tasks[t], result)
                if error is None:
                    results[t] = result
                else:
                    failed[t] = f"result rejected: {error}"
                    if metrics.enabled:
                        metrics.counter("parallel.corrupt_results").inc()
        if metrics.enabled:
            if broken:
                metrics.counter("parallel.worker_lost").inc()
            if hung:
                metrics.counter("parallel.task_timeouts").inc(hung)
        if broken or hung:
            self._rebuild_pool(executor, "worker death" if broken
                               else "task deadline exceeded", tracer)
        return results, failed

    def _check(self, task, result) -> Optional[str]:
        """``validate``'s verdict on one result (None = valid)."""
        if self.validate is None:
            return None
        return self.validate(task, result)

    def _serial_fallback(self, fn, task, index: int, cause: str, tracer):
        """Run a task the pool failed once, right here on the coordinator.

        The run bypasses the pool, so a task whose worker was killed,
        stopped or mangled its result still produces its bit-identical
        result; only a task whose computation itself fails is lost.
        """
        logger.warning("task %d failed on the pool (%s); running it on "
                       "the coordinator", index, cause)
        if tracer.metrics.enabled:
            tracer.metrics.counter("parallel.serial_fallbacks").inc()
        if tracer.enabled:
            tracer.event("parallel.serial_fallback", task=index, cause=cause)
        try:
            result = fn(task)
        except Exception as exc:
            raise ShardLostError(
                index,
                f"failed on the pool ({cause}) and its serial fallback "
                f"also failed: {type(exc).__name__}: {exc}",
            ) from exc
        error = self._check(task, result)
        if error is not None:
            raise ShardLostError(
                index,
                f"failed on the pool ({cause}) and its serial fallback "
                f"produced an invalid result: {error}",
            )
        return result


class ShardPools:
    """The shard pools a session lends its runs: one
    :class:`SupervisedPool` per ``(workers, task_deadline_s)``, built
    on first request, started on its first pooled fold and closed
    together by :meth:`close`.

    A closed pool restarts on its next fold and stays in this set, so a
    later :meth:`close` (or the owner's finalizer) still reaches it.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self._lock = threading.Lock()
        self._pools: Dict[Tuple[int, float], SupervisedPool] = {}

    def get(self, config: ParallelConfig) -> SupervisedPool:
        key = (config.workers, config.task_deadline_s)
        with self._lock:
            pool = self._pools.get(key)
            if pool is None:
                pool = self._pools[key] = SupervisedPool(
                    config.workers, deadline_s=config.task_deadline_s,
                    tracer=self.tracer, validate=validate_fold_shard,
                )
            return pool

    def close(self) -> None:
        """Close every pool (idempotent)."""
        with self._lock:
            pools = list(self._pools.values())
        for pool in pools:
            pool.close()
