"""The shard pool: persistent worker processes under supervision.

A plain :class:`~concurrent.futures.ProcessPoolExecutor` gives no
timeout and no crash handling: one SIGKILLed worker poisons every
pending future with ``BrokenProcessPool``, and one hung worker blocks
the coordinator forever.  G-OLA's contract is the opposite — a
long-running approximate query keeps making progress and keeps its
error guarantees no matter what the substrate does — so
:class:`SupervisedPool` runs its executor under a recovery ladder, on
the calling thread:

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
   shard lost: :class:`~repro.errors.ShardLostError` propagates out of
   the controller's step and fails the query, because a computation
   that fails on the coordinator is a defect, not a substrate fault.
4. **Result integrity** — every worker result is validated before it is
   accepted (for fold shards: alias/type/shape/dtype/NaN-budget
   fingerprint, see :func:`validate_fold_shard`).  A corrupted result is
   rejected and the shard re-run instead of being silently folded into
   the estimate.

Between rounds the pool backs off: round ``r`` (1-based) first sleeps a
seeded full-jitter pause, uniform in ``[0, BACKOFF_S * BACKOFF_FACTOR **
(r - 1)]``, so two runs with the same fault seed sleep the same
sequence.  Every rung taken logs one WARNING on the ``repro.parallel``
logger beside the counter it bumps.

Workers are **persistent**: the executor starts on first use (``fork``
where the platform has it — cheap start, no import replay — else the
platform default) and lives until :meth:`SupervisedPool.close`, so
per-process caches (attached shared-memory segments, group-count memos)
stay warm across batches and queries.  A host that cannot start a
process pool at all (``OSError`` from the executor, e.g. a sandbox
without semaphores) leaves the pool degraded: :meth:`SupervisedPool.start`
returns False and the caller folds inline.

Fault injection (``parallel.worker_kill`` / ``parallel.worker_hang`` /
``parallel.result_corrupt``) rides along inside the dispatched payloads:
the coordinator draws a deterministic per-task fault plan from the
seeded injector, and the *worker side* executes it — a real
``os.kill(os.getpid(), SIGKILL)``, a real oversleep, a real poisoned
array — so recovery is exercised end to end against real failures.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import random
import signal
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, \
    ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from math import ceil
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import ShardLostError
from ..faults import NULL_INJECTOR
from ..obs import NULL_TRACER
from .shm import resolve

logger = logging.getLogger("repro.parallel")

#: Worker-side stand-in for a result too mangled to poison in place.
CORRUPT_SENTINEL = "__repro-corrupted-result__"

#: Upper bound on one blocking wait slice: every wake-up bumps the
#: ``parallel.heartbeats`` counter, so liveness is observable even while
#: a round is in flight.
_HEARTBEAT_S = 1.0

#: Re-dispatch backoff cap before the first retry round, and its growth
#: per round.
BACKOFF_S = 0.05
BACKOFF_FACTOR = 2.0


def jitter_rng(seed) -> random.Random:
    """The supervisor's full-jitter stream: same seed, same pauses."""
    return random.Random(f"{seed}:parallel.supervisor:retry-jitter")


def backoff_delay(attempt: int, rng: random.Random) -> float:
    """Full-jitter pause before 0-based retry round ``attempt``:
    uniform in ``[0, BACKOFF_S * BACKOFF_FACTOR ** attempt]``."""
    return rng.uniform(0.0, BACKOFF_S * BACKOFF_FACTOR ** attempt)


def _supervised_call(payload):
    """Worker-side wrapper: execute one task under its fault directive.

    ``payload`` is ``(fn, task, directive)``; the directive (or None)
    was drawn by the coordinator from the seeded injector, so two runs
    with the same fault config misbehave identically:

    * ``kill`` — SIGKILL our own process;
    * ``hang_s > 0`` — oversleep before running the task;
    * ``corrupt`` — run the task, then poison the result in flight.

    Module-level (not a closure) so the pool can pickle it.
    """
    fn, task, directive = payload
    if directive:
        if directive.get("kill"):
            os.kill(os.getpid(), signal.SIGKILL)
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
                    # Values may arrive as shared-memory specs; resolve
                    # to the zero-copy view before inspecting them.
                    nan_allowed = any(
                        (~np.isfinite(
                            np.asarray(resolve(v), dtype=np.float64)
                        )).any()
                        for v in payload["values"].values()
                    )
                if not nan_allowed:
                    return f"{alias}.{name} violates the NaN budget"
    return None


def _default_validate(payload, result) -> Optional[str]:
    if isinstance(result, str) and result == CORRUPT_SENTINEL:
        return "corrupted result payload"
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
    preserved through every recovery action because a re-dispatched or
    quarantined task recomputes exactly the same deterministic function
    of its payload.
    """

    def __init__(self, workers: int, *,
                 deadline_s: float = 60.0, retries: int = 2,
                 injector=None, tracer=None,
                 validate: Optional[Callable[[object, object],
                                             Optional[str]]] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1; a serial fold needs "
                             "no pool")
        self.workers = workers
        self.deadline_s = deadline_s
        self.retries = retries
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.validate = validate if validate is not None else \
            _default_validate
        self._jitter = jitter_rng(getattr(self.injector, "seed", 0))
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Set once this host refused to start a process pool; the pool
        #: then never tries again and :meth:`start` answers False.
        self._degraded = False
        self.restarts = 0

    # -- pool lifecycle --------------------------------------------------

    def start(self) -> bool:
        """Start the executor if it is not running; False if it cannot.

        A host that cannot run a process pool gets one WARNING and one
        ``parallel.degraded`` bump, never a silent fallback: the caller
        folds inline instead, which changes the run's speed and fault
        isolation but not one bit of its output.
        """
        if self._executor is None and not self._degraded:
            try:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=_mp_context()
                )
            except OSError as exc:
                logger.warning(
                    "process pool unavailable (%s: %s); folding inline",
                    type(exc).__name__, exc,
                )
                if self.tracer.metrics.enabled:
                    self.tracer.metrics.counter("parallel.degraded").inc()
                self._degraded = True
        return self._executor is not None

    def _abandon(self) -> None:
        """Tear the executor down without waiting: SIGKILL its workers.

        ``shutdown(wait=True)`` would block forever behind a hung
        worker; SIGKILL also reaps SIGSTOPed (suspended) workers.  The
        next :meth:`start` builds a fresh executor.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        _kill_workers(_workers(executor))
        executor.shutdown(wait=False, cancel_futures=True)

    def _rebuild_pool(self, why: str) -> None:
        """Abandon the current executor (killing its workers), count it."""
        self._abandon()
        self.restarts += 1
        logger.warning("worker pool restarted after %s (restart %d)",
                       why, self.restarts)
        if self.tracer.metrics.enabled:
            self.tracer.metrics.counter("parallel.restarts").inc()
        if self.tracer.enabled:
            self.tracer.event("parallel.pool_restarted", reason=why,
                              restarts=self.restarts)

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers ([] before the first start).

        Reaches into :class:`ProcessPoolExecutor` internals — there is
        no public enumeration — so it degrades to [] if the attribute
        ever moves.  The chaos harness picks SIGKILL victims from it.
        """
        procs = getattr(self._executor, "_processes", None)
        if not procs:
            return []
        return [pid for pid, proc in list(procs.items())
                if proc.is_alive()]

    def close(self) -> None:
        """Shut the executor down within one task deadline (idempotent;
        the pool restarts on the next :meth:`map`).

        ``shutdown(wait=True)`` joins every worker, and a SIGSTOPped
        one never exits.  So the workers get ``deadline_s`` to exit
        (no bound when it is 0, as for :meth:`map`); any still running
        then are SIGKILLed as :meth:`_abandon` does, and each kill
        bumps ``parallel.close_kills``.  A healthy pool closes as fast
        as a plain shutdown: the wait is one join, never a sleep.
        """
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
        results: List = [None] * n
        settled = [False] * n
        attempts = [0] * n
        pending = list(range(n))
        round_no = 0
        with self.tracer.span("parallel.supervise", tasks=n):
            while pending:
                if round_no > 0:
                    time.sleep(backoff_delay(round_no - 1, self._jitter))
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
            directive["kill"] = True
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
        if not self.start():
            # No pool to dispatch to (the host stopped letting one
            # start): every pending task fails the round, so the ladder
            # ends in the serial fallback.
            for t in pending:
                attempts[t] += 1
            return list(pending)
        executor = self._executor
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

