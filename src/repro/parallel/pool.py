"""Worker pools behind one tiny ordered-``map`` interface.

Two interchangeable backends:

* ``process`` — a :class:`concurrent.futures.ProcessPoolExecutor`.  The
  start method defaults to ``fork`` where available (cheap worker
  startup, no import replay) and falls back to the platform default
  (``spawn`` on macOS/Windows); ``start_method`` pins it explicitly.
  Task functions must be module-level and payloads picklable — shard
  payloads are spec-sized (see ``repro.parallel.shm``), so even the
  spawn path ships only a few primitives per task.
* Workers are **persistent**: the executor (and therefore its worker
  processes) lives across ``map`` calls until :meth:`WorkerPool.close`,
  so per-process caches (attached shared-memory segments, GroupIndex
  digest memos) stay warm across batches and queries.
* ``thread`` — a :class:`concurrent.futures.ThreadPoolExecutor`; no
  pickling, relies on numpy releasing the GIL in the hot kernels.  A
  process pool that cannot start (restricted environments) degrades to
  threads with a warning.

Pools are created lazily on first use and must be released with
:meth:`WorkerPool.close` (the controller does this when a run finishes).
The crash/hang-supervised layer (``repro.parallel.supervisor``) wraps
this class; ``WorkerPool`` itself stays a thin executor shim.
"""

from __future__ import annotations

import logging
import multiprocessing
from concurrent.futures import Executor, ProcessPoolExecutor, \
    ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence

logger = logging.getLogger("repro.parallel")


class WorkerPool:
    """A lazily-started pool of ``workers`` executing ordered maps."""

    def __init__(self, workers: int, backend: str = "process",
                 metrics=None, start_method: str = "auto"):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend not in ("process", "thread"):
            raise ValueError(f"unknown pool backend {backend!r}")
        if start_method not in ("auto", "fork", "spawn", "forkserver"):
            raise ValueError(f"unknown start method {start_method!r}")
        self.workers = workers
        self.backend = backend
        #: Process start method; ``"auto"`` prefers ``fork`` and falls
        #: back to the platform default where fork does not exist.
        self.start_method = start_method
        #: Optional :class:`~repro.obs.MetricsRegistry`; when set, a
        #: forced process→thread degradation bumps ``parallel.degraded``
        #: so degraded runs show up in ``/metrics`` and ``repro report``.
        self.metrics = metrics
        self._executor: Optional[Executor] = None

    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            if self.backend == "thread":
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-pool",
                )
            else:
                if self.start_method == "auto":
                    try:
                        ctx = multiprocessing.get_context("fork")
                    except ValueError:  # platform without fork
                        ctx = multiprocessing.get_context()
                else:
                    # An explicit start method is a hard requirement
                    # (the spawn-path tests pin it); let an unsupported
                    # choice raise rather than silently substituting.
                    ctx = multiprocessing.get_context(self.start_method)
                try:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.workers, mp_context=ctx
                    )
                except (OSError, PermissionError) as exc:
                    # Sandboxed/restricted environment: degrade to
                    # threads rather than failing the run — but never
                    # silently; the backend swap changes the performance
                    # (and fault-isolation) profile of the whole run.
                    logger.warning(
                        "process pool unavailable (%s: %s); degrading "
                        "pool backend to threads", type(exc).__name__, exc,
                    )
                    if self.metrics is not None and self.metrics.enabled:
                        self.metrics.counter("parallel.degraded").inc()
                    self.backend = "thread"
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="repro-pool",
                    )
        return self._executor

    def executor(self) -> Executor:
        """The live executor (created on demand)."""
        return self._ensure_executor()

    def worker_pids(self) -> List[int]:
        """PIDs of the live process-pool workers ([] for threads).

        Reaches into :class:`ProcessPoolExecutor` internals — there is
        no public enumeration — so it degrades to [] if the attribute
        ever moves.  Used by the supervisor (to kill hung workers) and
        the chaos harness (to pick SIGKILL victims).
        """
        executor = self._executor
        procs = getattr(executor, "_processes", None)
        if not procs:
            return []
        return [pid for pid, proc in list(procs.items())
                if proc.is_alive()]

    def map(self, fn: Callable, tasks: Sequence) -> List:
        """Apply ``fn`` to every task, returning results in task order."""
        tasks = list(tasks)
        if not tasks:
            return []
        if len(tasks) == 1:
            return [fn(tasks[0])]
        executor = self._ensure_executor()
        futures = [executor.submit(fn, task) for task in tasks]
        return [f.result() for f in futures]

    def close(self) -> None:
        """Shut the underlying executor down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def abandon(self) -> None:
        """Tear the executor down *without* waiting: kill process-pool
        workers outright, drop thread-pool threads on the floor.

        This is the supervisor's hang/crash escape hatch — ``close()``
        would block forever behind a hung worker.  SIGKILL also works on
        SIGSTOPed (suspended) workers, so a suspended pool is reaped the
        same way.  Idempotent; the next :meth:`map` builds a fresh pool.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        procs = getattr(executor, "_processes", None) or {}
        for proc in list(procs.values()):
            try:
                proc.kill()
            except (OSError, AttributeError, ValueError):
                pass  # already dead / already reaped
        executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

