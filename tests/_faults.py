"""Real worker faults for pool tests: task functions that misbehave in
a pool worker and never on the coordinator.

A forked worker inherits :data:`COORDINATOR`, the test process's PID,
so ``os.getpid() != COORDINATOR`` holds exactly in a worker: the
supervisor's serial fallback, which runs on the coordinator, always
computes the plain result.  Each worker counts the tasks it runs, and
:func:`faulty`'s periods pick which of them misbehave, so a one-worker
pool misbehaves on the same tasks on every run.

To fault a query's pooled folds, monkeypatch
``repro.parallel.executor.run_fold_shard`` with
``faulty(run_fold_shard, kill=3)`` (or ``hang=``, ``corrupt=``).
"""

import functools
import os
import signal
import time

import numpy as np

COORDINATOR = os.getpid()
#: How long a hung task sleeps: longer than any test's task deadline.
HANG_S = 30.0

_tasks_run = 0  # in a worker: the tasks this process has run


def poison(result):
    """``result`` as a bad worker returns it: the first cell of the first
    per-group array of a fold-shard result set to NaN (what the NaN
    budget catches), or NaN for a plain number."""
    if not isinstance(result, list):
        return float("nan")
    for _, state in result:
        for arr in vars(state).values():
            if isinstance(arr, np.ndarray) and arr.size:
                arr.reshape(-1)[0] = np.nan
                return result
    return result


def _faulty(fn, kill, hang, corrupt, task):
    global _tasks_run
    if os.getpid() == COORDINATOR:
        return fn(task)
    _tasks_run += 1
    if kill and _tasks_run % kill == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    if hang and _tasks_run % hang == 0:
        time.sleep(HANG_S)
    result = fn(task)
    if corrupt and _tasks_run % corrupt == 0:
        result = poison(result)
    return result


def faulty(fn, *, kill: int = 0, hang: int = 0, corrupt: int = 0):
    """``fn`` made to misbehave in a pool worker: on every ``kill``-th
    task the worker runs it SIGKILLs itself, on every ``hang``-th it
    sleeps :data:`HANG_S` first, and every ``corrupt``-th result comes
    back poisoned (see :func:`poison`); 0 never.  Picklable, as a pool
    task function must be."""
    return functools.partial(_faulty, fn, kill, hang, corrupt)


def not_nan(task, result):
    """A ``validate`` for plain-number tasks: rejects a poisoned result."""
    del task
    return "NaN result" if result != result else None
