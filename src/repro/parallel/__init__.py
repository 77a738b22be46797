"""Parallel bootstrap & delta maintenance (``repro.parallel``).

A persistent, supervised process/thread worker pool that shards each
mini-batch's bootstrap trial columns across workers and merges the
partial aggregate states on the coordinator.  Batch columns are published once into shared-memory
segments (``repro.parallel.shm``) so shard payloads are spec-sized and
workers read zero-copy; sharded folds can be pipelined (dispatch batch
*i+1* while batch *i* merges/publishes).  Bit-identical to serial
execution for any worker count and any of these knobs — see
``docs/parallel-execution.md`` for the sharding model, segment
lifecycle and pipeline semantics.
"""

from .executor import SERIAL_EXECUTOR, ParallelExecutor
from .pool import WorkerPool
from .shards import make_shard_payloads, run_fold_shard, shard_ranges
from .shm import HAVE_SHM, ArraySpec, ShmLease, ShmRegistry, resolve, \
    segment_exists
from .supervisor import (
    CORRUPT_SENTINEL,
    SupervisedPool,
    WorkerKilledError,
    validate_fold_shard,
)

__all__ = [
    "CORRUPT_SENTINEL",
    "HAVE_SHM",
    "ArraySpec",
    "SERIAL_EXECUTOR",
    "ParallelExecutor",
    "ShmLease",
    "ShmRegistry",
    "SupervisedPool",
    "WorkerKilledError",
    "WorkerPool",
    "make_shard_payloads",
    "resolve",
    "run_fold_shard",
    "segment_exists",
    "shard_ranges",
    "validate_fold_shard",
]
