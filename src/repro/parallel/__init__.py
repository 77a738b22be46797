"""Parallel bootstrap & delta maintenance (``repro.parallel``).

A supervised process pool, persistent across a session's queries, that
shards each mini-batch's bootstrap trial columns across workers and
merges the partial aggregate states on the coordinator before the fold
returns.  Batch columns are published into the run's one reused
shared-memory segment (``repro.parallel.shm``) so shard payloads are
spec-sized and workers read zero-copy.  A host that
cannot start a process pool or publish to shared memory folds inline.
Bit-identical to serial execution for any worker count — see
``docs/parallel-execution.md`` for the sharding model and the segment
lifecycle.
"""

from .executor import SERIAL_EXECUTOR, ParallelExecutor
from .shards import make_shard_payloads, run_fold_shard, shard_ranges
from .shm import ArraySpec, ShmLease, ShmRegistry, resolve, segment_exists
from .supervisor import ShardPools, SupervisedPool, validate_fold_shard

__all__ = [
    "ArraySpec",
    "SERIAL_EXECUTOR",
    "ParallelExecutor",
    "ShardPools",
    "ShmLease",
    "ShmRegistry",
    "SupervisedPool",
    "make_shard_payloads",
    "resolve",
    "run_fold_shard",
    "segment_exists",
    "shard_ranges",
    "validate_fold_shard",
]
