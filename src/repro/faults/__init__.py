"""Fault injection, checkpoint/resume and row quarantine.

The paper's prototype runs on a cluster where workers crash, hang and
return garbage; an online system that aborts on the first hiccup never
reaches its final batch.  This package makes misbehavior a
*first-class, deterministic* input:

* :class:`FaultInjector` — seeded per-stream RNGs kill, hang and
  corrupt pool workers and corrupt CSV input rows;
* :class:`RowQuarantine` — collect malformed input rows up to an error
  budget instead of aborting the load;
* :class:`RunCheckpoint` — checkpoint/resume of online-run state
  (progress, block states, the injector's streams);
* :class:`ChaosRunner` — paper queries under worker chaos, checked bit
  for bit against serial (``repro chaos``).

Recovery lives in the layers themselves, one per failure: the
supervised pool re-dispatches a crashed, hung or corrupt shard
bit-identically; a computation that fails even on the coordinator
raises :class:`~repro.errors.ShardLostError` and fails its query; a
variation-range violation makes the block rebuild from the batches seen.
"""

from .chaos import ChaosRunner, ChaosSpec
from .checkpoint import (
    RunCheckpoint,
    config_fingerprint,
    query_fingerprint,
)
from .injector import NULL_INJECTOR, FaultInjector
from .quarantine import QuarantinedRow, RowQuarantine

__all__ = [
    "ChaosRunner",
    "ChaosSpec",
    "FaultInjector",
    "NULL_INJECTOR",
    "QuarantinedRow",
    "RowQuarantine",
    "RunCheckpoint",
    "config_fingerprint",
    "query_fingerprint",
]
