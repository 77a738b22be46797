"""Checkpoint/resume, row quarantine and the chaos harness.

An online system that aborts on the first hiccup never reaches its
final batch.  This package holds what survives the hiccups that are
not the pool's:

* :class:`RowQuarantine` — collect malformed input rows up to an error
  budget instead of aborting the load;
* :class:`RunCheckpoint` — checkpoint/resume of online-run state
  (progress and block states);
* :class:`ChaosRunner` — paper queries while real signals kill and
  stop pool workers between batches, checked bit for bit against
  serial (``repro chaos``).

Recovery lives in the layers themselves, one per failure: the
supervised pool runs a shard whose worker crashed, hung or returned a
malformed state once on the coordinator, bit-identically; a
computation that fails even on the coordinator raises
:class:`~repro.errors.ShardLostError` and fails its query; a guard
violation makes the block rebuild from the batches seen.
"""

from .chaos import ChaosRunner, ChaosSpec
from .checkpoint import (
    RunCheckpoint,
    config_fingerprint,
    query_fingerprint,
)
from .quarantine import QuarantinedRow, RowQuarantine

__all__ = [
    "ChaosRunner",
    "ChaosSpec",
    "QuarantinedRow",
    "RowQuarantine",
    "RunCheckpoint",
    "config_fingerprint",
    "query_fingerprint",
]
