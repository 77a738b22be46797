"""Fault injection, bounded retry, and graceful degradation.

The paper's prototype runs on a 100-node Spark/EC2 cluster where task
failures, stragglers and lost partitions are routine; an online system
that aborts on the first hiccup never reaches its final batch.  This
package makes misbehavior a *first-class, deterministic* input:

* :class:`FaultInjector` — seeded per-fault-point RNG streams inject
  batch-load errors, malformed rows, worker kills, hangs and corrupted
  results, and serving failures at named fault points registered
  throughout the stack (:func:`register_fault_point` /
  :func:`fault_points`);
* :class:`RetryPolicy` — the shared bounded-retry/exponential-backoff
  policy (controller batch loads, the supervised worker pool);
* :class:`RowQuarantine` — collect malformed input rows up to an error
  budget instead of aborting the load;
* :class:`RunCheckpoint` — checkpoint/resume of online-run state
  (folded batches, uncertain-set caches, RNG streams).

Recovery semantics live in the layers themselves: the supervised pool
re-dispatches lost or hung shards, and the controller degrades
gracefully — a permanently failed
mini-batch is dropped and multiplicities/CIs are re-derived from the
batches actually folded (sound because batches are uniform random,
hence exchangeable), with snapshots flagged ``degraded``.
"""

from .chaos import ChaosRunner, ChaosSpec, snapshot_fingerprint
from .checkpoint import (
    RunCheckpoint,
    config_fingerprint,
    query_fingerprint,
)
from .injector import (
    FAULT_KINDS,
    NULL_INJECTOR,
    FaultInjector,
    FaultPoint,
    describe_fault_points,
    fault_points,
    register_fault_point,
)
from .policy import RetryPolicy
from .quarantine import QuarantinedRow, RowQuarantine

__all__ = [
    "ChaosRunner",
    "ChaosSpec",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPoint",
    "NULL_INJECTOR",
    "QuarantinedRow",
    "RetryPolicy",
    "RowQuarantine",
    "RunCheckpoint",
    "config_fingerprint",
    "describe_fault_points",
    "fault_points",
    "query_fingerprint",
    "register_fault_point",
    "snapshot_fingerprint",
]
