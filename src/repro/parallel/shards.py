"""Trial-axis sharding of bootstrap state maintenance.

A mini-batch's bootstrap update is ``state.update(group_idx, values, W)``
with ``W`` the ``(n, B)`` Poisson weight matrix.  Because every
column-mergeable state accumulates each ``(group, trial)`` cell
independently (see ``repro.engine.aggregates._grouped_sum``), the trial
axis splits cleanly: worker ``w`` builds fresh shard states of width
``hi - lo`` from weight columns ``[lo, hi)`` and the coordinator folds
them back with ``merge_columns`` — bit-identical to the full-width
update for any shard count.

Weights travel as a :class:`~repro.estimate.bootstrap.BatchWeights` spec
(a few primitives) whenever possible: each worker regenerates exactly
its own uint8 trial columns from the per-(batch, trial) RNG streams, so
no ``(n, B)`` matrix crosses the process boundary.

Column data travels the same way: when the executor has published the
batch into shared memory (``repro.parallel.shm``), ``group_idx`` /
``values`` / ``row_idx`` arrive as :class:`~repro.parallel.shm.ArraySpec`
descriptors and the worker resolves them to zero-copy read-only views —
a whole shard payload is then a few hundred bytes regardless of batch
size, which is also what makes the ``spawn`` start method viable.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..estimate.bootstrap import BatchWeights
from .shm import cached_group_count, resolve


def shard_ranges(trials: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``[0, trials)`` into at most ``shards`` contiguous ranges.

    Ranges are balanced (sizes differ by at most one) and never empty;
    fewer than ``shards`` ranges come back when ``trials < shards``.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shards = min(shards, trials)
    out: List[Tuple[int, int]] = []
    base, rem = divmod(trials, max(shards, 1))
    lo = 0
    for s in range(shards):
        hi = lo + base + (1 if s < rem else 0)
        out.append((lo, hi))
        lo = hi
    return out


def run_fold_shard(payload: dict) -> List[Tuple[str, object]]:
    """Fold one trial shard of a batch into fresh states (worker side).

    ``payload`` keys:

    * ``aliases`` — list of ``(alias, state_class)`` pairs to fold;
    * ``lo``/``hi`` — the trial-column range of this shard;
    * ``group_idx`` — ``(n,)`` dense group indices (ndarray or
      shared-memory :class:`~repro.parallel.shm.ArraySpec`);
    * ``values`` — alias -> ``(n,)`` argument values (ndarray or spec);
    * ``weights`` — the ``(n, hi-lo)`` slice, when the caller cut it
      (spec-less handles, such as the in-process streamed fold's);
    * ``weight_spec`` — otherwise, the :meth:`BatchWeights.spec` dict to
      regenerate the shard's columns locally;
    * ``row_idx`` — surviving row positions into the batch's weight
      matrix (ndarray or spec), or None for all rows.

    Module-level (not a closure) so process pools can pickle it.
    Returns ``[(alias, shard_state), ...]`` with each state of width
    ``hi - lo``.
    """
    lo, hi = payload["lo"], payload["hi"]
    group_spec = payload["group_idx"]
    group_idx = resolve(group_spec)
    row_idx = resolve(payload.get("row_idx"))
    weights = payload.get("weights")
    if weights is None:
        spec = payload["weight_spec"]
        weights = BatchWeights.from_spec(spec).shard(lo, hi, row_idx)
    groups = cached_group_count(group_spec, group_idx)
    out = []
    for alias, state_cls in payload["aliases"]:
        state = state_cls(hi - lo)
        state.update(group_idx, resolve(payload["values"][alias]),
                     weights, groups=groups)
        out.append((alias, state))
    return out


def make_shard_payloads(
    aliases, group_idx: np.ndarray, values: dict, weights,
    ranges: List[Tuple[int, int]],
    row_idx: Optional[np.ndarray] = None,
    published: Optional[dict] = None,
) -> List[dict]:
    """One :func:`run_fold_shard` payload per trial range.

    ``weights`` is a batch-weight handle; when it carries a regeneration
    spec only the spec crosses the process boundary, otherwise the dense
    column slice for each range is cut here.

    ``published`` optionally maps payload keys (``"group_idx"``,
    ``"row_idx"``, ``"value:<alias>"``) to shared-memory specs from one
    :meth:`~repro.parallel.shm.ShmRegistry.publish` call; specs replace
    the arrays inside every payload (the batch is published once and
    referenced by all shards), while coordinator-side dense-weight
    slicing keeps using the raw ``row_idx``.
    """
    spec = weights.spec()
    published = published or {}
    pub_group = published.get("group_idx", group_idx)
    pub_row = published.get("row_idx", row_idx)
    pub_values = {
        alias: published.get(f"value:{alias}", arr)
        for alias, arr in values.items()
    }
    payloads = []
    for lo, hi in ranges:
        payload = {
            "aliases": list(aliases),
            "lo": lo,
            "hi": hi,
            "group_idx": pub_group,
            "values": pub_values,
            "row_idx": pub_row,
            "weight_spec": spec,
        }
        if spec is None:
            payload["weights"] = weights.shard(lo, hi, row_idx)
        payloads.append(payload)
    return payloads
