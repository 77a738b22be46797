"""Trial-axis sharding of bootstrap state maintenance.

A mini-batch's bootstrap update is ``state.update(group_idx, values, W)``
with ``W`` the ``(n, B)`` Poisson weight matrix.  Because every
column-mergeable state accumulates each ``(group, trial)`` cell
independently (see ``repro.engine.aggregates._grouped_sum``), the trial
axis splits cleanly: worker ``w`` builds fresh shard states of width
``hi - lo`` from weight columns ``[lo, hi)`` and the coordinator folds
them back with ``merge_columns`` — bit-identical to the full-width
update for any shard count.

Weights are the session's stored uint8 rectangle, drawn once in the
coordinator; no worker draws a column.  When the executor has published
the batch into shared memory (``repro.parallel.shm``), ``group_idx`` /
``values`` / ``row_idx`` and the rectangle's ``(B, n)`` transpose arrive
as :class:`~repro.parallel.shm.ArraySpec` descriptors and the worker
resolves them to zero-copy read-only views — a whole shard payload is
then a few hundred bytes regardless of batch size, which is also what
makes the ``spawn`` start method viable.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .shm import ArraySpec, cached_group_count, resolve


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
    * ``weights`` — the spec of the batch's published ``(B, n)`` weight
      transpose, or else the rectangle's ``(n, hi-lo)`` column slice;
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
    weights = payload["weights"]
    if isinstance(weights, ArraySpec):
        weights = resolve(weights)[lo:hi].T
    if row_idx is not None:
        weights = weights[row_idx]
    groups = cached_group_count(group_spec, group_idx)
    out = []
    for alias, state_cls in payload["aliases"]:
        state = state_cls(hi - lo)
        state.update(group_idx, resolve(payload["values"][alias]),
                     weights, groups=groups)
        out.append((alias, state))
    return out


def make_shard_payloads(
    aliases, group_idx: np.ndarray, values: dict, weights: np.ndarray,
    ranges: List[Tuple[int, int]],
    row_idx: Optional[np.ndarray] = None,
    published: Optional[dict] = None,
) -> List[dict]:
    """One :func:`run_fold_shard` payload per trial range.

    ``weights`` is the batch's ``(n, B)`` weight rectangle over the
    original rows; each payload carries its ``[lo, hi)`` column slice.

    ``published`` optionally maps payload keys (``"group_idx"``,
    ``"row_idx"``, ``"value:<alias>"``, ``"weights_t"``) to shared-memory
    specs from one :meth:`~repro.parallel.shm.ShmRegistry.publish` call;
    specs replace the arrays inside every payload (the batch is
    published once and referenced by all shards).
    """
    published = published or {}
    pub_weights = published.get("weights_t")
    pub_group = published.get("group_idx", group_idx)
    pub_row = published.get("row_idx", row_idx)
    pub_values = {
        alias: published.get(f"value:{alias}", arr)
        for alias, arr in values.items()
    }
    return [
        {
            "aliases": list(aliases),
            "lo": lo,
            "hi": hi,
            "group_idx": pub_group,
            "values": pub_values,
            "row_idx": pub_row,
            "weights": (weights[:, lo:hi] if pub_weights is None
                        else pub_weights),
        }
        for lo, hi in ranges
    ]
