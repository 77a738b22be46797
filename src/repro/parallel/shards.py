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
coordinator; no worker draws a column.  The executor publishes each
pooled batch into shared memory (``repro.parallel.shm``): ``group_idx``
/ ``values`` / ``row_idx`` and the rectangle's ``(B, n)`` transpose
arrive as :class:`~repro.parallel.shm.ArraySpec` descriptors and the
worker resolves them to zero-copy read-only views — a whole shard
payload is a few hundred bytes regardless of batch size, which is also
what makes the ``spawn`` start method viable.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .shm import ArraySpec, resolve


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
    * ``group_idx`` — ``(n,)`` dense group indices;
    * ``values`` — alias -> ``(n,)`` argument values;
    * ``weights`` — the batch's ``(B, n)`` weight transpose;
    * ``row_idx`` — surviving row positions into the batch's weight
      matrix, or None for all rows.

    Arrays arrive as shared-memory
    :class:`~repro.parallel.shm.ArraySpec`\\ s; a direct caller may pass
    the ndarrays themselves, which :func:`~repro.parallel.shm.resolve`
    passes through.  Module-level (not a closure) so process pools can
    pickle it.
    Returns ``[(alias, shard_state), ...]`` with each state of width
    ``hi - lo``.
    """
    lo, hi = payload["lo"], payload["hi"]
    group_idx = resolve(payload["group_idx"])
    row_idx = resolve(payload["row_idx"])
    weights = resolve(payload["weights"])[lo:hi].T
    if row_idx is not None:
        weights = weights[row_idx]
    groups = int(group_idx.max()) + 1
    out = []
    for alias, state_cls in payload["aliases"]:
        state = state_cls(hi - lo)
        state.update(group_idx, resolve(payload["values"][alias]),
                     weights, groups=groups)
        out.append((alias, state))
    return out


def make_shard_payloads(aliases, specs: Dict[str, ArraySpec],
                        ranges: List[Tuple[int, int]]) -> List[dict]:
    """One :func:`run_fold_shard` payload per trial range.

    ``specs`` is the lease of one
    :meth:`~repro.parallel.shm.ShmRegistry.publish` call over the
    batch's ``"group_idx"``, ``"weights_t"``, ``"value:<alias>"`` and
    (when rows were filtered) ``"row_idx"`` arrays: the batch is
    published once and every shard references it.
    """
    return [
        {
            "aliases": list(aliases),
            "lo": lo,
            "hi": hi,
            "group_idx": specs["group_idx"],
            "values": {alias: specs[f"value:{alias}"]
                       for alias, _ in aliases},
            "row_idx": specs.get("row_idx"),
            "weights": specs["weights_t"],
        }
        for lo, hi in ranges
    ]
