"""Run-time state of uncertain values (nested aggregate subquery results).

After every mini-batch, each producing lineage block publishes a *slot
state*: the current point estimate(s), the bootstrap replicas, and the
variation range(s) derived from them.  Consumers use the point values for
snapshot answers, the ranges for uncertain/deterministic classification,
and the replicas for their own failure checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

import numpy as np

from ..engine.aggregates import GroupIndex
from ..estimate.variation import VariationRange
from ..expr.expressions import Environment
from ..expr.tristate import TRI_FALSE, TRI_TRUE, TRI_UNKNOWN  # noqa: F401


@dataclass
class ScalarSlotState:
    """An uncorrelated scalar subquery's current state."""

    slot: int
    estimate: float
    replicas: np.ndarray  # (B,)
    vrange: VariationRange

    def bind_point(self, env: Environment) -> None:
        env.scalars[self.slot] = self.estimate


@dataclass
class KeyedSlotState:
    """An equality-correlated subquery's per-group state.

    ``index`` maps correlation-key values to dense rows of the arrays.
    Groups that have not appeared yet are fully uncertain: consumers treat
    their range as ``(-inf, +inf)``.
    """

    slot: int
    index: GroupIndex
    estimates: np.ndarray  # (G,)
    replicas: np.ndarray  # (G, B)
    lows: np.ndarray  # (G,)
    highs: np.ndarray  # (G,)
    #: Which groups have actual qualifying data.  A group can exist in the
    #: index with zero presence (its rows are all cached as uncertain or
    #: filtered out); its value is then undefined, not zero, and must stay
    #: fully uncertain for consumers.  None means "all present" (static).
    present: Optional[np.ndarray] = None

    def _present(self) -> np.ndarray:
        if self.present is None:
            return np.ones(len(self.estimates), dtype=bool)
        return self.present

    def bind_point(self, env: Environment) -> None:
        env.keyed[self.slot] = lambda keys, default: self.values_for_keys(
            keys, self.estimates, default
        )

    def values_for_keys(self, keys: np.ndarray, values: np.ndarray, default):
        """Rows of a per-group array for an array of correlation keys.

        ``values`` is ``(G,)`` or ``(G, W)``; the result has shape
        ``keys.shape + values.shape[1:]``.  Keys the index has not seen
        and keys with zero presence take ``default`` — the one lookup
        behind point values, variation ranges and per-trial replicas.
        """
        keys = np.asarray(keys)
        idx = self.index.encode(keys.reshape(-1), add_new=False)
        known = idx >= 0
        known[known] = self._present()[idx[known]]
        out = np.full((len(idx),) + values.shape[1:], default,
                      dtype=np.float64)
        out[known] = values[idx[known]]
        return out.reshape(keys.shape + values.shape[1:])

    def interval_for_keys(self, keys: np.ndarray):
        """Per-row (low, high) arrays for an array of correlation keys.

        Unknown or zero-presence keys are fully uncertain: (-inf, +inf).
        """
        bounds = self.values_for_keys(
            keys, np.stack([self.lows, self.highs], axis=1),
            (-np.inf, np.inf),
        )
        return bounds[..., 0], bounds[..., 1]


@dataclass
class SetSlotState:
    """An IN-subquery's current membership state.

    ``point_members`` is membership under current point estimates;
    ``tri_status`` maps each key the producer has seen to TRI_TRUE /
    TRI_FALSE / TRI_UNKNOWN under the producer's variation ranges.
    ``default_status`` applies to unseen keys: TRI_UNKNOWN for streamed
    producers (new groups may still join the set) and TRI_FALSE for
    static (dimension-table) producers, whose membership is closed.
    """

    slot: int
    point_members: Set
    tri_status: Dict
    default_status: np.int8 = TRI_UNKNOWN

    def bind_point(self, env: Environment) -> None:
        env.key_sets[self.slot] = self.point_members

    def tri_for_keys(self, keys: np.ndarray) -> np.ndarray:
        get = self.tri_status.get
        default = self.default_status
        return np.array(
            [get(k, default) for k in keys.tolist()], dtype=np.int8
        )
