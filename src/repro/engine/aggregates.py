"""Mergeable aggregate states.

Every aggregate the engine supports is expressed as a *mergeable state*
with the interface ``update(group_idx, values, weights) / merge / finalize``.
This single abstraction powers three things at once:

* exact batch execution (weights = None, one state cell per group);
* G-OLA's incremental delta maintenance — folding a mini-batch into a
  running aggregate is just ``update``; combining the deterministic-set
  partial with the live uncertain-set partial is just ``merge``;
* bootstrap error estimation — a state created with ``trials=B`` keeps
  ``B`` per-trial cells per group, updated in one vectorized call with an
  ``(n, B)`` Poisson weight matrix (the BlinkDB-style poissonized
  bootstrap the paper builds on).

Finalize takes a ``scale`` implementing the paper's multiset semantics
``Q(D_i, k/i)``: after batch ``i`` of ``k``, every seen tuple counts
``k/i`` times, which scales SUM/COUNT estimates while leaving AVG, STDEV
and quantiles invariant.
"""

from __future__ import annotations

import hashlib
from copy import deepcopy
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ExecutionError, PlanError


@dataclass
class AggregateCall:
    """A single aggregate in a query: ``func(arg) AS alias``.

    ``arg`` is an expression (or None for ``COUNT(*)``); ``param`` carries
    the quantile fraction for ``QUANTILE``.
    """

    func: str
    arg: Optional[object]  # Expression; typed loosely to avoid an import cycle
    alias: str
    distinct: bool = False
    param: Optional[float] = None

    def __post_init__(self) -> None:
        self.func = self.func.lower()

    def sql(self) -> str:
        inner = self.arg.sql() if self.arg is not None else "*"
        if self.distinct:
            inner = f"DISTINCT {inner}"
        if self.param is not None:
            return f"{self.func}({inner}, {self.param}) AS {self.alias}"
        return f"{self.func}({inner}) AS {self.alias}"


class GroupIndex:
    """Maps arbitrary (hashable) group-key values to dense indices.

    The dense index is what aggregate states are addressed by; it grows
    monotonically as new groups appear across mini-batches, so states
    resize but never reshuffle.
    """

    def __init__(self) -> None:
        self._lookup: Dict = {}
        self._keys: List = []
        #: Bumped whenever a new key is inserted; part of the encode memo
        #: token so cached encodings are dropped once the mapping grows.
        self._version = 0
        #: ``(token, result)`` of the last memoizable encode: one tuple,
        #: written in one step, so a reader on another thread never sees
        #: a token paired with another encode's result.
        self._memo: Optional[tuple] = None

    @property
    def num_groups(self) -> int:
        return len(self._keys)

    def keys(self) -> List:
        return list(self._keys)

    def key_at(self, idx: int):
        return self._keys[idx]

    def index_of(self, key) -> int:
        """Dense index of ``key``; -1 when unseen."""
        return self._lookup.get(key, -1)

    def _memo_token(self, keys: np.ndarray, add_new: bool):
        """Cheap content token for ``keys``, or None when not memoizable."""
        if keys.dtype == object:
            return None
        digest = hashlib.blake2b(
            np.ascontiguousarray(keys).tobytes(), digest_size=16
        ).digest()
        return (keys.dtype.str, keys.shape, digest, add_new, self._version)

    def encode(self, keys: np.ndarray, add_new: bool = True) -> np.ndarray:
        """Vector-encode ``keys`` to dense indices.

        New keys are appended when ``add_new``; otherwise they encode to -1.
        Uses ``np.unique`` so the python-dict work is proportional to the
        number of *distinct* incoming keys, not the batch size, and only
        keys missing from the lookup pay dict-insertion cost.  A one-slot
        digest memo short-circuits re-encoding the exact key array the
        index saw last (per-trial re-evaluation, unchanged key sets across
        batches).
        """
        keys = np.asarray(keys)
        if keys.size == 0:
            return np.empty(0, dtype=np.int64)
        token = self._memo_token(keys, add_new)
        memo = self._memo
        if token is not None and memo is not None and memo[0] == token:
            return memo[1].copy()
        if keys.dtype == object:
            uniq_list, inverse = _unique_objects(keys)
        else:
            uniq, inverse = np.unique(keys, return_inverse=True)
            uniq_list = uniq.tolist()
        get = self._lookup.get
        mapped = np.fromiter(
            (get(key, -1) for key in uniq_list),
            count=len(uniq_list), dtype=np.int64,
        )
        if add_new:
            missing = np.nonzero(mapped < 0)[0]
            if missing.size:
                for i in missing.tolist():
                    idx = len(self._keys)
                    key = uniq_list[i]
                    self._lookup[key] = idx
                    self._keys.append(key)
                    mapped[i] = idx
                self._version += 1
                token = self._memo_token(keys, add_new)
        result = mapped[inverse.reshape(keys.shape)]
        if token is not None:
            self._memo = (token, result.copy())
        return result

    def copy(self) -> "GroupIndex":
        out = GroupIndex()
        out._lookup = dict(self._lookup)
        out._keys = list(self._keys)
        out._version = self._version
        return out


def _null_first(key):
    """Sort key placing NULL (None) before every value, inside composite
    (tuple) keys too, so None is never compared with a value."""
    if isinstance(key, tuple):
        return tuple(_null_first(part) for part in key)
    return (key is not None, key)


def _unique_objects(keys: np.ndarray):
    """``np.unique(keys, return_inverse=True)`` for object keys that may
    hold NULL (a ``LEFT JOIN``'s unmatched dimension columns).

    NULL forms one group of its own, ordered first; keys without NULL
    take numpy's path and encode exactly as before.
    """
    try:
        uniq, inverse = np.unique(keys, return_inverse=True)
        return uniq.tolist(), inverse
    except TypeError:  # None met a value in numpy's sort
        pass
    flat = keys.ravel().tolist()
    uniq_list = sorted(set(flat), key=_null_first)
    position = {key: i for i, key in enumerate(uniq_list)}
    inverse = np.fromiter((position[key] for key in flat),
                          count=len(flat), dtype=np.int64)
    return uniq_list, inverse


GLOBAL_GROUP = None  # sentinel meaning "no GROUP BY": a single implicit group


#: Cells of the float64 ``(rows, width)`` transients a fold kernel holds
#: at once (2 MB).  Folds bigger than this — a guard rebuild replays
#: every retained row — walk the weight rectangle in row blocks.
_BLOCK_CELLS = 1 << 18

#: Reservoir size (rows per group) of a mergeable quantile state.
QUANTILE_CAPACITY = 4096


def _grouped_sum(group_idx: np.ndarray, weights: np.ndarray, groups: int,
                 values: Optional[np.ndarray] = None,
                 center: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-(group, column) sums of each row's contribution: the batch delta.

    A row adds ``weights`` to its group's cells, times ``values`` when
    given; with a ``(groups, width)`` ``center`` as well it adds
    ``weights * (values - center[group]) ** 2`` (VAR's squared
    deviations from the batch means).  Contributions are made a column
    or a row block at a time, so no float64 ``(n, width)`` rectangle
    over ``_BLOCK_CELLS`` is ever built.

    Every cell is the float64 sum of its contributions added in row
    order from +0.0 — what one ``bincount`` per trial column gives — so
    the result is bit-identical however the columns are chunked or
    sharded across workers, the property the parallel bootstrap path
    relies on.  The reduction is picked from what is exact by
    construction:

    * integer weights with no ``values`` into one group (COUNT, the
      counts of AVG/VAR/DISTINCT) are an int64 column sum — integers add
      exactly in any order, and every cell fits float64 exactly;
    * other one-group sums of width >= 2 are ``np.add.reduce`` over the
      rows of C-order float64 blocks: reducing the non-contiguous axis
      adds row by row across all columns, each cell still in row order
      from +0.0, as ``width`` independent chains instead of one
      ``bincount`` accumulator.  Each block's first row carries the
      running sums, so blocks continue one chain (a NaN cell is redone
      by ``bincount``: which of two NaNs an add keeps is up to the
      loop);
    * everything else takes the per-column ``bincount``.  Width 1 must:
      reducing along the contiguous axis switches numpy to pairwise
      summation, which reorders the adds.
    """
    n, width = weights.shape
    out = np.zeros((groups, width))
    if n == 0 or groups == 0 or width == 0:
        return out

    def column(c):
        w = weights[:, c]
        if values is None:
            return w
        if center is None:
            return values * w
        return w * (values - center[group_idx, c]) ** 2

    if groups == 1:
        if values is None and weights.dtype.kind in "ui":
            # An F-order copy sums column by column; a C-order uint8
            # array (a row gather) sums into int64 several times slower.
            out[0] = np.asfortranarray(weights).sum(axis=0, dtype=np.int64)
            return out
        if width > 1:
            step = max(1, _BLOCK_CELLS // width)
            block = np.empty((min(n, step) + 1, width))
            for lo in range(0, n, step):
                rows = slice(lo, min(n, lo + step))
                part = block[: rows.stop - lo + 1]
                part[0] = out[0]
                w = weights[rows]
                if values is None:
                    part[1:] = w
                elif center is None:
                    np.multiply(values[rows, None], w, out=part[1:])
                else:
                    np.multiply(w, (values[rows, None] - center[0]) ** 2,
                                out=part[1:])
                np.add.reduce(part, axis=0, out=out[0])
            # Two NaNs meeting in a cell keep whichever operand the add
            # loop favours, which need not be bincount's: redo NaN cells.
            for c in np.flatnonzero(np.isnan(out[0])).tolist():
                out[0, c] = np.bincount(group_idx, weights=column(c))[0]
            return out
    for c in range(width):
        out[:, c] = np.bincount(group_idx, weights=column(c),
                                minlength=groups)
    return out


def _as_weight_matrix(weights, n: int, width: int) -> np.ndarray:
    """Normalize ``weights`` to an ``(n, width)`` matrix.

    A 2-D uint8 rectangle (the session's stored bootstrap weights) comes
    back as it is: the kernels take uint8 directly, counts sum as
    integers and every other use promotes each small integer to float64
    exactly (see ``_grouped_sum``).  Anything else becomes float64.
    """
    if weights is None:
        return np.ones((n, width), dtype=np.float64)
    w = np.asarray(weights)
    if w.ndim == 1:
        w = w.astype(np.float64, copy=False)
        if len(w) != n:
            raise ExecutionError(f"weights length {len(w)} != rows {n}")
        return np.repeat(w[:, None], width, axis=1) if width > 1 else w[:, None]
    if w.dtype != np.uint8:
        w = w.astype(np.float64, copy=False)
    if w.shape != (n, width):
        raise ExecutionError(
            f"weight matrix shape {w.shape} != ({n}, {width})"
        )
    return w


def _numeric(values, what: str) -> np.ndarray:
    """``values`` as float64, or ExecutionError naming ``what``."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ExecutionError(
            f"{what}: argument is not numeric ({exc})"
        ) from None


def argument_values(call: AggregateCall, raw, n: int) -> np.ndarray:
    """``call``'s evaluated argument as ``(n,)`` float64 values."""
    values = _numeric(raw, call.sql())
    return np.broadcast_to(values, (n,)).copy() if values.ndim == 0 else values


class AggState:
    """Base class for mergeable aggregate states.

    Subclasses store per-group arrays of shape ``(G, W)`` where ``W`` is 1
    for exact states and the number of bootstrap trials otherwise.
    ``finalize`` returns ``(G,)`` for exact states and ``(G, W)`` for trial
    states.

    States whose per-trial cells are independent along the trial axis set
    ``supports_column_merge`` and implement ``_merge_columns``: a shard
    state of width ``w`` built from trial columns ``[o, o+w)`` folds back
    into the full-width state via :meth:`merge_columns`.  Reservoir and
    user-defined states (cross-trial shared structure) keep the default
    False and take the dense path.

    A dense state declares its per-group arrays once, in ``_arrays``,
    with the ``_fill`` of a new group's cells; ``_alloc``, ``copy``,
    ``_merge`` (a merge of every column) and an additive
    ``_merge_columns`` follow from the declaration.
    """

    supports_column_merge = False
    #: Names of the state's ``(G, W)`` float64 arrays.
    _arrays: Tuple[str, ...] = ()
    #: The value a new group's cells start at.
    _fill = 0.0

    def __init__(self, trials: Optional[int] = None):
        self.trials = trials
        self.width = trials if trials is not None else 1
        self.num_groups = 0
        for name in self._arrays:
            setattr(self, name, np.empty((0, self.width)))

    # -- subclass hooks -------------------------------------------------

    def _alloc(self, groups: int) -> None:
        for name in self._arrays:
            grown = np.full((groups, self.width), self._fill)
            grown[: self.num_groups] = getattr(self, name)
            setattr(self, name, grown)

    def _update(self, group_idx: np.ndarray, values: Optional[np.ndarray],
                weights: np.ndarray) -> None:
        raise NotImplementedError

    def _merge(self, other: "AggState") -> None:
        self._merge_columns(other, slice(None))

    def _merge_columns(self, other: "AggState", cols: slice) -> None:
        for name in self._arrays:
            getattr(self, name)[: other.num_groups, cols] += \
                getattr(other, name)

    def _finalize(self, scale: float) -> np.ndarray:
        raise NotImplementedError

    # -- public API ------------------------------------------------------

    def ensure_groups(self, groups: int) -> None:
        """Grow state storage to cover ``groups`` dense group indices."""
        if groups > self.num_groups:
            self._alloc(groups)
            self.num_groups = groups

    def update(self, group_idx: np.ndarray, values, weights=None,
               groups: Optional[int] = None) -> None:
        """Fold a vector of rows into the state.

        Args:
            group_idx: ``(n,)`` dense group indices (all >= 0).
            values: ``(n,)`` argument values, or None for COUNT(*).
            weights: None (weight 1), ``(n,)``, or ``(n, W)`` trial weights.
            groups: Precomputed ``group_idx.max() + 1``; shard workers
                pass their per-segment memo so multi-alias folds scan
                the index vector for its max only once.
        """
        group_idx = np.asarray(group_idx, dtype=np.int64)
        n = len(group_idx)
        if n == 0:
            return
        self.ensure_groups(
            int(group_idx.max()) + 1 if groups is None else groups
        )
        if values is not None:
            values = _numeric(values, type(self).__name__)
            if len(values) != n:
                raise ExecutionError(
                    f"values length {len(values)} != group_idx length {n}"
                )
        w = _as_weight_matrix(weights, n, self.width)
        self._update(group_idx, values, w)

    def merge(self, other: "AggState") -> None:
        """Fold ``other`` (same type/width) into this state, in place."""
        if type(other) is not type(self) or other.width != self.width:
            raise ExecutionError(
                f"cannot merge {type(other).__name__}(W={other.width}) into "
                f"{type(self).__name__}(W={self.width})"
            )
        self.ensure_groups(other.num_groups)
        self._merge(other)

    def merge_columns(self, other: "AggState", col_offset: int) -> None:
        """Fold a trial-shard state into columns ``[o, o + other.width)``.

        ``other`` must be the same state type, built from exactly the
        trial-weight columns starting at ``col_offset`` of this state's
        width.  The result is bit-identical to having updated this state
        with the full-width weight matrix (see ``_grouped_sum``).
        """
        if not self.supports_column_merge:
            raise ExecutionError(
                f"{type(self).__name__} does not support column merges"
            )
        if type(other) is not type(self):
            raise ExecutionError(
                f"cannot column-merge {type(other).__name__} into "
                f"{type(self).__name__}"
            )
        if col_offset < 0 or col_offset + other.width > self.width:
            raise ExecutionError(
                f"column shard [{col_offset}, {col_offset + other.width}) "
                f"outside width {self.width}"
            )
        self.ensure_groups(other.num_groups)
        self._merge_columns(other, slice(col_offset, col_offset + other.width))

    def finalize(self, scale: float = 1.0) -> np.ndarray:
        """The aggregate value(s): ``(G,)`` exact or ``(G, W)`` per trial."""
        out = self._finalize(float(scale))
        if self.trials is None:
            return out[:, 0]
        return out

    def copy(self) -> "AggState":
        out = type(self)(self.trials)
        out.num_groups = self.num_groups
        for name in self._arrays:
            setattr(out, name, getattr(self, name).copy())
        return out


class SumState(AggState):
    """Weighted SUM.  Estimate of the population sum scales by ``k/i``."""

    supports_column_merge = True
    _arrays = ("wsum",)

    def _update(self, group_idx, values, weights):
        # Batch delta first, then one += — the same per-cell accumulation
        # order whether the trial columns arrive whole or as shards.
        self.wsum += _grouped_sum(
            group_idx, weights, self.num_groups, values=values
        )

    def _finalize(self, scale):
        return self.wsum * scale


class CountState(AggState):
    """Weighted COUNT (argument, if any, is ignored: the engine has no NULLs)."""

    supports_column_merge = True
    _arrays = ("wcount",)

    def _update(self, group_idx, values, weights):
        self.wcount += _grouped_sum(group_idx, weights, self.num_groups)

    def _finalize(self, scale):
        return self.wcount * scale


class AvgState(AggState):
    """Weighted AVG = weighted sum / weighted count.  Scale-invariant."""

    supports_column_merge = True
    _arrays = ("wsum", "wcount")

    def _update(self, group_idx, values, weights):
        self.wsum += _grouped_sum(
            group_idx, weights, self.num_groups, values=values
        )
        self.wcount += _grouped_sum(group_idx, weights, self.num_groups)

    def _finalize(self, scale):
        out = np.zeros_like(self.wsum)
        np.divide(self.wsum, self.wcount, out=out, where=self.wcount > 0)
        return out


class VarState(AggState):
    """Weighted sample variance via Chan's parallel (count, mean, M2).

    Numerically stable under incremental updates and merges (no
    sum-of-squares cancellation): constant inputs give exactly zero
    variance regardless of how the data was split across batches.
    """

    supports_column_merge = True
    _arrays = ("wcount", "mean", "m2")

    def _update(self, group_idx, values, weights):
        # Combine groups [0, batch max] only, the rows a shard state of
        # this batch holds: a full-width update then leaves every cell as
        # the pooled path's column merge does (combining no rows still
        # turns a +-inf mean into NaN, through inf * 0).
        groups = int(group_idx.max()) + 1
        bw = _grouped_sum(group_idx, weights, groups)
        bwv = _grouped_sum(group_idx, weights, groups, values=values)
        bmean = np.zeros((groups, self.width))
        np.divide(bwv, bw, out=bmean, where=bw > 0)
        bm2 = _grouped_sum(group_idx, weights, groups, values=values,
                           center=bmean)
        self._combine(bw, bmean, bm2)

    def _combine(self, bw, bmean, bm2, cols=slice(None)):
        # Chan's pairwise combine over the columns selected by ``cols``.
        # Every expression is per-(group, column) independent, so a shard
        # combined into its own column range matches the full-width path
        # bit for bit.
        g = len(bw)
        old_count = self.wcount[:g, cols]
        total = old_count + bw
        delta = bmean - self.mean[:g, cols]
        ratio = np.zeros_like(total)
        np.divide(bw, total, out=ratio, where=total > 0)
        self.mean[:g, cols] += delta * ratio
        self.m2[:g, cols] += bm2 + delta ** 2 * old_count * ratio
        self.wcount[:g, cols] = total

    def _merge_columns(self, other, cols):
        self._combine(other.wcount, other.mean, other.m2, cols)

    def _finalize(self, scale):
        var = np.zeros_like(self.m2)
        denom = self.wcount - 1.0
        np.divide(self.m2, denom, out=var, where=denom > 0)
        return np.clip(var, 0.0, None)


class StdevState(VarState):
    """Weighted sample standard deviation."""

    def _finalize(self, scale):
        return np.sqrt(super()._finalize(scale))


class MinState(AggState):
    """MIN.  Weights only matter as presence (weight 0 = absent).

    A trial batch is folded in one pass over the whole ``(n, B)``
    rectangle: rows are put in group order by one stable ``argsort``,
    absent cells are masked to the fill (+inf for MIN, -inf for MAX),
    one ``reduceat`` gives every ``(group, trial)`` cell's batch extreme,
    and one elementwise ``minimum``/``maximum`` merges it into the live
    state — the step ``_merge_columns`` makes for shards.  The result
    equals the per-cell ``ufunc.at`` scatter in row order bit for bit:
    between equal values (+0.0 and -0.0) both keep the later operand,
    however the sequence is grouped, and a masked fill is never kept
    over a present value it does not equal.  Which of two NaN payloads
    a reduction keeps is up to numpy's loop, so a cell whose batch
    extreme is NaN is redone by the scatter.  Folds over
    ``_BLOCK_CELLS`` go one row block after another, which is the
    scatter's order too.  Width 1 keeps the scatter.
    """

    supports_column_merge = True
    _arrays = ("extreme",)
    _fill = np.inf
    _ufunc = np.minimum

    def _update(self, group_idx, values, weights):
        if self.width == 1:
            present = weights[:, 0] > 0
            with np.errstate(invalid="ignore"):  # a NaN argument propagates
                self._ufunc.at(
                    self.extreme[:, 0], group_idx[present], values[present]
                )
            return
        step = max(1, _BLOCK_CELLS // self.width)
        for lo in range(0, len(group_idx), step):
            rows = slice(lo, lo + step)
            self._fold_rows(group_idx[rows], values[rows], weights[rows])

    def _fold_rows(self, group_idx, values, weights):
        order = np.argsort(group_idx, kind="stable")
        ordered = group_idx[order]
        values = values[order]
        present = weights[order] > 0
        starts = np.flatnonzero(np.diff(ordered, prepend=-1))
        groups = ordered[starts]
        live = self.extreme[groups]
        with np.errstate(invalid="ignore"):  # a NaN argument propagates
            batch = self._ufunc.reduceat(
                np.where(present, values[:, None], self._fill), starts,
                axis=0,
            )
            merged = self._ufunc(live, batch)
        redo = np.isnan(batch)
        if not redo.any():
            self.extreme[groups] = merged
            return
        # NaN cells restart from their live value and scatter their
        # present rows in row order.
        merged[redo] = live[redo]
        self.extreme[groups] = merged
        segment = np.repeat(np.arange(len(starts)),
                            np.diff(np.append(starts, len(ordered))))
        rows, cols = np.nonzero(present & redo[segment])
        flat = self.extreme.view()
        flat.shape = (-1,)  # raises (never copies) if non-contiguous
        with np.errstate(invalid="ignore"):
            self._ufunc.at(flat, ordered[rows] * self.width + cols,
                           values[rows])

    def _merge_columns(self, other, cols):
        g = other.num_groups
        self.extreme[:g, cols] = self._ufunc(
            self.extreme[:g, cols], other.extreme
        )

    def _finalize(self, scale):
        return self.extreme


class MaxState(MinState):
    """MAX (see MinState)."""

    _fill = -np.inf
    _ufunc = np.maximum


class QuantileState(AggState):
    """Approximate QUANTILE via a bounded uniform reservoir.

    Supports grouped aggregation: the reservoir keeps up to ``capacity``
    rows — value, dense group index, and per-trial weight row — so
    bootstrap replicas are weighted quantiles over the same reservoir,
    evaluated per group segment.  The reservoir is a uniform sample of
    everything seen (uniform within every group too), so the estimate
    converges like any other running aggregate.

    Reservoir weights keep the dtype they arrive in — the stored uint8
    rectangle's rows for trial states — so a full reservoir holds
    ``capacity * trials`` bytes of them.
    """

    def __init__(self, trials=None, q: float = 0.5,
                 capacity: int = QUANTILE_CAPACITY, seed: int = 0):
        super().__init__(trials)
        if not 0.0 <= q <= 1.0:
            raise ExecutionError(f"quantile fraction {q} outside [0, 1]")
        self.q = q
        self.capacity = capacity
        self.seen = 0
        self.values = np.empty(0)
        self.group_of = np.empty(0, dtype=np.int64)
        # uint8 promotes to whatever arrives (float64 ones when exact).
        self.weights = np.empty((0, self.width), dtype=np.uint8)
        self._rng = np.random.default_rng(seed)

    def _alloc(self, groups):
        pass  # rows carry their own group index; no per-group storage

    def _update(self, group_idx, values, weights):
        self._absorb(values, group_idx, weights, len(values))

    def _merge(self, other):
        self._absorb(other.values, other.group_of, other.weights, other.seen)

    def _absorb(self, values, group_of, weights, seen):
        """Append rows, then subsample to ``capacity`` uniformly.

        The kept positions index the old reservoir followed by the new
        rows; they are gathered from each side directly, so the whole
        concatenation is never built.
        """
        self.seen += seen
        have = len(self.values)
        total = have + len(values)
        old, new = slice(None), slice(None)
        if total > self.capacity:
            keep = self._rng.choice(total, size=self.capacity, replace=False)
            keep.sort()
            split = int(np.searchsorted(keep, have))
            old, new = keep[:split], keep[split:] - have
        self.values = np.concatenate([self.values[old], values[new]])
        self.group_of = np.concatenate([self.group_of[old], group_of[new]])
        self.weights = np.concatenate([self.weights[old], weights[new]])

    def _finalize(self, scale):
        # Exactly num_groups rows: a grouped aggregate over empty input
        # has zero groups and must produce zero rows (group-key columns
        # are empty too); the global path always ensures group 0 exists.
        out = np.zeros((self.num_groups, self.width))
        if len(self.values) == 0:
            return out
        # One stable sort by (group, value) leaves each group's rows a
        # contiguous segment in value order, ties in reservoir order.
        order = np.lexsort((self.values, self.group_of))
        vals = self.values[order]
        groups = self.group_of[order]
        weights = self.weights[order]
        # uint8 running sums are exact in int32 below 2**31 // 255 rows,
        # and half float64's bytes (the running sums are most of the
        # cost); float weights keep float64 sums in the same order.
        acc = (np.int32 if weights.dtype == np.uint8
               and len(weights) < 2 ** 31 // 255 else np.float64)
        starts = np.flatnonzero(np.diff(groups, prepend=-1))
        ends = np.append(starts[1:], len(groups))
        for g, lo, hi in zip(groups[starts].tolist(), starts.tolist(),
                             ends.tolist()):
            cum = np.cumsum(weights[lo:hi], axis=0, dtype=acc)
            total = cum[-1]
            # Batched left-searchsorted of each column's target into its
            # own cumulative column: entries strictly below the target.
            pos = np.count_nonzero(cum < self.q * total, axis=0)
            est = vals[lo + np.minimum(pos, hi - lo - 1)]
            out[g] = np.where(total > 0, est, 0.0)
        return out

    def copy(self):
        out = QuantileState(self.trials, q=self.q, capacity=self.capacity)
        out.num_groups = self.num_groups
        out.seen = self.seen
        out.values = self.values.copy()
        out.group_of = self.group_of.copy()
        out.weights = self.weights.copy()
        # A clone of the generator: copying must not advance the
        # source's subsampling stream.
        out._rng = deepcopy(self._rng)
        return out


class DistinctState(AggState):
    """COUNT/SUM/AVG DISTINCT via per-(group, value) pair weight sums.

    Deduplication happens *after* resampling: a (group, value) pair
    contributes to trial ``t`` iff its accumulated Poisson weight in that
    trial is positive — a value "survives" a bootstrap replica when at
    least one of its rows does, which is the resampling-consistent
    semantics.

    Replicating seen rows adds no distinct value, so the ``k/i``
    multiset rescaling cannot account for species not yet observed:
    mid-run, "distinct seen so far" is biased low and its bootstrap
    intervals under-cover (caught by the ``t_dist`` calibration query).
    ``finalize`` therefore adds a two-term Good-Toulmin correction:
    with fraction ``1/scale`` of the data folded and ``t = scale - 1``,
    the expected number of still-unseen species is
    ``t * phi_1 - t^2 * phi_2 + ...`` (alternating series over the
    singleton/doubleton counts), clamped at zero per group because the
    truth is never below distinct-seen.  The correction vanishes at the
    final batch (``scale == 1``) where the answer equals the exact
    batch answer.  Trial columns compute their own per-replica phi
    counts (so the bootstrap spread reflects the extrapolation's
    uncertainty) plus a deterministic recentering term derived from the
    raw multiplicities — Poissonized replicas of a distinct count are
    biased low by ``sum_i e^-c_i``, and without the recentering the
    basic (reverse-percentile) intervals sit systematically off the
    estimate (caught by the ``t_dist`` calibration query).

    Values are keyed by their float64 bit pattern (NaNs canonicalized
    first) so dedup is exact and identical however the rows are batched.
    A batch's pairs encode without a Python object per row: the value
    bits are ranked (``np.unique``), and ``group * n_values + rank`` is
    one int64 whose ascending order is the ``(group, bits)`` tuple order,
    because ranks are dense and below ``n_values``.  Only the batch's
    distinct pairs reach ``pairs`` (still keyed by those tuples), so new
    pairs get their dense ids in the same order a per-row tuple encode
    gives them.  ``pair_group``/``pair_bits`` hold each pair's two halves
    for ``_finalize``.
    """

    def __init__(self, trials=None, mode: str = "count"):
        super().__init__(trials)
        if mode not in ("count", "sum", "avg"):
            raise ExecutionError(f"unsupported DISTINCT mode {mode!r}")
        self.mode = mode
        self.pairs = GroupIndex()
        self.wsum = np.zeros((0, self.width))
        # Raw (unweighted) row multiplicity per pair: the trial state
        # sees only Poisson weights, but both the Good-Toulmin singleton
        # set and the replica recentering need the true counts.
        self.raw = np.zeros(0)
        self.pair_group = np.zeros(0, dtype=np.int64)
        self.pair_bits = np.zeros(0, dtype=np.int64)

    def _alloc(self, groups):
        pass  # num_groups sizes the output; pair storage grows in _update

    _PAIR_ARRAYS = ("wsum", "raw", "pair_group", "pair_bits")

    def _ensure_pairs(self, count: int) -> None:
        have = len(self.raw)
        if count > have:
            for name in self._PAIR_ARRAYS:
                arr = getattr(self, name)
                grown = np.zeros((count,) + arr.shape[1:], dtype=arr.dtype)
                grown[:have] = arr
                setattr(self, name, grown)

    def _encode_pairs(self, group, bits) -> np.ndarray:
        """Dense pair ids of distinct ``(group, bits)`` pairs, recorded."""
        keys = np.empty(len(group), dtype=object)
        keys[:] = list(zip(group.tolist(), bits.tolist()))
        ids = self.pairs.encode(keys)
        self._ensure_pairs(self.pairs.num_groups)
        self.pair_group[ids] = group
        self.pair_bits[ids] = bits
        return ids

    @staticmethod
    def _value_bits(values: np.ndarray) -> np.ndarray:
        vals = np.array(values, dtype=np.float64)
        nan = np.isnan(vals)
        if nan.any():
            vals[nan] = np.nan  # one canonical NaN bit pattern
        return vals.view(np.int64)

    def _update(self, group_idx, values, weights):
        if values is None:
            raise ExecutionError("DISTINCT aggregates require an argument")
        uniq_bits, rank = np.unique(self._value_bits(values),
                                    return_inverse=True)
        nvalues = len(uniq_bits)
        packed, inverse = np.unique(group_idx * nvalues + rank,
                                    return_inverse=True)
        ids = self._encode_pairs(packed // nvalues,
                                 uniq_bits[packed % nvalues])
        pair_idx = ids[inverse]
        self.wsum += _grouped_sum(pair_idx, weights, len(self.wsum))
        self.raw += np.bincount(pair_idx, minlength=len(self.raw))

    def _merge(self, other):
        count = other.pairs.num_groups
        if count == 0:
            return
        idx = self._encode_pairs(other.pair_group[:count],
                                 other.pair_bits[:count])
        np.add.at(self.wsum, idx, other.wsum[:count])
        np.add.at(self.raw, idx, other.raw[:count])

    def _finalize(self, scale):
        # num_groups rows exactly — see QuantileState._finalize: one
        # phantom row over an empty grouped input makes a ragged table.
        groups = self.num_groups
        out = np.zeros((groups, self.width))
        npairs = self.pairs.num_groups
        if npairs == 0:
            return out
        group_of = self.pair_group[:npairs]
        present = (self.wsum[:npairs] > 0).astype(np.float64)
        # Per-pair mass decomposes into "seen" presence plus Good-Toulmin
        # singleton/doubleton terms (combined per group further down).
        # Exact state (trials is None): presence is 1 for every pair and
        # the phi_k indicators test the raw multiplicity c.  Trial
        # states keep the resampling variability — a pair with raw count
        # c draws Poisson(c)-distributed weight, so its presence has
        # mean 1 - e^-c, its weight==1 indicator mean c * e^-c and its
        # weight==2 indicator mean c^2 * e^-c / 2, all biased away from
        # the exact state's indicators — plus the deterministic residual
        # recentering each replica on its point-column expectation.
        # Without that recentering the basic (reverse-percentile)
        # intervals sit systematically off the estimate.
        t = max(float(scale) - 1.0, 0.0)
        c_raw = self.raw[:npairs]
        sing1 = (c_raw == 1.0).astype(np.float64)
        sing2 = (c_raw == 2.0).astype(np.float64)
        if self.trials is None:
            base = present
            phi1 = sing1[:, None] * np.ones((1, self.width))
            phi2 = sing2[:, None] * np.ones((1, self.width))
        else:
            exp_absent = np.exp(-c_raw)
            base = present + exp_absent[:, None]
            phi1 = ((self.wsum[:npairs] == 1)
                    + (sing1 - c_raw * exp_absent)[:, None])
            phi2 = ((self.wsum[:npairs] == 2)
                    + (sing2 - 0.5 * c_raw ** 2 * exp_absent)[:, None])

        def _group(mass, guard=None):
            outm = np.zeros((groups, self.width))
            for col in range(self.width):
                w = mass[:, col]
                if guard is not None:
                    # 0 * NaN is NaN: zero out zero-mass pairs so a
                    # NaN-valued pair only poisons columns it has mass
                    # in.
                    w = np.where(guard[:, col] != 0, w, 0.0)
                outm[:, col] = np.bincount(
                    group_of, weights=w, minlength=groups
                )
            return outm

        def _truncations(g1, g2):
            """Clamped first-order and two-term GT unseen-count series.

            Consecutive partial sums of the alternating Good-Toulmin
            series bracket the expected unseen count: first order
            (t * phi_1) over-extrapolates on near-saturated Zipf-ish
            domains, the two-term sum under-extrapolates long tails.
            The clamp at zero encodes that truth is never below
            distinct-seen.  Both vanish at the final batch (t == 0),
            keeping the last answer exact.
            """
            u1 = np.clip(t * g1, 0.0, None)
            u2 = np.clip(t * g1 - t * t * g2, 0.0, None)
            return u1, u2

        def _blend(u1, u2):
            """Mix the bracketing truncations across columns.

            The exact state (width 1) takes the midpoint as the point
            estimate; trial states alternate the truncation order by
            column parity, so the replica spread covers the whole
            bracket and the basic (reverse-percentile) interval spans
            [D + u2 - noise, D + u1 + noise] — truncation uncertainty
            becomes interval width instead of hidden bias.
            """
            if self.trials is None:
                return 0.5 * (u1 + u2)
            mixed = u2.copy()
            mixed[:, 0::2] = u1[:, 0::2]
            return mixed

        counts = _group(base)
        u_count = None
        if t > 0.0:
            u1, u2 = _truncations(_group(phi1), _group(phi2))
            u_count = _blend(u1, u2)
            counts = counts + u_count
        if self.mode == "count":
            return counts
        vals = self.pair_bits[:npairs].view(np.float64)
        sums = _group(vals[:, None] * base, guard=base)
        if u_count is not None:
            # Value-weighted GT for SUM: the k-ton pairs' own values
            # stand in for the unseen tail; dropped wherever the count
            # correction clamped to zero.
            v1 = _group(vals[:, None] * phi1, guard=phi1)
            v2 = _group(vals[:, None] * phi2, guard=phi2)
            s1 = np.where(u_count > 0, t * v1, 0.0)
            s2 = np.where(u_count > 0, t * v1 - t * t * v2, 0.0)
            sums = sums + _blend(s1, s2)
        if self.mode == "sum":
            return sums
        avg = np.zeros_like(sums)
        np.divide(sums, counts, out=avg, where=counts > 0)
        return avg

    def copy(self):
        out = DistinctState(self.trials, mode=self.mode)
        out.num_groups = self.num_groups
        out.pairs = self.pairs.copy()
        for name in self._PAIR_ARRAYS:
            setattr(out, name, getattr(self, name).copy())
        return out


class UDAFState(AggState):
    """Adapter turning user-supplied callables into a mergeable state.

    The user provides ``init() -> state``, ``update(state, values, weights)
    -> state``, ``merge(a, b) -> state`` and ``finalize(state) -> float``.
    Global aggregation and exact (non-bootstrap) execution only: the
    general bootstrap contract requires per-trial states, which arbitrary
    user code cannot promise.  This mirrors the paper's UDAF support.
    """

    def __init__(self, spec: "UDAFSpec", trials=None):
        if trials is not None:
            raise ExecutionError(
                f"UDAF {spec.name!r} does not support bootstrap trials"
            )
        super().__init__(None)
        self.spec = spec
        self.state = spec.init()

    def _alloc(self, groups):
        if groups > 1:
            raise ExecutionError("UDAFs support global aggregation only")

    def _update(self, group_idx, values, weights):
        self.state = self.spec.update(self.state, values, weights[:, 0])

    def _merge(self, other):
        self.state = self.spec.merge(self.state, other.state)

    def _finalize(self, scale):
        return np.array([[self.spec.finalize(self.state, scale)]])

    def copy(self):
        out = UDAFState(self.spec)
        out.num_groups = self.num_groups
        out.state = self.spec.merge(self.spec.init(), self.state)
        return out


@dataclass(frozen=True)
class UDAFSpec:
    """Registration record for a user-defined aggregate."""

    name: str
    init: Callable
    update: Callable
    merge: Callable
    finalize: Callable


class UDAFRegistry:
    """Name -> UDAFSpec registry attached to a session."""

    def __init__(self) -> None:
        self._specs: Dict[str, UDAFSpec] = {}

    def register(self, spec: UDAFSpec, replace: bool = False) -> None:
        key = spec.name.lower()
        if key in self._specs and not replace:
            raise PlanError(f"UDAF {spec.name!r} already registered")
        self._specs[key] = spec

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._specs

    def get(self, name: str) -> UDAFSpec:
        return self._specs[name.lower()]


_BUILTIN_AGGREGATES = {
    "sum": SumState,
    "count": CountState,
    "avg": AvgState,
    "mean": AvgState,
    "min": MinState,
    "max": MaxState,
    "var": VarState,
    "variance": VarState,
    "stdev": StdevState,
    "stddev": StdevState,
}

AGGREGATE_NAMES = frozenset(_BUILTIN_AGGREGATES) | {"quantile", "median"}


def is_aggregate_name(name: str, udafs: Optional[UDAFRegistry] = None) -> bool:
    """Whether ``name`` names a built-in aggregate or a registered UDAF."""
    key = name.lower()
    return key in AGGREGATE_NAMES or (udafs is not None and key in udafs)


def make_state(call: AggregateCall, trials: Optional[int] = None,
               udafs: Optional[UDAFRegistry] = None,
               seed: int = 0) -> AggState:
    """Create a fresh mergeable state for ``call``."""
    key = call.func
    if call.distinct:
        mode = {"mean": "avg"}.get(key, key)
        if mode in ("count", "sum", "avg"):
            return DistinctState(trials, mode=mode)
        raise PlanError(
            f"DISTINCT is not supported for aggregate {call.func!r}"
        )
    if key in _BUILTIN_AGGREGATES:
        return _BUILTIN_AGGREGATES[key](trials)
    if key == "quantile":
        q = call.param if call.param is not None else 0.5
        return QuantileState(trials, q=q, seed=seed)
    if key == "median":
        return QuantileState(trials, q=0.5, seed=seed)
    if udafs is not None and key in udafs:
        return UDAFState(udafs.get(key), trials)
    raise PlanError(f"unknown aggregate function {call.func!r}")
