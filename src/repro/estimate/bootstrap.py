"""Bootstrap error estimation.

Two flavours:

* **Poissonized bootstrap** (the default, inherited from BlinkDB): each of
  the ``B`` trials assigns every incoming tuple an i.i.d. Poisson(1)
  weight.  Because Poisson weights are assigned *once at arrival* and
  folded into per-trial mergeable aggregate states, maintaining all ``B``
  replicas across mini-batches costs ``O(B · |ΔD|)`` vectorized work per
  batch — no data is ever revisited.  The weights for a batch are drawn
  once and shared by every lineage block, so each trial ``j`` sees one
  consistent simulated database ``D_{i,j}`` across nested subqueries.

* **Multinomial (classical) bootstrap** for validation: explicit
  resampling of a concrete sample, used by tests to check the poissonized
  estimates and by the closed-form comparisons.

Weight streams are derived **per (batch, trial)** from the master seed:
trial ``t`` of batch ``i`` always draws the same column no matter how
the trial axis is sharded across workers, which is what makes parallel
bootstrap maintenance (``repro.parallel``) bit-identical to serial
execution for any worker count.  It also makes the stream *stateless*:
any batch/trial rectangle can be (re)generated on any process from the
``(master_seed, label)`` pair alone.

Weights are ``uint8`` from draw to fold (Poisson(1) never exceeds 18
here); :func:`repro.engine.aggregates._as_weight_matrix` is the one
place they widen to float64, exactly.  A session's
:class:`~repro.core.store.BatchStore` keeps each streamed table's
rectangles once drawn, so every query, lineage block and rebuild of the
session reads the same draw.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..errors import CheckpointError
from ..obs import NULL_TRACER, Tracer
from .random_source import derive_rng

if TYPE_CHECKING:
    from ..core.store import BatchStore


def _poisson1_tables():
    """Inverse-CDF tables for Poisson(1) weight draws.

    The CDF saturates to 1.0 (within float64) at k = 18, truncating a
    tail of mass ~1e-18 — unobservable at any realistic draw volume.
    The 4096-bucket quantization maps a uniform draw straight to its
    weight for every bucket that lies inside one CDF step; only the
    handful of buckets straddling a step (7 of 4096) fall back to a
    binary search, so the transform costs ~one table lookup per row.
    """
    pmf, term = [], float(np.exp(-1.0))
    for k in range(40):
        pmf.append(term)
        term /= (k + 1)
    cdf = np.cumsum(pmf)
    cdf = cdf[: int(np.searchsorted(cdf, 1.0 - 1e-18)) + 1]
    buckets = 4096
    grid = np.arange(buckets, dtype=np.float64) / buckets
    k_low = np.searchsorted(cdf, grid, side="right")
    k_high = np.searchsorted(
        cdf, (np.arange(buckets) + 1.0) / buckets - 1e-18, side="right"
    )
    return cdf, k_low.astype(np.uint8), k_low != k_high, buckets


_P1_CDF, _P1_BUCKET_K, _P1_AMBIGUOUS, _P1_BUCKETS = _poisson1_tables()


def stream_label(table: str) -> str:
    """The weight-stream label of a streamed table."""
    return f"bootstrap:{table}"


def poisson_trial_column(master_seed: int, label: str, batch_index: int,
                         trial: int, num_rows: int) -> np.ndarray:
    """The ``(num_rows,)`` uint8 Poisson(1) weight column of one trial.

    Pure function of ``(master_seed, label, batch_index, trial)`` — the
    unit of work a bootstrap shard regenerates locally instead of having
    the dense matrix shipped to it.  The draw is one uniform per row
    pushed through the exact Poisson(1) inverse CDF (bucket-table fast
    path, ~3x faster than ``Generator.poisson``).
    """
    rng = derive_rng(master_seed, f"{label}:b{batch_index}:t{trial}")
    u = rng.random(num_rows)
    idx = (u * _P1_BUCKETS).astype(np.int64)
    out = _P1_BUCKET_K[idx]
    ambiguous = _P1_AMBIGUOUS[idx]
    if ambiguous.any():
        sub = np.nonzero(ambiguous)[0]
        out[sub] = np.searchsorted(_P1_CDF, u[sub], side="right")
    return out


class BatchWeights:
    """Handle on one batch's ``(num_rows, trials)`` uint8 weight matrix.

    A view: with a :class:`~repro.core.store.BatchStore`,
    :meth:`dense`, :meth:`rows` and :meth:`shard` slice the store's
    rectangle.  A handle rebuilt from
    its spec (a pool worker's) has no store, and :meth:`shard` draws
    just the trial columns ``[lo, hi)`` — column-identical to the
    rectangle.  The handle pickles to its spec, never to the store, so
    it is cheap in retained-batch lists, checkpoints and shard payloads.
    """

    def __init__(self, trials: int, master_seed: int, label: str,
                 batch_index: int, num_rows: int,
                 store: Optional["BatchStore"] = None, metrics=None):
        self.trials = trials
        self.master_seed = master_seed
        self.label = label
        self.batch_index = batch_index
        self.num_rows = num_rows
        self.store = store
        #: Registry counting columns drawn (a spec-built handle has none).
        self.metrics = metrics

    def spec(self) -> dict:
        """Picklable recipe for regenerating shards on a worker."""
        return {
            "trials": self.trials,
            "master_seed": self.master_seed,
            "label": self.label,
            "batch_index": self.batch_index,
            "num_rows": self.num_rows,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "BatchWeights":
        return cls(**spec)

    def draw(self, lo: int, hi: int) -> np.ndarray:
        """Generate trial columns ``[lo, hi)``: F-order uint8, so each
        column is drawn and folded sequentially in memory."""
        if self.metrics is not None:
            self.metrics.counter("bootstrap.columns_drawn").inc(hi - lo)
        out = np.empty((self.num_rows, hi - lo), dtype=np.uint8, order="F")
        for j, trial in enumerate(range(lo, hi)):
            out[:, j] = poisson_trial_column(
                self.master_seed, self.label, self.batch_index, trial,
                self.num_rows,
            )
        return out

    def dense(self) -> np.ndarray:
        """The full ``(num_rows, trials)`` matrix (the store's, if any)."""
        if self.store is None:
            return self.draw(0, self.trials)
        return self.store.rectangle(self)

    def rows(self, row_idx: Optional[np.ndarray]) -> np.ndarray:
        """Dense weight rows for ``row_idx`` (all rows when None)."""
        dense = self.dense()
        return dense if row_idx is None else dense[row_idx]

    def shard(self, lo: int, hi: int,
              row_idx: Optional[np.ndarray] = None) -> np.ndarray:
        """Columns ``[lo, hi)`` only — the worker-side generation path."""
        block = (self.draw(lo, hi) if self.store is None
                 else self.dense()[:, lo:hi])
        return block if row_idx is None else block[row_idx]

    def __getstate__(self):
        # The spec alone: the handle regenerates identical weights
        # wherever it lands, and the store never travels.
        return self.spec()

    def __setstate__(self, state):
        self.__init__(**state)


class DenseBatchWeights:
    """Adapter giving a concrete ``(n, B)`` matrix the handle interface.

    Used where weights already exist as an array (direct
    :meth:`~repro.core.delta.BlockRuntime.process_batch` callers, rebuild
    paths over concatenated retained batches).  ``spec()`` returns None:
    shards must be sliced from the dense matrix, not regenerated.
    """

    def __init__(self, weights: np.ndarray):
        self._weights = np.asarray(weights)
        self.trials = self._weights.shape[1]
        self.num_rows = self._weights.shape[0]

    def spec(self) -> Optional[dict]:
        return None

    def dense(self) -> np.ndarray:
        return self._weights

    def rows(self, row_idx: Optional[np.ndarray]) -> np.ndarray:
        return self._weights if row_idx is None else self._weights[row_idx]

    def shard(self, lo: int, hi: int,
              row_idx: Optional[np.ndarray] = None) -> np.ndarray:
        block = self._weights[:, lo:hi]
        return block if row_idx is None else block[row_idx]


def as_batch_weights(weights):
    """Normalize an ``(n, B)`` array or handle to the handle interface."""
    if hasattr(weights, "shard") and hasattr(weights, "rows"):
        return weights
    return DenseBatchWeights(weights)


class PoissonWeightSource:
    """Hands out per-batch ``(n, B)`` Poisson(1) weight handles.

    One source per (query run, streamed table).  Each batch/trial cell
    comes from its own derived RNG stream (see module docstring), so the
    source is reproducible from the master seed, resumable without
    carrying generator state, and shardable along the trial axis with
    bit-identical results.  With a ``store`` its handles read the
    session's drawn rectangles; without one every dense read draws.
    Dense draws through :meth:`weights_for` record a ``phase:weights``
    span when tracing is enabled.
    """

    def __init__(self, trials: int, master_seed: int,
                 label: str = "bootstrap",
                 tracer: Optional[Tracer] = None,
                 store: Optional["BatchStore"] = None):
        if trials < 1:
            raise ValueError("trials must be >= 1")
        self.trials = trials
        self.master_seed = master_seed
        self.label = label
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.store = store
        #: Next batch index for callers drawing sequentially.
        self._next_batch = 0

    def batch_weights(self, num_rows: int,
                      batch_index: Optional[int] = None) -> BatchWeights:
        """A handle on one batch's weight matrix.

        ``batch_index`` defaults to (and always advances) the internal
        sequential counter, so plain per-batch iteration needs no
        bookkeeping.
        """
        if batch_index is None:
            batch_index = self._next_batch
        self._next_batch = batch_index + 1
        # Logical draws, counted at handle creation so the metric is
        # identical whether the matrix is read densely, in shards, from
        # the store or not at all; ``columns_drawn`` counts what this
        # process physically generates, so a rectangle drawn twice shows.
        metrics = self.tracer.metrics
        if metrics.enabled:
            metrics.counter("bootstrap.weights_drawn").inc(
                num_rows * self.trials
            )
        return BatchWeights(
            self.trials, self.master_seed, self.label, batch_index,
            num_rows, store=self.store,
            metrics=metrics if metrics.enabled else None,
        )

    def weights_for(self, num_rows: int,
                    batch_index: Optional[int] = None) -> np.ndarray:
        """An ``(num_rows, trials)`` uint8 Poisson(1) weight matrix."""
        handle = self.batch_weights(num_rows, batch_index)
        with self.tracer.span("phase:weights", rows_in=num_rows,
                              trials=self.trials):
            return handle.dense()

    def state_dict(self) -> dict:
        """The source's resumable state (run checkpointing).

        The per-(batch, trial) streams are stateless; only the sequential
        batch cursor needs to survive a resume.
        """
        return {"scheme": "poisson-per-trial", "next_batch": self._next_batch}

    def restore_state(self, state: dict) -> None:
        """Restore a state captured by :meth:`state_dict`."""
        if "next_batch" not in state:
            raise CheckpointError(
                "incompatible bootstrap weight-stream state (checkpoint "
                "from an older sequential-stream build)"
            )
        self._next_batch = int(state["next_batch"])


def multinomial_bootstrap(
    values: np.ndarray,
    statistic: Callable[[np.ndarray], float],
    trials: int,
    seed: int = 0,
) -> np.ndarray:
    """Classical bootstrap replicas of ``statistic`` over ``values``.

    Each trial resamples ``len(values)`` entries i.i.d. with replacement
    and evaluates the statistic — the textbook Monte-Carlo procedure of
    paper section 2.2.  Quadratic-ish in practice; for validation only.
    """
    values = np.asarray(values)
    rng = np.random.default_rng(seed)
    n = len(values)
    out = np.empty(trials, dtype=np.float64)
    for t in range(trials):
        sample = values[rng.integers(0, n, size=n)]
        out[t] = statistic(sample)
    return out


def poissonized_bootstrap(
    values: np.ndarray,
    weighted_statistic: Callable[[np.ndarray, np.ndarray], float],
    trials: int,
    seed: int = 0,
) -> np.ndarray:
    """Poissonized bootstrap replicas over a concrete value vector.

    ``weighted_statistic(values, weights)`` receives one Poisson(1)
    weight per value.  This is the one-shot analogue of what the online
    engine maintains incrementally; tests use it to validate that both
    paths agree in distribution.
    """
    values = np.asarray(values)
    rng = np.random.default_rng(seed)
    out = np.empty(trials, dtype=np.float64)
    for t in range(trials):
        weights = rng.poisson(1.0, size=len(values)).astype(np.float64)
        out[t] = weighted_statistic(values, weights)
    return out
