"""``QuantileState`` against its concatenate-then-shrink predecessor.

The reservoir now gathers the kept rows from the old and new arrays
directly, keeps the weights in the dtype they arrive in (uint8 for trial
states) and finalizes every group from one ``lexsort``; ``seen``, the
reservoir's contents and every answer must stay byte-equal to the class
kept verbatim below.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggregates import AggState, QuantileState
from repro.errors import ExecutionError


# -- the oracle: the concatenate-then-shrink reservoir, verbatim --


class ReferenceQuantileState(AggState):
    """Approximate QUANTILE via a bounded uniform reservoir.

    Supports grouped aggregation: the reservoir keeps up to ``capacity``
    rows — value, dense group index, and per-trial weight row — so
    bootstrap replicas are weighted quantiles over the same reservoir,
    evaluated per group segment.  The reservoir is a uniform sample of
    everything seen (uniform within every group too), so the estimate
    converges like any other running aggregate.
    """

    def __init__(self, trials=None, q: float = 0.5, capacity: int = 4096,
                 seed: int = 0):
        super().__init__(trials)
        if not 0.0 <= q <= 1.0:
            raise ExecutionError(f"quantile fraction {q} outside [0, 1]")
        self.q = q
        self.capacity = capacity
        self.seen = 0
        self.values = np.empty(0)
        self.group_of = np.empty(0, dtype=np.int64)
        self.weights = np.empty((0, self.width))
        self._rng = np.random.default_rng(seed)

    def _alloc(self, groups):
        pass  # rows carry their own group index; no per-group storage

    def _update(self, group_idx, values, weights):
        self.values = np.concatenate([self.values, values])
        self.group_of = np.concatenate([self.group_of, group_idx])
        self.weights = np.concatenate([self.weights, weights])
        self.seen += len(values)
        self._shrink()

    def _shrink(self):
        if len(self.values) <= self.capacity:
            return
        keep = self._rng.choice(
            len(self.values), size=self.capacity, replace=False
        )
        keep.sort()
        self.values = self.values[keep]
        self.group_of = self.group_of[keep]
        self.weights = self.weights[keep]

    def _merge(self, other):
        self.values = np.concatenate([self.values, other.values])
        self.group_of = np.concatenate([self.group_of, other.group_of])
        self.weights = np.concatenate([self.weights, other.weights])
        self.seen += other.seen
        self._shrink()

    def _finalize(self, scale):
        # Exactly num_groups rows: a grouped aggregate over empty input
        # has zero groups and must produce zero rows (group-key columns
        # are empty too); the global path always ensures group 0 exists.
        out = np.zeros((self.num_groups, self.width))
        if len(self.values) == 0:
            return out
        for g in np.unique(self.group_of):
            mask = self.group_of == g
            order = np.argsort(self.values[mask], kind="stable")
            vals = self.values[mask][order]
            w = self.weights[mask][order]
            cum = np.cumsum(w, axis=0)
            total = cum[-1]
            # Batched left-searchsorted of each column's target into its
            # own cumulative column: entries strictly below the target.
            targets = self.q * total
            pos = np.count_nonzero(cum < targets[None, :], axis=0)
            est = vals[np.minimum(pos, len(vals) - 1)]
            out[g] = np.where(total > 0, est, 0.0)
        return out


def _batch(rng, n, groups, trials, nan, ties):
    group_idx = rng.integers(0, groups, n)
    # Skewed groups: the rare ones lose every row to the subsample.
    group_idx[rng.random(n) < 0.7] = 0
    values = (rng.integers(0, 5, n).astype(np.float64) if ties
              else rng.normal(size=n))
    if nan and n:
        values[rng.integers(0, n, max(1, n // 8))] = np.nan
        values[rng.integers(0, n, max(1, n // 8))] = -0.0
    if trials is None:
        return group_idx, values, None
    weights = np.asfortranarray(
        rng.poisson(1.0, (n, trials)).astype(np.uint8))
    weights[rng.random(n) < 0.2] = 0  # zero-weight rows
    if n:
        weights[0, 0] = 18
    return group_idx, values, weights


def _assert_same(state, ref):
    assert state.seen == ref.seen
    assert state.num_groups == ref.num_groups
    assert state.values.tobytes() == ref.values.tobytes()
    assert state.group_of.tobytes() == ref.group_of.tobytes()
    assert np.array_equal(state.weights, ref.weights)
    for scale in (1.0, 2.5):
        assert (state.finalize(scale).tobytes()
                == ref.finalize(scale).tobytes())


def _footprint_ok(state):
    if state.trials is None:
        return
    assert state.weights.dtype == np.uint8
    if len(state.values) == state.capacity:
        assert state.weights.nbytes == state.capacity * state.trials


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    trials=st.sampled_from([None, 7]),
    capacity=st.integers(1, 64),
    sizes=st.lists(st.integers(0, 60), min_size=1, max_size=6),
    groups=st.sampled_from([1, 3, 12]),
    q=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    nan=st.booleans(),
    ties=st.booleans(),
    merge_at=st.integers(0, 6),
)
def test_matches_the_concatenating_reservoir(seed, trials, capacity, sizes,
                                             groups, q, nan, ties,
                                             merge_at):
    rng = np.random.default_rng(seed)
    state = QuantileState(trials, q=q, capacity=capacity, seed=seed % 97)
    ref = ReferenceQuantileState(trials, q=q, capacity=capacity,
                                 seed=seed % 97)
    for i, n in enumerate(sizes):
        batch = _batch(rng, n, groups, trials, nan, ties)
        if i == merge_at:
            # Fold the batch through a second reservoir and merge it.
            other = QuantileState(trials, q=q, capacity=capacity, seed=i)
            other_ref = ReferenceQuantileState(trials, q=q,
                                               capacity=capacity, seed=i)
            other.update(*batch)
            other_ref.update(*batch)
            _assert_same(other, other_ref)
            state.merge(other)
            ref.merge(other_ref)
        else:
            state.update(*batch)
            ref.update(*batch)
        _assert_same(state, ref)
        _footprint_ok(state)


def test_full_trial_reservoir_holds_uint8_weights():
    rng = np.random.default_rng(3)
    state = QuantileState(100, capacity=4096)
    for _ in range(3):
        state.update(*_batch(rng, 3000, 4, 100, nan=False, ties=False))
    assert len(state.values) == 4096 and state.seen == 9000
    assert state.weights.dtype == np.uint8
    assert state.weights.nbytes == 4096 * 100


def test_copy_leaves_the_source_stream_alone():
    """Copying (a snapshot's temporary finalize does) must not advance
    the source's subsampling generator."""
    rng = np.random.default_rng(11)
    first = _batch(rng, 50, 3, 7, nan=False, ties=False)
    second = _batch(rng, 50, 3, 7, nan=False, ties=False)
    copied, untouched = QuantileState(7, capacity=32, seed=5), \
        QuantileState(7, capacity=32, seed=5)
    for state in (copied, untouched):
        state.update(*first)
    clone = copied.copy()
    for state in (copied, untouched, clone):
        state.update(*second)
    for state in (copied, clone):
        assert state.values.tobytes() == untouched.values.tobytes()
        assert state.group_of.tobytes() == untouched.group_of.tobytes()
        assert state.weights.tobytes() == untouched.weights.tobytes()
        assert (state.finalize().tobytes()
                == untouched.finalize().tobytes())
