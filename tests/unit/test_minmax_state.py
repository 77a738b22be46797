"""``MinState``/``MaxState`` against the per-cell scatter, bit for bit.

A trial batch now folds by one stable group sort and a ``reduceat``
over the masked ``(n, B)`` rectangle; every state must still equal the
old flattened ``ufunc.at`` scatter — including which of +0.0/-0.0 a
tie keeps and which NaN survives — for every weight layout a fold can
hand it: the stored F-order uint8 rectangle, a C-order copy and a row
gather, with rows whose weights are all zero.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import aggregates
from repro.engine.aggregates import MaxState, MinState


# -- the oracle: the scatter ``_update``, verbatim --


def _scatter_update(self, group_idx, values, weights):
    if self.width == 1:
        present = weights[:, 0] > 0
        with np.errstate(invalid="ignore"):  # a NaN argument propagates
            self._ufunc.at(
                self.extreme[:, 0], group_idx[present], values[present]
            )
        return
    # One flattened scatter over every present (row, trial) cell
    # instead of a python loop per trial.  min/max is order-free, so
    # this matches any per-trial or sharded evaluation exactly.
    rows, cols = np.nonzero(weights > 0)
    if rows.size == 0:
        return
    flat_idx = group_idx[rows] * self.width + cols
    flat = self.extreme.view()
    flat.shape = (-1,)  # raises (never copies) if non-contiguous
    with np.errstate(invalid="ignore"):  # a NaN argument propagates
        self._ufunc.at(flat, flat_idx, values[rows])


class ScatterMin(MinState):
    _update = _scatter_update

    def copy(self):
        out = super().copy()
        out.__class__ = type(self)
        return out


class ScatterMax(MaxState):
    _update = _scatter_update

    def copy(self):
        out = super().copy()
        out.__class__ = type(self)
        return out


PAIRS = [(MinState, ScatterMin), (MaxState, ScatterMax)]

#: Every special a MIN/MAX argument can carry; the NaN with its sign bit
#: set is what ``-inf * 0`` gives, so two NaN payloads can meet a cell.
SPECIALS = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf])


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.int64)


def _assert_same(got, want):
    assert got.num_groups == want.num_groups
    assert got.extreme.shape == want.extreme.shape
    assert np.array_equal(_bits(got.extreme), _bits(want.extreme))


def _values(rng, n, specials):
    """A few repeated magnitudes (so ties happen), with the specials."""
    values = rng.choice([-3.5, -1.0, 2.0, 7.25], n)
    if specials and n:
        picks = rng.integers(0, len(SPECIALS), n)
        mask = rng.random(n) < 0.4
        values[mask] = SPECIALS[picks[mask]]
    return values


def _weights(rng, n, width, layout):
    rect = rng.poisson(1.0, (n, width)).astype(np.uint8)
    if n:
        rect[rng.integers(0, n, max(1, n // 4))] = 0  # all-zero rows
    if layout == "F":
        return np.asfortranarray(rect)
    if layout == "gather":
        return np.asfortranarray(rect)[np.sort(rng.integers(0, n, n))]
    return rect


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    n=st.integers(0, 600),
    width=st.sampled_from([1, 8, 100]),
    groups=st.sampled_from([1, 3, 100]),
    layout=st.sampled_from(["F", "C", "gather"]),
    specials=st.booleans(),
    batches=st.integers(1, 3),
    trials_none=st.booleans(),
    # Row blocks of one row, of a few rows, and the default.
    block_cells=st.sampled_from([None, 1, 700]),
)
def test_matches_scatter(seed, n, width, groups, layout, specials, batches,
                         trials_none, block_cells):
    with mock.patch.object(aggregates, "_BLOCK_CELLS",
                           block_cells or aggregates._BLOCK_CELLS):
        _check_matches_scatter(seed, n, width, groups, layout, specials,
                               batches, trials_none)


def _check_matches_scatter(seed, n, width, groups, layout, specials,
                           batches, trials_none):
    rng = np.random.default_rng(seed)
    trials = None if trials_none and width == 1 else width
    for state_cls, ref_cls in PAIRS:
        got, want = state_cls(trials), ref_cls(trials)
        folds = []
        for _ in range(batches):
            group_idx = rng.integers(0, groups, n)
            values = _values(rng, n, specials)
            weights = _weights(rng, n, width, layout)
            folds.append((group_idx, values, weights))
            got.update(group_idx, values, weights)
            want.update(group_idx, values, weights)
            _assert_same(got, want)
        # copy() then one more fold leaves the source untouched.
        got_copy, want_copy = got.copy(), want.copy()
        group_idx, values, weights = folds[0]
        got_copy.update(group_idx, values, weights)
        want_copy.update(group_idx, values, weights)
        _assert_same(got_copy, want_copy)
        _assert_same(got, want)
        # merge() of two folded states.
        other_got, other_want = state_cls(trials), ref_cls(trials)
        for group_idx, values, weights in folds[::-1]:
            other_got.update(group_idx, values, weights)
            other_want.update(group_idx, values, weights)
        got.merge(other_got)
        want.merge(other_want)
        _assert_same(got, want)


@pytest.mark.parametrize("state_cls, ref_cls", PAIRS)
def test_signed_zero_and_nan_ties(state_cls, ref_cls):
    """Every ordered pair of specials in one cell, plus a live value."""
    width = 4
    for live in SPECIALS:
        for first in SPECIALS:
            for second in SPECIALS:
                got, want = state_cls(width), ref_cls(width)
                for state in (got, want):
                    state.update(np.zeros(1, dtype=np.int64),
                                 np.array([live]),
                                 np.ones((1, width), dtype=np.uint8))
                    state.update(np.zeros(2, dtype=np.int64),
                                 np.array([first, second]),
                                 np.array([[1, 0, 1, 0], [1, 1, 0, 0]],
                                          dtype=np.uint8))
                _assert_same(got, want)


@pytest.mark.parametrize("state_cls", [MinState, MaxState])
def test_groups_absent_from_the_batch_keep_their_extreme(state_cls):
    state = state_cls(3)
    state.update(np.array([0, 4]), np.array([1.0, 2.0]),
                 np.ones((2, 3), dtype=np.uint8))
    before = state.extreme.copy()
    state.update(np.array([2, 2]), np.array([5.0, -5.0]),
                 np.array([[1, 0, 0], [0, 1, 0]], dtype=np.uint8))
    assert np.array_equal(state.extreme[[0, 1, 3, 4]], before[[0, 1, 3, 4]])
    fill = state_cls._fill
    want = {MinState: [5.0, -5.0, fill], MaxState: [5.0, -5.0, fill]}
    assert state.extreme[2].tolist() == want[state_cls]
