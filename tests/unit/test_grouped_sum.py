"""``_grouped_sum`` against the per-column ``bincount`` kernel, bit for bit.

The kernel picks an integer column sum for one-group counts and one
row-order ``np.add.reduce`` for other one-group sums of width >= 2;
every cell must still equal what one ``bincount`` per column gives —
the same operands, added in row order from +0.0 — for every weight
layout a fold can hand it: the stored F-order uint8 rectangle, a column
slice of it, a row gather (C-order), and VAR's float64 products.
"""

from typing import Optional
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import aggregates
from repro.engine.aggregates import _grouped_sum


# -- the oracle: the per-column bincount kernel, verbatim --


def _reference(group_idx: np.ndarray, weights: np.ndarray, groups: int,
               values: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-(group, column) sums of ``values * weights`` rows: the batch delta.

    One ``bincount`` per trial column; the optional ``values`` vector is
    multiplied in per column so no ``(n, width)`` contribution matrix is
    ever materialized.  ``bincount`` accumulates every cell's
    contributions in row order, so the result is bit-identical however
    the columns are chunked or sharded across workers — the property the
    parallel bootstrap path relies on.
    """
    n, width = weights.shape
    out = np.zeros((groups, width))
    if n == 0 or groups == 0 or width == 0:
        return out
    for c in range(width):
        col = weights[:, c]
        contrib = col if values is None else values * col
        out[:, c] = np.bincount(group_idx, weights=contrib,
                                minlength=groups)
    return out


def _assert_bits_equal(group_idx, weights, groups, values=None,
                       block_cells=None):
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN on both sides
        with mock.patch.object(aggregates, "_BLOCK_CELLS",
                               block_cells or aggregates._BLOCK_CELLS):
            got = _grouped_sum(group_idx, weights, groups, values=values)
        # The old kernel saw weights widened to float64 (exact for uint8).
        want = _reference(group_idx, weights.astype(np.float64), groups,
                          values=values)
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _values(rng, n, specials):
    """Magnitudes across 1e-8..1e8 of both signs (cancellation), with
    -0.0, NaN and +-inf sprinkled in when ``specials``."""
    values = (rng.choice([-1.0, 1.0], n)
              * 10.0 ** rng.uniform(-8, 8, n))
    if specials and n:
        for special in (-0.0, np.nan, np.inf, -np.inf):
            values[rng.integers(0, n, max(1, n // 50))] = special
    return values


LAYOUTS = ["F", "C", "slice", "gather", "float"]


@settings(max_examples=150, deadline=None)
# NaN (row 0) then -inf * 0, a NaN with the sign bit set (row 1): the
# sum must keep the first NaN's bits, as bincount does.
@example(seed=0, n=2, width=100, groups=1, layout="F", with_values=True,
         specials=True, negative_zero_column=False, block_cells=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    n=st.integers(0, 3000),
    width=st.sampled_from([1, 2, 3, 8, 100]),
    groups=st.sampled_from([1, 2, 40]),
    layout=st.sampled_from(LAYOUTS),
    with_values=st.booleans(),
    specials=st.booleans(),
    negative_zero_column=st.booleans(),
    # Row blocks of one row, of a few rows, and the default.
    block_cells=st.sampled_from([None, 1, 50, 1000]),
)
def test_matches_per_column_bincount(seed, n, width, groups, layout,
                                     with_values, specials,
                                     negative_zero_column, block_cells):
    rng = np.random.default_rng(seed)
    group_idx = rng.integers(0, groups, n)
    if layout == "float":
        # VAR's ``weights * deviation ** 2``: non-integral float64.
        weights = rng.poisson(1.0, (n, width)) * rng.uniform(0, 1e3, n)[:, None]
    else:
        rect = rng.poisson(1.0, (n, width + 3)).astype(np.uint8)
        if n:
            rect[0] = 18  # the largest stored weight
            rect[rng.integers(0, n, max(1, n // 10))] = 0
        rect = np.asfortranarray(rect) if layout != "C" else rect
        if layout == "slice":
            weights = rect[:, 2:2 + width]
        elif layout == "gather":
            weights = rect[:, :width][np.sort(rng.integers(0, n, n))]
        else:
            weights = rect[:, :width]
    values = _values(rng, n, specials) if with_values else None
    if negative_zero_column:
        # Column 0's every contribution is -0.0: the sum must still
        # start from +0.0, as bincount does.
        if values is None:
            weights = weights.astype(np.float64)
            weights[:, 0] = -0.0
        else:
            values = -np.abs(_values(rng, n, specials=False))
            weights = weights.copy()
            weights[:, 0] = 0
    _assert_bits_equal(group_idx, weights, groups, values=values,
                       block_cells=block_cells)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    n=st.integers(1, 2000),
    width=st.sampled_from([1, 2, 8, 100]),
    groups=st.sampled_from([1, 3]),
    block_cells=st.sampled_from([None, 1, 50]),
)
def test_squared_deviations_match_the_materialized_product(
        seed, n, width, groups, block_cells):
    """VAR's ``center`` form equals summing the whole float64
    ``weights * (values - center[group]) ** 2`` rectangle, the product
    VarState used to build before folding it."""
    rng = np.random.default_rng(seed)
    group_idx = rng.integers(0, groups, n)
    values = _values(rng, n, specials=True)
    center = rng.normal(0, 1e3, (groups, width))
    center[0, 0] = np.nan
    weights = np.asfortranarray(
        rng.poisson(1.0, (n, width)).astype(np.uint8))
    with np.errstate(invalid="ignore", over="ignore"):
        with mock.patch.object(aggregates, "_BLOCK_CELLS",
                               block_cells or aggregates._BLOCK_CELLS):
            got = _grouped_sum(group_idx, weights, groups, values=values,
                               center=center)
        product = weights * (values[:, None] - center[group_idx]) ** 2
        want = _reference(group_idx, product, groups)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_one_group_sums_never_reduce_along_the_contiguous_axis():
    """The pairwise trap: ``np.add.reduce`` along a contiguous axis sums
    pairwise, and 1e16 followed by ones then keeps the ones that a
    row-order sum rounds away."""
    n = 200
    column = np.ones(n)
    column[0] = 1e16
    group_idx = np.zeros(n, dtype=np.int64)
    ones = np.ones((n, 1), dtype=np.uint8)
    # Width 1: values times a one-column rectangle.
    _assert_bits_equal(group_idx, ones, 1, values=column)
    # Contiguous rows: an F-order float64 rectangle without values.
    rect = np.asfortranarray(np.stack([column, column[::-1]], axis=1))
    _assert_bits_equal(group_idx, rect, 1)
    # Both in one: values times an F-order uint8 rectangle.
    _assert_bits_equal(group_idx, np.asfortranarray(np.ones((n, 2),
                                                    dtype=np.uint8)),
                       1, values=column)
    assert _grouped_sum(group_idx, ones, 1, values=column)[0, 0] == 1e16


def test_counts_are_exact_at_the_largest_weight():
    n = 5000
    weights = np.full((n, 3), 18, dtype=np.uint8, order="F")
    out = _grouped_sum(np.zeros(n, dtype=np.int64), weights[::-1], 1)
    assert out.tolist() == [[18.0 * n] * 3]
