"""Property-based tests: variation ranges and intervals."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.estimate import (
    percentile_interval,
    range_from_replicas,
    ranges_from_replica_matrix,
)

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)

replicas_strategy = arrays(
    np.float64, st.integers(min_value=2, max_value=60), elements=finite
)


@given(replicas_strategy, finite,
       st.floats(min_value=0.0, max_value=4.0))
@settings(max_examples=120, deadline=None)
def test_range_always_covers_inputs(replicas, estimate, eps):
    r = range_from_replicas(estimate, replicas, eps)
    assert r.contains(estimate)
    assert r.contains_all(replicas)


@given(replicas_strategy, finite)
@settings(max_examples=80, deadline=None)
def test_bigger_epsilon_is_wider(replicas, estimate):
    narrow = range_from_replicas(estimate, replicas, 0.5)
    wide = range_from_replicas(estimate, replicas, 2.0)
    assert wide.low <= narrow.low and wide.high >= narrow.high


@given(replicas_strategy)
@settings(max_examples=80, deadline=None)
def test_percentile_interval_ordered_and_within_hull(replicas):
    ci = percentile_interval(replicas, 0.9)
    assert ci.low <= ci.high
    assert ci.low >= replicas.min() - 1e-9
    assert ci.high <= replicas.max() + 1e-9


@given(
    arrays(np.float64, st.tuples(st.integers(1, 10), st.integers(2, 12)),
           elements=finite)
)
@settings(max_examples=80, deadline=None)
def test_matrix_ranges_cover_rowwise(matrix):
    estimates = matrix.mean(axis=1)
    lows, highs = ranges_from_replica_matrix(estimates, matrix, 1.0)
    assert (lows <= matrix.min(axis=1)).all()
    assert (highs >= matrix.max(axis=1)).all()
    assert (lows <= estimates).all() and (highs >= estimates).all()
