"""The interval comparison table in ``repro.expr.tristate``.

``tri_compare`` decides ``[a_lo, a_hi] op [b_lo, b_hi]`` only when every
pair of values drawn from the two intervals agrees, and a decided
degenerate comparison must equal numpy's point comparison of the same
operands — including NaN, ``!=``, strings and int64 values past 2**53,
where float64 rounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr.tristate import (
    FLIP_COMPARISON,
    TRI_FALSE,
    TRI_TRUE,
    TRI_UNKNOWN,
    tri_compare,
)

OPS = ("<", "<=", ">", ">=", "=", "!=")
POINT = {"<": np.less, "<=": np.less_equal, ">": np.greater,
         ">=": np.greater_equal, "=": np.equal, "!=": np.not_equal}

# Values collide often, so touching and degenerate intervals occur.
_FLOATS = st.one_of(
    st.sampled_from([-1.0, 0.0, 2.5, 50.0]),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)
_INTERVALS = st.tuples(_FLOATS, _FLOATS).map(sorted)


@given(_INTERVALS, _INTERVALS, st.sampled_from(OPS))
@settings(max_examples=300, deadline=None)
def test_verdicts_hold_for_every_pair_of_values(a, b, op):
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    verdict = tri_compare(op, np.array([a_lo]), np.array([a_hi]),
                          np.array([b_lo]), np.array([b_hi]))[0]
    xs = np.array([a_lo, (a_lo + a_hi) / 2.0, a_hi])
    ys = np.array([b_lo, (b_lo + b_hi) / 2.0, b_hi])
    holds = POINT[op](xs[:, None], ys[None, :])
    if verdict == TRI_TRUE:
        assert holds.all()
    elif verdict == TRI_FALSE:
        assert not holds.any()
    else:
        assert verdict == TRI_UNKNOWN


@pytest.mark.parametrize("op", OPS)
def test_flipped_operands_give_the_same_verdict(op):
    lows = np.array([0.0, 1.0, 2.0, 5.0, 3.0])
    highs = np.array([1.0, 1.0, 4.0, 6.0, 3.0])
    forward = tri_compare(op, lows, highs, 3.0, 3.0)
    flipped = tri_compare(FLIP_COMPARISON[op], 3.0, 3.0, lows, highs)
    np.testing.assert_array_equal(forward, flipped)


@pytest.mark.parametrize("op", OPS)
def test_nan_endpoint_is_never_decided(op):
    # One NaN endpoint: half an interval is not a NULL.
    lows = np.array([1.0, np.nan])
    highs = np.array([np.nan, 1.0])
    assert (tri_compare(op, lows, highs, 0.0, 2.0) == TRI_UNKNOWN).all()
    assert (tri_compare(op, 0.0, 2.0, lows, highs) == TRI_UNKNOWN).all()


@pytest.mark.parametrize("op", OPS)
def test_null_side_is_decided_like_point_evaluation(op):
    # Both endpoints NaN is a NULL: the comparison fails (``!=`` holds)
    # whatever the other side's range, as a point comparison would.
    nan = np.full(4, np.nan)
    lows = np.array([-np.inf, 0.0, 3.0, np.nan])
    highs = np.array([np.inf, 2.0, 3.0, np.nan])
    expected = TRI_TRUE if op == "!=" else TRI_FALSE
    assert (tri_compare(op, nan, nan, lows, highs) == expected).all()
    assert (tri_compare(op, lows, highs, nan, nan) == expected).all()
    assert bool(POINT[op](np.nan, 1.0)) == (expected == TRI_TRUE)


def test_not_equal_rules():
    lo = np.array([0.0, 5.0, 3.0, 2.0])
    hi = np.array([1.0, 6.0, 3.0, 4.0])
    # disjoint -> TRUE, equal points -> FALSE, overlapping -> UNKNOWN
    assert tri_compare("!=", lo, hi, 3.0, 3.0).tolist() == \
        [TRI_TRUE, TRI_TRUE, TRI_FALSE, TRI_UNKNOWN]
    assert tri_compare("=", lo, hi, 3.0, 3.0).tolist() == \
        [TRI_FALSE, TRI_FALSE, TRI_TRUE, TRI_UNKNOWN]


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("values,const", [
    # int64 past 2**53 against float constants that round onto them
    (np.array([2 ** 53, 2 ** 53 + 1, -(2 ** 62), 2 ** 62], dtype=np.int64),
     float(2 ** 53)),
    (np.array([2 ** 53, 2 ** 53 + 1, -(2 ** 62), 2 ** 62], dtype=np.int64),
     2 ** 53 + 1),
    (np.array(["", "a", "ab", "k3", "zz"], dtype=object), "ab"),
    (np.array([-1.0, 0.0, 2.5, np.nan]), 0.0),
])
def test_degenerate_verdict_matches_point_comparison(op, values, const):
    verdict = tri_compare(op, values, values, const, const)
    point = POINT[op](values, const).astype(bool)
    decided = verdict != TRI_UNKNOWN
    np.testing.assert_array_equal(verdict[decided] == TRI_TRUE,
                                  point[decided])
    if values.dtype != np.float64:
        assert decided.all()
