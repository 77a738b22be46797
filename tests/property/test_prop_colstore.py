"""Property-based tests for the colstore codecs.

Every codec round-trips **bit-exactly** (NaN payloads, signed zeros and
empty arrays included) — the storage layer may never be a source of
numeric drift.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.storage.colstore.codecs import (
    CODECS,
    decode_column,
    encode_column,
)
from repro.storage.table import ColumnType

sizes = st.integers(min_value=0, max_value=300)

int_arrays = st.one_of(
    arrays(np.int64, sizes,
           elements=st.integers(min_value=-(2 ** 62), max_value=2 ** 62)),
    # low-cardinality / constant runs exercise dict and rle hard
    arrays(np.int64, sizes, elements=st.sampled_from([0, 1, 7])),
)

float_arrays = st.one_of(
    arrays(np.float64, sizes,
           elements=st.floats(allow_nan=True, allow_infinity=True,
                              width=64)),
    arrays(np.float64, sizes, elements=st.sampled_from(
        [0.0, -0.0, np.nan, np.inf, -np.inf, 1.5]
    )),
)

bool_arrays = arrays(np.bool_, sizes, elements=st.booleans())

string_values = st.one_of(
    st.sampled_from(["", "a", "cat", "käse", "x" * 40]),
    st.text(max_size=12),
)


@st.composite
def string_arrays(draw):
    n = draw(sizes)
    return np.array([draw(string_values) for _ in range(n)],
                    dtype=object)


def roundtrip(arr, ctype, codec):
    enc = encode_column(arr, ctype, codec)
    # The metadata crosses a JSON footer in real files; round-trip it
    # the same way so non-JSON-safe meta cannot hide here.
    meta = json.loads(json.dumps(enc.meta))
    return decode_column(enc.codec, enc.segments, meta, ctype, len(arr))


def assert_bit_equal(arr, out):
    assert out.dtype == arr.dtype
    if arr.dtype == object:
        assert out.tolist() == arr.tolist()
    else:
        np.testing.assert_array_equal(out.view(np.uint8),
                                      arr.view(np.uint8))


@given(int_arrays, st.sampled_from(("auto",) + CODECS))
@settings(max_examples=60, deadline=None)
def test_int64_round_trip(arr, codec):
    assert_bit_equal(arr, roundtrip(arr, ColumnType.INT64, codec))


@given(float_arrays, st.sampled_from(("auto", "plain", "dict", "rle")))
@settings(max_examples=60, deadline=None)
def test_float64_round_trip_bitexact(arr, codec):
    # NaN payloads and -0.0 must survive: compare raw bits, not values.
    assert_bit_equal(arr, roundtrip(arr, ColumnType.FLOAT64, codec))


@given(bool_arrays, st.sampled_from(("auto", "plain", "rle")))
@settings(max_examples=40, deadline=None)
def test_bool_round_trip(arr, codec):
    assert_bit_equal(arr, roundtrip(arr, ColumnType.BOOL, codec))


@given(string_arrays(), st.sampled_from(("auto", "dict", "rle")))
@settings(max_examples=40, deadline=None)
def test_string_round_trip(arr, codec):
    assert_bit_equal(arr, roundtrip(arr, ColumnType.STRING, codec))

