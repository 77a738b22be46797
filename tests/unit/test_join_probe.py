"""The encoded join probe against the per-row dict probe it replaced.

The reference below is the dict build/probe verbatim: one Python key per
row, looked up one at a time.  ``probe_join`` must keep exactly the rows
it matched and gather exactly the build rows it found, for every key
kind the engine joins on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.operators import build_join_index, probe_join
from repro.errors import ExecutionError
from repro.storage import Table


def _key_rows(table, names):
    if len(names) == 1:
        return table.column(names[0]).tolist()
    arrays = [table.column(n) for n in names]
    return list(zip(*[a.tolist() for a in arrays]))


def dict_build(right, key_names):
    index = {}
    for i, key in enumerate(_key_rows(right, key_names)):
        if key in index:
            raise ExecutionError(
                f"duplicate key {key!r} on join build side; dimension "
                "tables must be unique per key"
            )
        index[key] = i
    return index


def dict_match(left, index, left_names):
    return np.fromiter(
        (index.get(k, -1) for k in _key_rows(left, left_names)),
        dtype=np.int64, count=left.num_rows,
    )


def _column(values):
    if all(isinstance(v, (int, float)) for v in values) and values:
        return np.array(values)
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _tables(build_keys, probe_keys):
    """``build_keys``/``probe_keys``: lists of per-row key tuples."""
    width = len((build_keys or probe_keys or [(0,)])[0])
    names = [f"k{j}" for j in range(width)]
    right = Table.from_columns({
        **{n: _column([k[j] for k in build_keys])
           for j, n in enumerate(names)},
        "row": np.arange(len(build_keys), dtype=np.float64),
        "label": _column([f"r{i}" for i in range(len(build_keys))]),
    })
    left = Table.from_columns({
        **{n: _column([k[j] for k in probe_keys])
           for j, n in enumerate(names)},
        "pos": np.arange(len(probe_keys), dtype=np.int64),
    })
    return left, right, [(n, n) for n in names]


def assert_matches_dict_probe(build_keys, probe_keys):
    left, right, keys = _tables(build_keys, probe_keys)
    names = [r for _, r in keys]
    expected = dict_match(left, dict_build(right, names), names)
    index = build_join_index(right, names)

    inner, keep = probe_join(left, right, index, keys, "inner")
    hit = expected >= 0
    assert keep.tolist() == hit.tolist()
    assert inner.column("pos").tolist() == np.flatnonzero(hit).tolist()
    assert inner.column("row").tolist() == expected[hit].tolist()

    outer, none = probe_join(left, right, index, keys, "left")
    assert none is None
    assert outer.num_rows == left.num_rows
    rows = outer.column("row")
    assert np.isnan(rows[~hit]).all()
    assert rows[hit].tolist() == expected[hit].tolist()
    assert outer.column("label").dtype == object
    assert outer.column("label").tolist() == [
        f"r{m}" if m >= 0 else None for m in expected.tolist()
    ]


CASES = {
    "int": ([(1,), (2,), (5,)], [(5,), (0,), (1,), (5,), (7,)]),
    "float_probes_int": ([(1,), (2,), (5,)], [(5.0,), (2.5,), (1.0,)]),
    "int_probes_float": ([(1.0,), (5.5,)], [(1,), (5,), (2,)]),
    "nan_probe": ([(1.0,), (2.0,)], [(float("nan"),), (2.0,)]),
    "string": ([("a",), ("bb",), ("c",)], [("bb",), ("z",), ("a",), ("bb",)]),
    "none_probe": ([("a",), ("b",)], [("a",), (None,), ("b",), (None,)]),
    "none_build": ([("a",), (None,)], [(None,), ("b",), ("a",)]),
    "two_columns": ([(1, "x"), (1, "y"), (2, "x")],
                    [(1, "y"), (2, "y"), (2, "x"), (1, "x"), (3, "x")]),
    "two_columns_none": ([(1, "x"), (2, "y")], [(1, None), (2, "y")]),
    "empty_left": ([(1,), (2,)], []),
    "empty_right": ([], [(1,), (2,)]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_dict_probe(case):
    assert_matches_dict_probe(*CASES[case])


_ints = st.integers(-4, 6)
_key = st.one_of(_ints, _ints.map(float), st.sampled_from([0.5, -0.0]))


@settings(max_examples=100, deadline=None)
@given(build=st.lists(_key, unique_by=float, max_size=8),
       probe=st.lists(_key, max_size=30))
def test_numeric_keys_match_dict_probe(build, probe):
    assert_matches_dict_probe([(k,) for k in build], [(k,) for k in probe])


@pytest.mark.parametrize("build_keys, dup", [
    ([(3,), (1,), (3,)], "3"),
    ([("a",), ("b",), ("a",)], "'a'"),
    ([(1, "x"), (2, "x"), (1, "x")], "(1, 'x')"),
])
def test_duplicate_build_key_named(build_keys, dup):
    left, right, keys = _tables(build_keys, [build_keys[0]])
    names = [r for _, r in keys]
    with pytest.raises(ExecutionError) as ref:
        dict_build(right, names)
    with pytest.raises(ExecutionError) as new:
        build_join_index(right, names)
    assert str(new.value) == str(ref.value)
    assert f"duplicate key {dup} " in str(new.value)
