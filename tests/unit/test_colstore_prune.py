"""Unit tests for zone-map pruning: soundness against the exact paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import IntervalEnv, tri_eval
from repro.core.uncertain import TRI_UNKNOWN, ScalarSlotState
from repro.estimate.variation import VariationRange
from repro.expr.expressions import (
    BinaryOp,
    BooleanOp,
    ColumnRef,
    Comparison,
    Environment,
    Literal,
    SubqueryRef,
    evaluate_mask,
)
from repro.storage import Table
from repro.storage.colstore import write_partition
from repro.storage.colstore.format import PartitionReader, compute_zones
from repro.storage.colstore.prune import (
    ColumnZones,
    ZoneMapIndex,
    chunk_decisions,
    chunk_keep,
    pruned_filter_mask,
)

OPS = ("<", "<=", ">", ">=", "=", "!=")


def assert_decisions_sound(decisions, table, zones, column, op, lo, hi):
    """No decided chunk contradicts per-row ``tri_eval`` of
    ``column op <subquery#0>`` under the variation range ``[lo, hi]``."""
    predicate = Comparison(op, ColumnRef(column), SubqueryRef(0))
    state = ScalarSlotState(
        slot=0, estimate=(lo + hi) / 2.0, replicas=np.array([lo, hi]),
        vrange=VariationRange(lo, hi),
    )
    per_row = tri_eval(predicate, table, IntervalEnv(slots={0: state}))
    size = zones.chunk_rows
    for c in range(zones.num_chunks):
        if decisions[c] != TRI_UNKNOWN:
            rows = per_row[c * size:(c + 1) * size]
            assert (rows == decisions[c]).all(), (column, op, lo, hi, c)


def zones_for(table: Table, chunk_rows: int, tmp_path):
    path = tmp_path / "z.gcp"
    write_partition(path, table, chunk_rows=chunk_rows)
    return PartitionReader(path).zone_index()


@pytest.fixture
def table():
    rng = np.random.default_rng(42)
    f = rng.normal(50.0, 20.0, 2000)
    f[rng.random(2000) < 0.05] = np.nan
    return Table.from_columns({
        "i": np.sort(rng.integers(0, 100, 2000)).astype(np.int64),
        "f": np.sort(f),  # NaNs sort to the end: some chunks all-NaN
        "s": np.array([f"k{v}" for v in rng.integers(0, 5, 2000)],
                      dtype=object),
    })


class TestCertainFilterPruning:
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("column,const", [
        ("i", 10), ("i", 50), ("i", 99), ("f", 30.0), ("f", 80.0),
    ])
    def test_mask_identical_to_evaluate_mask(self, table, tmp_path,
                                             op, column, const):
        zones = zones_for(table, 64, tmp_path)
        predicate = Comparison(op, ColumnRef(column), Literal(const))
        env = Environment()
        mask, pruned = pruned_filter_mask(predicate, table, env, zones)
        np.testing.assert_array_equal(
            mask, np.asarray(evaluate_mask(predicate, table, env),
                             dtype=bool)
        )

    def test_selective_predicate_prunes(self, table, tmp_path):
        zones = zones_for(table, 64, tmp_path)
        predicate = Comparison("<", ColumnRef("i"), Literal(5))
        mask, pruned = pruned_filter_mask(
            predicate, table, Environment(), zones
        )
        assert pruned > 0
        assert zones.pruned_total == pruned

    def test_conjunction_intersects_chunk_masks(self, table, tmp_path):
        zones = zones_for(table, 64, tmp_path)
        predicate = BooleanOp("AND", [
            Comparison(">", ColumnRef("i"), Literal(20)),
            Comparison("<", ColumnRef("i"), Literal(40)),
        ])
        env = Environment()
        mask, pruned = pruned_filter_mask(predicate, table, env, zones)
        assert pruned > 0
        np.testing.assert_array_equal(
            mask, np.asarray(evaluate_mask(predicate, table, env),
                             dtype=bool)
        )

    def test_nan_rows_never_pass_comparisons(self, table, tmp_path):
        # The last chunks are all-NaN after the sort; < must not keep
        # them, and != must not prune chunks that merely contain NaNs.
        zones = zones_for(table, 64, tmp_path)
        env = Environment()
        for op, const in (("<", 1e9), ("!=", 50.0)):
            predicate = Comparison(op, ColumnRef("f"), Literal(const))
            mask, _ = pruned_filter_mask(predicate, table, env, zones)
            np.testing.assert_array_equal(
                mask, np.asarray(evaluate_mask(predicate, table, env),
                                 dtype=bool)
            )

    def test_string_predicate_not_pruned_but_exact(self, table, tmp_path):
        zones = zones_for(table, 64, tmp_path)
        predicate = Comparison("=", ColumnRef("s"), Literal("k3"))
        env = Environment()
        mask, pruned = pruned_filter_mask(predicate, table, env, zones)
        np.testing.assert_array_equal(
            mask, np.asarray(evaluate_mask(predicate, table, env),
                             dtype=bool)
        )

    def test_row_count_mismatch_disables_pruning(self, table, tmp_path):
        zones = zones_for(table, 64, tmp_path)
        shorter = table.slice(0, 100)
        predicate = Comparison("<", ColumnRef("i"), Literal(5))
        mask, pruned = pruned_filter_mask(
            predicate, shorter, Environment(), zones
        )
        assert pruned == 0
        assert mask.shape == (100,)

    def test_chunk_keep_none_for_unusable_predicate(self, table,
                                                    tmp_path):
        zones = zones_for(table, 64, tmp_path)
        # column-vs-column comparison has no literal side
        predicate = Comparison("<", ColumnRef("i"), ColumnRef("f"))
        assert chunk_keep(predicate, zones) is None


class TestChunkTriDecisions:
    @pytest.mark.parametrize("op", OPS)
    def test_decisions_match_per_row_tri_eval(self, table, tmp_path, op):
        zones = zones_for(table, 64, tmp_path)
        for lo, hi in ((25.0, 30.0), (49.9, 50.1), (-1e9, 1e9)):
            decisions = chunk_decisions(zones, "f", op, lo, hi)
            assert decisions is not None
            assert_decisions_sound(decisions, table, zones, "f", op, lo, hi)

    def test_string_column_returns_none(self, table, tmp_path):
        zones = zones_for(table, 64, tmp_path)
        assert chunk_decisions(zones, "s", "<", 0.0, 1.0) is None
        assert chunk_decisions(zones, "missing", "<", 0.0, 1.0) is None


# Values collide often (so `=`/`!=` and lo == hi chunks occur), NaN is
# common enough for NaN-bearing and — once sorted, or at chunk_rows=1 —
# all-null chunks, and the int extremes sit where float64 rounds.
_FLOATS = st.one_of(
    st.sampled_from([np.nan, np.nan, -1.0, 0.0, 2.5, 50.0]),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)
_INTS = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([2 ** 53, 2 ** 53 + 1, -(2 ** 62), 2 ** 62]),
)
_STRINGS = st.sampled_from(["", "a", "ab", "b", "k3", "zz"])
_COLUMN_VALUES = {"f": _FLOATS, "i": _INTS, "s": _STRINGS}
_CONSTS = {
    "f": st.one_of(_FLOATS.filter(lambda v: v == v), st.integers(-5, 5)),
    "i": st.one_of(_INTS, st.sampled_from([0.5, 2.0 ** 53, -3.0])),
    "s": _STRINGS,
}


@st.composite
def zone_case(draw):
    n = draw(st.integers(min_value=1, max_value=120))
    cols = {
        "f": np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n))),
        "i": np.array(draw(st.lists(_INTS, min_size=n, max_size=n)),
                      dtype=np.int64),
        "s": np.array(draw(st.lists(_STRINGS, min_size=n, max_size=n)),
                      dtype=object),
    }
    sort_by = draw(st.sampled_from([None, "f", "i", "s"]))
    if sort_by is not None:  # clustered: prunable, NaNs gather at the end
        order = np.argsort(cols[sort_by], kind="stable")
        cols = {name: arr[order] for name, arr in cols.items()}
    table = Table.from_columns(cols)
    chunk_rows = draw(st.sampled_from([1, 4, 16]))
    columns = {}
    for name in table.schema.names:
        ctype = table.schema.type_of(name)
        stats = compute_zones(table.column(name), ctype, chunk_rows)
        columns[name] = ColumnZones(
            ctype=ctype.value,
            lows=[z["lo"] for z in stats], highs=[z["hi"] for z in stats],
            nulls=np.array([z["nulls"] for z in stats]),
            distinct=np.array([z["distinct"] for z in stats]),
        )
    zones = ZoneMapIndex(chunk_rows=chunk_rows, num_rows=n, columns=columns)
    column = draw(st.sampled_from(["f", "i", "s"]))
    op = draw(st.sampled_from(OPS))
    bounds = sorted(draw(st.tuples(_FLOATS, _FLOATS).filter(
        lambda pair: pair[0] == pair[0] and pair[1] == pair[1])))
    return table, zones, column, op, draw(_CONSTS[column]), bounds


class TestZoneMapProperty:
    @given(zone_case(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_chunk_verdicts_never_contradict_the_rows(self, case, flipped):
        table, zones, column, op, const, (lo, hi) = case
        sides = (ColumnRef(column), Literal(const))
        predicate = Comparison(op, *(sides[::-1] if flipped else sides))
        env = Environment()
        mask, pruned = pruned_filter_mask(predicate, table, env, zones)
        expected = np.asarray(evaluate_mask(predicate, table, env),
                              dtype=bool)
        np.testing.assert_array_equal(mask, expected)
        assert 0 <= pruned <= zones.num_chunks

        decisions = chunk_decisions(zones, column, op, lo, hi)
        if column == "s":
            assert decisions is None
        else:
            assert_decisions_sound(decisions, table, zones, column, op,
                                   lo, hi)


class TestUncertainMatching:
    def test_scalar_subquery_matches(self):
        from repro.storage.colstore.prune import match_uncertain_comparison

        pred = Comparison(">", ColumnRef("x3"), SubqueryRef(0))
        assert match_uncertain_comparison(pred)[:2] == ("x3", ">")
        # flipped operand order flips the operator
        pred = Comparison(">", SubqueryRef(0), ColumnRef("x3"))
        assert match_uncertain_comparison(pred)[:2] == ("x3", "<")

    def test_correlated_subquery_rejected(self):
        from repro.storage.colstore.prune import match_uncertain_comparison

        pred = Comparison(
            ">", ColumnRef("x3"),
            SubqueryRef(0, correlation=ColumnRef("k1")),
        )
        assert match_uncertain_comparison(pred) is None

    def test_non_column_side_rejected(self):
        from repro.storage.colstore.prune import match_uncertain_comparison

        pred = Comparison(
            ">", BinaryOp("+", ColumnRef("x3"), Literal(1.0)),
            SubqueryRef(0),
        )
        assert match_uncertain_comparison(pred) is None
