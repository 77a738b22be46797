"""Unit tests for mergeable aggregate states."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GolaConfig, GolaSession, Table
from repro.engine import UDAFRegistry, UDAFSpec, make_state
from repro.engine.aggregates import (
    AggregateCall,
    AvgState,
    CountState,
    DistinctState,
    GroupIndex,
    MaxState,
    MinState,
    QuantileState,
    StdevState,
    SumState,
    VarState,
    _grouped_sum,
)
from repro.errors import ExecutionError, PlanError


def call(func, alias="out", param=None):
    return AggregateCall(func, None, alias, param=param)


class TestGroupIndex:
    def test_encode_assigns_dense_ids(self):
        idx = GroupIndex()
        out = idx.encode(np.array(["b", "a", "b", "c"], dtype=object))
        assert idx.num_groups == 3
        assert out.tolist() == [idx.index_of("b"), idx.index_of("a"),
                                idx.index_of("b"), idx.index_of("c")]

    def test_encode_stable_across_calls(self):
        idx = GroupIndex()
        first = idx.encode(np.array([10, 20]))
        second = idx.encode(np.array([20, 30]))
        assert first.tolist() == [idx.index_of(10), idx.index_of(20)]
        assert second[0] == idx.index_of(20)
        assert idx.num_groups == 3

    def test_encode_without_adding(self):
        idx = GroupIndex()
        idx.encode(np.array([1]))
        out = idx.encode(np.array([1, 2]), add_new=False)
        assert out.tolist() == [0, -1]
        assert idx.num_groups == 1

    def test_empty(self):
        idx = GroupIndex()
        assert idx.encode(np.array([])).tolist() == []

    def test_copy_independent(self):
        idx = GroupIndex()
        idx.encode(np.array([1]))
        clone = idx.copy()
        clone.encode(np.array([2]))
        assert idx.num_groups == 1 and clone.num_groups == 2


def _null_first(key):
    if isinstance(key, tuple):
        return tuple(_null_first(part) for part in key)
    return (key is not None, key)


class SortedEncodeIndex:
    """Reference: ``GroupIndex.encode`` as it was for object keys, one
    ``np.unique`` sort of the whole batch per call (NULL first when
    numpy's sort meets it)."""

    def __init__(self):
        self.lookup, self.keys = {}, []

    def encode(self, keys, add_new=True):
        try:
            uniq, inverse = np.unique(keys, return_inverse=True)
            uniq = uniq.tolist()
        except TypeError:
            flat = keys.tolist()
            uniq = sorted(set(flat), key=_null_first)
            position = {key: i for i, key in enumerate(uniq)}
            inverse = np.array([position[key] for key in flat],
                               dtype=np.int64)
        mapped = np.array([self.lookup.get(k, -1) for k in uniq],
                          dtype=np.int64)
        for i in np.flatnonzero(mapped < 0).tolist() if add_new else []:
            self.lookup[uniq[i]] = mapped[i] = len(self.keys)
            self.keys.append(uniq[i])
        return mapped[inverse.reshape(keys.shape)]


_scalar_key = st.one_of(st.none(), st.sampled_from(["", "a", "b", "US",
                                                     "ab", "z"]))
_tuple_key = st.tuples(_scalar_key, st.one_of(st.none(),
                                              st.integers(-2, 2)))


def _object_array(keys):
    out = np.empty(len(keys), dtype=object)  # tuples stay one cell each
    for i, key in enumerate(keys):
        out[i] = key
    return out


class TestHashEncodeOracle:
    """The one-pass dict encode of object keys numbers every key as the
    sorted ``np.unique`` path did, batch after batch, and leaves unseen
    keys at -1 without growing under ``add_new=False``."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), composite=st.booleans())
    def test_matches_sorted_encode(self, data, composite):
        key = _tuple_key if composite else _scalar_key
        batches = data.draw(st.lists(
            st.tuples(st.lists(key, max_size=30), st.booleans()),
            min_size=1, max_size=5))
        ref, new = SortedEncodeIndex(), GroupIndex()
        for keys, add_new in batches:
            arr = _object_array(keys)
            before = new.num_groups
            got = new.encode(arr, add_new=add_new)
            assert got.tolist() == ref.encode(arr, add_new).tolist()
            assert new.keys() == ref.keys
            if not add_new:
                assert new.num_groups == before
                assert all(new.index_of(k) == -1
                           for k, i in zip(keys, got.tolist()) if i < 0)


class TestExactStates:
    def test_sum(self):
        state = SumState()
        state.update(np.array([0, 0, 1]), np.array([1.0, 2.0, 10.0]))
        np.testing.assert_array_equal(state.finalize(), [3.0, 10.0])

    def test_sum_scales(self):
        state = SumState()
        state.update(np.zeros(2, dtype=np.int64), np.array([1.0, 2.0]))
        assert state.finalize(scale=5.0)[0] == 15.0

    def test_count_ignores_values(self):
        state = CountState()
        state.update(np.array([0, 1, 1]), None)
        np.testing.assert_array_equal(state.finalize(), [1.0, 2.0])

    def test_avg_scale_invariant(self):
        state = AvgState()
        state.update(np.zeros(4, dtype=np.int64),
                     np.array([1.0, 2.0, 3.0, 4.0]))
        assert state.finalize(scale=7.0)[0] == pytest.approx(2.5)

    def test_avg_empty_group_is_zero(self):
        state = AvgState()
        state.ensure_groups(2)
        state.update(np.array([1]), np.array([5.0]))
        out = state.finalize()
        assert out[0] == 0.0 and out[1] == 5.0

    def test_min_max(self):
        lo, hi = MinState(), MaxState()
        idx = np.array([0, 0, 1])
        vals = np.array([3.0, -1.0, 7.0])
        lo.update(idx, vals)
        hi.update(idx, vals)
        np.testing.assert_array_equal(lo.finalize(), [-1.0, 7.0])
        np.testing.assert_array_equal(hi.finalize(), [3.0, 7.0])

    def test_var_stdev_match_numpy(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(10, 3, 500)
        var_state, std_state = VarState(), StdevState()
        idx = np.zeros(500, dtype=np.int64)
        var_state.update(idx, vals)
        std_state.update(idx, vals)
        assert var_state.finalize()[0] == pytest.approx(
            np.var(vals, ddof=1), rel=1e-9
        )
        assert std_state.finalize()[0] == pytest.approx(
            np.std(vals, ddof=1), rel=1e-9
        )

    def test_weighted_sum(self):
        state = SumState()
        state.update(np.zeros(2, dtype=np.int64), np.array([1.0, 2.0]),
                     np.array([3.0, 0.0]))
        assert state.finalize()[0] == 3.0

    def test_incremental_equals_batch(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=1000)
        idx = rng.integers(0, 7, 1000)
        whole = AvgState()
        whole.update(idx, vals)
        pieces = AvgState()
        for lo in range(0, 1000, 100):
            pieces.update(idx[lo:lo + 100], vals[lo:lo + 100])
        np.testing.assert_allclose(pieces.finalize(), whole.finalize())

    def test_merge_equals_update(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=200)
        idx = rng.integers(0, 3, 200)
        a, b, whole = SumState(), SumState(), SumState()
        a.update(idx[:100], vals[:100])
        b.update(idx[100:], vals[100:])
        whole.update(idx, vals)
        a.merge(b)
        np.testing.assert_allclose(a.finalize(), whole.finalize())

    def test_merge_type_mismatch(self):
        with pytest.raises(ExecutionError, match="cannot merge"):
            SumState().merge(CountState())

    def test_copy_is_independent(self):
        state = SumState()
        state.update(np.zeros(1, dtype=np.int64), np.array([1.0]))
        clone = state.copy()
        clone.update(np.zeros(1, dtype=np.int64), np.array([1.0]))
        assert state.finalize()[0] == 1.0 and clone.finalize()[0] == 2.0

    def test_values_length_checked(self):
        with pytest.raises(ExecutionError):
            SumState().update(np.array([0, 0]), np.array([1.0]))


class TestTrialStates:
    def test_trial_shape(self):
        state = SumState(trials=8)
        weights = np.ones((5, 8))
        state.update(np.zeros(5, dtype=np.int64), np.arange(5.0), weights)
        out = state.finalize()
        assert out.shape == (1, 8)
        np.testing.assert_array_equal(out[0], np.full(8, 10.0))

    def test_poisson_weights_vary_trials(self):
        rng = np.random.default_rng(3)
        state = AvgState(trials=16)
        vals = rng.normal(10, 2, 400)
        weights = rng.poisson(1.0, (400, 16)).astype(float)
        state.update(np.zeros(400, dtype=np.int64), vals, weights)
        reps = state.finalize()[0]
        assert reps.std() > 0
        assert abs(reps.mean() - vals.mean()) < 0.5

    def test_1d_weights_broadcast_to_trials(self):
        state = SumState(trials=4)
        state.update(np.zeros(2, dtype=np.int64), np.array([1.0, 2.0]),
                     np.array([2.0, 1.0]))
        np.testing.assert_array_equal(state.finalize()[0], np.full(4, 4.0))

    def test_bad_weight_shape(self):
        state = SumState(trials=4)
        with pytest.raises(ExecutionError):
            state.update(np.zeros(2, dtype=np.int64), np.array([1.0, 2.0]),
                         np.ones((2, 3)))

    def test_min_trials_respect_zero_weights(self):
        state = MinState(trials=2)
        weights = np.array([[1.0, 0.0], [0.0, 1.0]])
        state.update(np.zeros(2, dtype=np.int64), np.array([1.0, 5.0]),
                     weights)
        out = state.finalize()[0]
        assert out[0] == 1.0 and out[1] == 5.0


class TestMinMaxNaN:
    """A NaN argument takes over its group's MIN and MAX (the scatter's
    ``np.minimum``/``np.maximum`` propagate it), and does so silently."""

    idx = np.array([0, 0, 1, 1])
    vals = np.array([1.0, np.nan, 2.0, 3.0])

    @pytest.mark.parametrize("cls, clean", [(MinState, 2.0),
                                            (MaxState, 3.0)])
    def test_states_propagate_without_warning(self, cls, clean):
        weights = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                            [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact = cls()
            exact.update(self.idx, self.vals)
            trial = cls(trials=3)
            trial.update(self.idx, self.vals, weights)
        np.testing.assert_array_equal(exact.finalize(), [np.nan, clean])
        out = trial.finalize()
        # Trial 0 saw the NaN row, trial 1 no row of group 0 at all,
        # trial 2 only the clean one.
        np.testing.assert_array_equal(out[0], [np.nan, cls._fill, 1.0])
        np.testing.assert_array_equal(out[1], [clean, clean, 3.0])

    def test_batch_and_online_engines_agree(self):
        rng = np.random.default_rng(4)
        x = rng.normal(10.0, 2.0, 600)
        g = rng.integers(0, 3, 600).astype(np.int64)
        x[np.flatnonzero(g == 1)[:3]] = np.nan
        session = GolaSession(
            GolaConfig(num_batches=3, bootstrap_trials=8, seed=1)
        )
        session.register_table("t", Table.from_columns({"g": g, "x": x}))
        query = session.sql(
            "SELECT g, MIN(x) AS lo, MAX(x) AS hi FROM t GROUP BY g "
            "ORDER BY g"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact = session.execute_batch(query)
            online = query.run_to_completion().table
        for name in ("lo", "hi"):
            assert np.isnan(exact.column(name)[1])
            np.testing.assert_array_equal(
                online.column(name), exact.column(name)
            )
        assert exact.column("lo")[0] == x[g == 0].min()
        assert exact.column("hi")[2] == x[g == 2].max()


class TestQuantile:
    def test_median_exact_small(self):
        state = QuantileState(q=0.5, capacity=100)
        state.update(np.zeros(9, dtype=np.int64), np.arange(1.0, 10.0))
        assert state.finalize()[0] == 5.0

    def test_reservoir_bounds_memory(self):
        state = QuantileState(q=0.5, capacity=64, seed=1)
        rng = np.random.default_rng(5)
        for _ in range(10):
            state.update(np.zeros(100, dtype=np.int64), rng.normal(size=100))
        assert len(state.values) <= 64
        assert state.seen == 1000

    def test_quantile_approximates(self):
        state = QuantileState(q=0.9, capacity=2048, seed=2)
        rng = np.random.default_rng(6)
        vals = rng.uniform(0, 1, 5000)
        state.update(np.zeros(5000, dtype=np.int64), vals)
        assert state.finalize()[0] == pytest.approx(0.9, abs=0.05)

    def test_grouped_medians(self):
        state = QuantileState(q=0.5, capacity=100)
        state.update(np.array([0, 0, 0, 1, 1, 1]),
                     np.array([1.0, 2.0, 3.0, 10.0, 20.0, 30.0]))
        out = state.finalize()
        assert out[0] == 2.0 and out[1] == 20.0

    def test_merge(self):
        a = QuantileState(q=0.5, capacity=1000, seed=3)
        b = QuantileState(q=0.5, capacity=1000, seed=4)
        a.update(np.zeros(100, dtype=np.int64), np.arange(100.0))
        b.update(np.zeros(100, dtype=np.int64), np.arange(100.0, 200.0))
        a.merge(b)
        assert 80 <= a.finalize()[0] <= 120

    def test_invalid_fraction(self):
        with pytest.raises(ExecutionError):
            QuantileState(q=1.5)

    def test_empty_grouped_input_has_no_rows(self):
        # Regression: a grouped quantile over a filtered-to-empty input
        # must produce 0 rows like the (empty) group-key columns, not a
        # phantom row that makes the output table ragged.
        state = QuantileState(q=0.5, capacity=16)
        assert len(state.finalize()) == 0


class TestDistinct:
    def test_count_distinct(self):
        state = DistinctState()
        state.update(np.array([0, 0, 0, 1]),
                     np.array([1.0, 1.0, 2.0, 1.0]))
        np.testing.assert_array_equal(state.finalize(), [2.0, 1.0])

    def test_sum_distinct_ignores_multiplicity(self):
        state = DistinctState(mode="sum")
        state.update(np.zeros(4, dtype=np.int64),
                     np.array([3.0, 3.0, 3.0, 7.0]))
        assert state.finalize()[0] == 10.0

    def test_scale_invariant_without_singletons(self):
        # Replicating every seen row adds no distinct value: with no
        # singleton pairs the k/i multiset rescaling must not inflate
        # the estimate.
        state = DistinctState()
        state.update(np.zeros(4, dtype=np.int64),
                     np.array([1.0, 1.0, 2.0, 2.0]))
        assert state.finalize(scale=4.0)[0] == 2.0

    def test_good_toulmin_extrapolates_singletons(self):
        # Pinned regression for the t_dist calibration under-coverage:
        # mid-run, singletons predict unseen species via the two-term
        # Good-Toulmin series t*phi_1 - t^2*phi_2; at the final batch
        # (scale == 1, t == 0) the answer stays exact.
        state = DistinctState()
        state.update(np.zeros(5, dtype=np.int64),
                     np.array([1.0, 2.0, 3.0, 3.0, 3.0]))
        assert state.finalize(scale=1.0)[0] == 3.0
        # phi_1 = 2, phi_2 = 0, t = 1: 3 seen + 2 predicted unseen.
        assert state.finalize(scale=2.0)[0] == 5.0

    def test_good_toulmin_doubletons_damp_the_extrapolation(self):
        # phi_1 = phi_2 = 1 at t = 1: the two-term truncation cancels
        # to zero while first order predicts one unseen species; the
        # point estimate is the midpoint of that bracket.
        state = DistinctState()
        state.update(np.zeros(3, dtype=np.int64),
                     np.array([1.0, 2.0, 2.0]))
        assert state.finalize(scale=2.0)[0] == 2.5

    def test_good_toulmin_never_reduces_below_seen(self):
        # All doubletons: the raw series is negative, the clamp keeps
        # the estimate at distinct-seen (truth can never be below it).
        state = DistinctState()
        state.update(np.zeros(4, dtype=np.int64),
                     np.array([1.0, 1.0, 2.0, 2.0]))
        assert state.finalize(scale=3.0)[0] == 2.0

    def test_good_toulmin_sum_weights_singleton_values(self):
        # SUM DISTINCT extrapolates value-weighted species mass: the
        # singletons' own values stand in for the unseen tail.
        state = DistinctState(mode="sum")
        state.update(np.zeros(2, dtype=np.int64),
                     np.array([5.0, 2.0]))
        assert state.finalize(scale=1.0)[0] == 7.0
        assert state.finalize(scale=2.0)[0] == 14.0  # 7 seen + t * 7

    def test_bootstrap_presence_per_trial(self):
        # A value survives a replica iff any of its rows drew weight;
        # every pair also contributes the deterministic e^-c recentering
        # mass that cancels the Poissonized replicas' downward bias.
        state = DistinctState(trials=2)
        weights = np.array([[1.0, 0.0], [0.0, 0.0]])
        state.update(np.zeros(2, dtype=np.int64),
                     np.array([5.0, 9.0]), weights)
        out = state.finalize()[0]
        kappa = 2 * np.exp(-1.0)  # two raw singletons
        assert out[0] - out[1] == 1.0  # presence differs by one pair
        np.testing.assert_allclose(out[1], kappa)

    def test_nan_values_dedup_to_one(self):
        state = DistinctState()
        state.update(np.zeros(3, dtype=np.int64),
                     np.array([np.nan, np.nan, 1.0]))
        assert state.finalize()[0] == 2.0

    def test_merge_equals_update(self):
        rng = np.random.default_rng(9)
        vals = rng.integers(0, 12, 300).astype(np.float64)
        idx = rng.integers(0, 3, 300)
        a, b, whole = DistinctState(), DistinctState(), DistinctState()
        a.update(idx[:150], vals[:150])
        b.update(idx[150:], vals[150:])
        whole.update(idx, vals)
        a.merge(b)
        np.testing.assert_array_equal(a.finalize(), whole.finalize())

    def test_requires_argument(self):
        with pytest.raises(ExecutionError, match="argument"):
            DistinctState().update(np.zeros(1, dtype=np.int64), None)

    def test_empty_grouped_input_has_no_rows(self):
        # Regression twin of the QuantileState case above.
        assert len(DistinctState().finalize()) == 0


class TupleEncodeDistinct(DistinctState):
    """Reference: DistinctState as it encoded pairs before int64 keys,
    one Python ``(group, bits)`` tuple per row."""

    def _update(self, group_idx, values, weights):
        if values is None:
            raise ExecutionError("DISTINCT aggregates require an argument")
        n = len(group_idx)
        bits = self._value_bits(values)
        keys = np.empty(n, dtype=object)
        keys[:] = list(zip(group_idx.tolist(), bits.tolist()))
        pair_idx = self.pairs.encode(keys)
        self._ensure_pairs(self.pairs.num_groups)
        self.wsum += _grouped_sum(pair_idx, weights, len(self.wsum))
        self.raw += np.bincount(pair_idx, minlength=len(self.raw))

    def _finalize(self, scale):
        # The tuple encode read each pair's halves off its key.
        keys = self.pairs.keys()
        self.pair_group = np.array([k[0] for k in keys], dtype=np.int64)
        self.pair_bits = np.array([k[1] for k in keys], dtype=np.int64)
        return super()._finalize(scale)


_SPECIAL_VALUES = [
    0.0, -0.0, 1.0, -1.0, -7.25, np.inf, -np.inf, np.nan,
    # A second NaN payload: canonicalised to the same pair as np.nan.
    float(np.array([0x7FF0000000000001], dtype=np.int64).view(np.float64)[0]),
]
_values = st.one_of(
    st.sampled_from(_SPECIAL_VALUES),
    st.integers(-3, 3).map(float),  # small pool: pairs overlap
    st.floats(width=64),
)
_batch = st.lists(st.tuples(st.integers(0, 3), _values), max_size=40)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDistinctEncodeOracle:
    """The int64 pair encode assigns every pair the id the per-row tuple
    encode gave it, so every sum sees the same operands in order."""

    @settings(max_examples=150, deadline=None)
    @given(batches=st.lists(_batch, min_size=1, max_size=4),
           trials=st.sampled_from([None, 7]),
           mode=st.sampled_from(["count", "sum", "avg"]),
           seed=st.integers(0, 2 ** 16),
           scale=st.sampled_from([1.0, 2.5]))
    def test_matches_tuple_encode(self, batches, trials, mode, seed, scale):
        rng = np.random.default_rng(seed)
        ref = TupleEncodeDistinct(trials, mode=mode)
        new = DistinctState(trials, mode=mode)
        for rows in batches:
            group_idx = np.array([g for g, _ in rows], dtype=np.int64)
            values = np.array([v for _, v in rows], dtype=np.float64)
            weights = (None if trials is None else
                       rng.poisson(1.0, (len(rows), trials)).astype(np.uint8))
            ref.update(group_idx, values, weights)
            new.update(group_idx, values, weights)
            assert new.pairs.keys() == ref.pairs.keys()
            assert _same_bits(new.wsum, ref.wsum)
            assert _same_bits(new.raw, ref.raw)
        keys = ref.pairs.keys()
        npairs = len(keys)
        assert new.pair_group[:npairs].tolist() == [k[0] for k in keys]
        assert new.pair_bits[:npairs].tolist() == [k[1] for k in keys]
        # inf - inf and huge values overflowing in the SUM/AVG
        # extrapolation warn in both.
        with np.errstate(invalid="ignore", over="ignore"):
            expected = ref.finalize(scale)
            assert _same_bits(new.finalize(scale), expected)
            assert _same_bits(new.copy().finalize(scale), expected)


class TestFactoryAndUdaf:
    def test_make_state_builtins(self):
        for func in ("sum", "count", "avg", "min", "max", "stdev", "var"):
            assert make_state(call(func)) is not None

    def test_make_state_quantile_param(self):
        state = make_state(call("quantile", param=0.25))
        assert state.q == 0.25

    def test_median_is_quantile_half(self):
        assert make_state(call("median")).q == 0.5

    def test_unknown_aggregate(self):
        with pytest.raises(PlanError, match="unknown aggregate"):
            make_state(call("frobnicate"))

    def test_udaf_roundtrip(self):
        spec = UDAFSpec(
            name="geomean",
            init=lambda: [0.0, 0.0],
            update=lambda s, v, w: [s[0] + np.sum(np.log(v) * w),
                                    s[1] + np.sum(w)],
            merge=lambda a, b: [a[0] + b[0], a[1] + b[1]],
            finalize=lambda s, scale: float(np.exp(s[0] / max(s[1], 1.0))),
        )
        registry = UDAFRegistry()
        registry.register(spec)
        state = make_state(call("geomean"), udafs=registry)
        state.update(np.zeros(3, dtype=np.int64), np.array([1.0, 10.0, 100.0]))
        assert state.finalize()[0] == pytest.approx(10.0)

    def test_udaf_no_trials(self):
        spec = UDAFSpec("x", lambda: 0, lambda s, v, w: s, lambda a, b: a,
                        lambda s, scale: 0.0)
        registry = UDAFRegistry()
        registry.register(spec)
        with pytest.raises(ExecutionError, match="bootstrap"):
            make_state(call("x"), trials=8, udafs=registry)

    def test_duplicate_udaf_rejected(self):
        spec = UDAFSpec("x", lambda: 0, lambda s, v, w: s, lambda a, b: a,
                        lambda s, scale: 0.0)
        registry = UDAFRegistry()
        registry.register(spec)
        with pytest.raises(PlanError):
            registry.register(spec)
