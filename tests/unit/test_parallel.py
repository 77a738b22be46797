"""Unit coverage for ``repro.parallel`` and the vectorized fold kernels.

The contract under test throughout: for a fixed master seed, every way
of evaluating a batch's bootstrap update — one full-width update, or
sharded across any worker count — produces bit-identical aggregate
states.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import GolaConfig, ParallelConfig
from repro.core.store import BatchStore
from repro.engine.aggregates import (
    AvgState,
    CountState,
    GroupIndex,
    MaxState,
    MinState,
    QuantileState,
    StdevState,
    SumState,
    VarState,
    _grouped_sum,
)
from repro.errors import ExecutionError
from repro.estimate.bootstrap import (
    _P1_CDF,
    BatchWeights,
    PoissonWeightSource,
    poisson_trial_column,
)
from repro.estimate.random_source import derive_rng
from repro.obs import MetricsRegistry, Tracer
from repro.parallel import (
    SERIAL_EXECUTOR,
    ArraySpec,
    ParallelExecutor,
    SupervisedPool,
    make_shard_payloads,
    run_fold_shard,
    shard_ranges,
)


def _no_shared_memory(*args, **kwargs):
    """A host without shared memory: every segment creation fails."""
    raise OSError("no /dev/shm on this host")


class TestShardRanges:
    def test_covers_and_balances(self):
        for trials in (1, 2, 7, 24, 96, 97):
            for shards in (1, 2, 3, 4, 8):
                ranges = shard_ranges(trials, shards)
                assert ranges[0][0] == 0 and ranges[-1][1] == trials
                widths = [hi - lo for lo, hi in ranges]
                assert all(w >= 1 for w in widths)
                assert max(widths) - min(widths) <= 1
                assert sum(widths) == trials
                # contiguous, non-overlapping
                for (_, a_hi), (b_lo, _) in zip(ranges, ranges[1:]):
                    assert a_hi == b_lo

    def test_fewer_ranges_than_shards_when_trials_small(self):
        assert shard_ranges(3, 8) == [(0, 1), (1, 2), (2, 3)]
        assert shard_ranges(0, 4) == []

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            shard_ranges(-1, 2)
        with pytest.raises(ValueError):
            shard_ranges(4, 0)


class TestWorkerPool:
    """The supervised process pool's own lifecycle."""

    def test_map_preserves_task_order(self):
        with SupervisedPool(3) as pool:
            assert pool.map(abs, [-3, 1, -4, -1, 5]) == [3, 1, 4, 1, 5]

    def test_empty_and_single_task(self):
        pool = SupervisedPool(2)
        assert pool.map(abs, []) == []
        assert pool.map(abs, [-7]) == [7]
        pool.close()

    def test_close_is_idempotent(self):
        pool = SupervisedPool(2)
        pool.map(abs, [-1, -2])
        assert pool.worker_pids()
        pool.close()
        pool.close()
        assert pool.worker_pids() == []
        # pools restart lazily after close
        assert pool.map(abs, [-5, 6]) == [5, 6]
        pool.close()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            SupervisedPool(0)
        with pytest.raises(ValueError):
            SupervisedPool(-2)


class TestPoissonTrialColumns:
    def test_bucket_table_matches_plain_inverse_cdf(self):
        for trial in range(6):
            col = poisson_trial_column(2015, "t", 0, trial, 20_000)
            rng = derive_rng(2015, f"t:b0:t{trial}")
            u = rng.random(20_000)
            ref = np.searchsorted(_P1_CDF, u, side="right")
            assert col.dtype == np.uint8
            assert np.array_equal(col, ref)

    def test_poisson_one_moments(self):
        cols = [poisson_trial_column(7, "m", b, t, 50_000)
                for b in range(2) for t in range(4)]
        draws = np.concatenate(cols)
        assert draws.mean() == pytest.approx(1.0, abs=0.01)
        assert draws.var() == pytest.approx(1.0, abs=0.02)

    def test_shard_is_column_slice_of_dense(self):
        handle = BatchWeights(24, 11, "w", 3, 1000, store=BatchStore())
        dense = handle.dense()               # the stored rectangle
        assert dense.dtype == np.uint8 and dense.flags["F_CONTIGUOUS"]
        # A trial shard's columns are those trials' own streams.
        for trial in range(5, 13):
            assert np.array_equal(
                dense[:, trial],
                poisson_trial_column(11, "w", 3, trial, 1000),
            )
        # A storeless handle draws the same rectangle; a stored one
        # reads it again.
        assert np.array_equal(BatchWeights(24, 11, "w", 3, 1000).dense(),
                              dense)
        assert handle.dense() is dense

    def test_columns_independent_of_batch_and_trial(self):
        a = poisson_trial_column(1, "x", 0, 0, 256)
        b = poisson_trial_column(1, "x", 0, 1, 256)
        c = poisson_trial_column(1, "x", 1, 0, 256)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestGroupedSum:
    def _reference(self, group_idx, contrib, groups):
        out = np.zeros((groups, contrib.shape[1]))
        np.add.at(out, group_idx, contrib)
        return out

    def test_matches_scatter_add(self):
        rng = np.random.default_rng(0)
        gi = rng.integers(0, 13, 4000)
        w = rng.random((4000, 9))
        assert np.array_equal(
            _grouped_sum(gi, w, 13), self._reference(gi, w, 13)
        )

    def test_fused_values_identical_to_explicit_contrib(self):
        rng = np.random.default_rng(1)
        gi = rng.integers(0, 5, 2000)
        w = rng.random((2000, 6))
        v = rng.normal(size=2000)
        assert np.array_equal(
            _grouped_sum(gi, w, 5, values=v),
            _grouped_sum(gi, v[:, None] * w, 5),
        )

    def test_column_chunk_invariance(self):
        rng = np.random.default_rng(2)
        gi = rng.integers(0, 7, 1000)
        w = rng.random((1000, 12))
        full = _grouped_sum(gi, w, 7)
        pieces = np.hstack([
            _grouped_sum(gi, w[:, lo:lo + 4], 7) for lo in (0, 4, 8)
        ])
        assert np.array_equal(full, pieces)

    def test_empty(self):
        out = _grouped_sum(np.empty(0, dtype=np.int64),
                           np.empty((0, 4)), 3)
        assert out.shape == (3, 4) and not out.any()


MERGEABLE = [SumState, CountState, AvgState, VarState, StdevState,
             MinState, MaxState]


class TestColumnMerge:
    @pytest.mark.parametrize("state_cls", MERGEABLE)
    def test_shard_merge_bit_identical_to_full_update(self, state_cls):
        rng = np.random.default_rng(3)
        n, trials, groups = 3000, 17, 11
        gi = rng.integers(0, groups, n)
        vals = rng.normal(size=n)
        weights = rng.poisson(1.0, size=(n, trials)).astype(np.float64)

        full = state_cls(trials)
        full.update(gi, vals, weights)

        merged = state_cls(trials)
        merged.ensure_groups(groups)
        for lo, hi in shard_ranges(trials, 4):
            shard = state_cls(hi - lo)
            shard.update(gi, vals, weights[:, lo:hi])
            merged.merge_columns(shard, lo)

        assert np.array_equal(full.finalize(1.5), merged.finalize(1.5))

    @settings(max_examples=40, deadline=None)
    # A group the batch does not reach holds a -inf mean: VAR must not
    # combine it with an empty batch (inf * 0 is NaN).
    @example(seed=315, groups=40, specials="all")
    @given(seed=st.integers(0, 2 ** 32 - 1),
           groups=st.sampled_from([1, 3, 40]),
           specials=st.sampled_from(["none", "one-nan", "all"]))
    def test_full_width_fold_matches_eight_column_chunks(self, seed, groups,
                                                         specials):
        """An inline fold takes the whole stored rectangle in one update;
        folding it as fresh 8-column states merged back column-wise (how
        serial folds ran before, and how pool shards still run) must
        leave every state array the same bit for bit, over batches whose
        groups are a subset of the live state's.

        One exception, shared by every chunked path: when a live NaN
        cell meets a batch NaN of another payload (``np.nan`` against
        the sign-bit NaN of ``inf * 0`` or ``inf - inf``), which payload
        an elementwise add keeps depends on numpy's loop (vector body or
        tail), so the chunk widths can pick it.  With ``"all"`` specials
        cells are only required to be NaN in the same places.
        """
        rng = np.random.default_rng(seed)
        trials = 100
        pool = {"none": [0.0, -0.0], "one-nan": [0.0, -0.0, np.nan],
                "all": [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]}
        for state_cls in MERGEABLE:
            full, chunked = state_cls(trials), state_cls(trials)
            for batch in range(3):
                n = int(rng.integers(1, 400))
                # Batch 1 folds into group 0 only: the live state then has
                # more groups than the batch reaches.
                gi = (np.zeros(n, dtype=np.int64) if batch == 1
                      else rng.integers(0, groups, n))
                vals = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, n)
                pick = rng.integers(0, n, max(1, n // 8))
                vals[pick] = rng.choice(pool[specials], len(pick))
                rect = np.asfortranarray(
                    rng.poisson(1.0, (n, trials)).astype(np.uint8))
                with np.errstate(invalid="ignore", over="ignore"):
                    full.update(gi, vals, rect)
                    for lo in range(0, trials, 8):
                        hi = min(trials, lo + 8)
                        shard = state_cls(hi - lo)
                        shard.update(gi, vals, rect[:, lo:hi])
                        chunked.merge_columns(shard, lo)
            assert full.num_groups == chunked.num_groups
            for name, arr in vars(full).items():
                if not isinstance(arr, np.ndarray):
                    continue
                other = vars(chunked)[name]
                nan = np.isnan(arr)
                assert np.array_equal(nan, np.isnan(other)), name
                if specials == "all":
                    arr, other = arr[~nan], other[~nan]
                assert np.array_equal(
                    np.ascontiguousarray(arr).view(np.int64),
                    np.ascontiguousarray(other).view(np.int64),
                ), (state_cls.__name__, name)

    def test_quantile_rejects_column_merge(self):
        state = QuantileState(8, q=0.5)
        assert not state.supports_column_merge
        with pytest.raises(ExecutionError):
            state.merge_columns(QuantileState(4, q=0.5), 0)

    def test_merge_outside_width_rejected(self):
        full, shard = SumState(8), SumState(4)
        with pytest.raises(ExecutionError):
            full.merge_columns(shard, 6)  # [6, 10) overruns width 8

    def test_merge_wrong_type_rejected(self):
        with pytest.raises(ExecutionError):
            SumState(8).merge_columns(CountState(4), 0)


class TestGroupIndexIncremental:
    def test_new_keys_appended_old_indices_stable(self):
        index = GroupIndex()
        first = index.encode(np.array([5, 3, 5, 9]))
        assert index.num_groups == 3
        mapping = {k: index.index_of(k) for k in (5, 3, 9)}
        second = index.encode(np.array([9, 2, 5]))
        # old keys keep their dense indices; only 2 is new
        assert index.num_groups == 4
        for k, idx in mapping.items():
            assert index.index_of(k) == idx
        assert second[0] == mapping[9] and second[2] == mapping[5]
        assert first.tolist() == [mapping[5], mapping[3], mapping[5],
                                  mapping[9]]

    def test_version_only_bumps_on_insert(self):
        index = GroupIndex()
        index.encode(np.array([1, 2]))
        v = index._version
        index.encode(np.array([2, 1, 1]))  # no new keys
        assert index._version == v
        index.encode(np.array([3]))
        assert index._version == v + 1

    def test_add_new_false_marks_unseen(self):
        index = GroupIndex()
        index.encode(np.array([10, 20]))
        v = index._version
        out = index.encode(np.array([20, 30]), add_new=False)
        assert out.tolist() == [index.index_of(20), -1]
        assert index._version == v and index.num_groups == 2


class TestVectorizedFinalizers:
    def test_quantile_finalize_matches_per_trial_reference(self):
        rng = np.random.default_rng(4)
        trials, n = 9, 500
        state = QuantileState(trials, q=0.3, capacity=4096)
        vals = rng.normal(size=n)
        weights = rng.poisson(1.0, size=(n, trials)).astype(np.float64)
        state.update(np.zeros(n, dtype=np.int64), vals, weights)
        out = state.finalize()

        order = np.argsort(vals, kind="stable")
        svals, sw = vals[order], weights[order]
        for t in range(trials):
            cum = np.cumsum(sw[:, t])
            total = cum[-1]
            pos = int((cum < 0.3 * total).sum())
            expect = svals[min(pos, n - 1)] if total > 0 else 0.0
            assert out[0, t] == expect

    @pytest.mark.parametrize("state_cls", [MinState, MaxState])
    def test_extreme_update_matches_per_trial_reference(self, state_cls):
        rng = np.random.default_rng(5)
        n, trials, groups = 800, 7, 5
        gi = rng.integers(0, groups, n)
        vals = rng.normal(size=n)
        weights = rng.poisson(1.0, size=(n, trials)).astype(np.float64)
        state = state_cls(trials)
        state.update(gi, vals, weights)

        ref = np.full((groups, trials), state_cls._fill)
        for t in range(trials):
            present = weights[:, t] > 0
            state_cls._ufunc.at(ref[:, t], gi[present], vals[present])
        assert np.array_equal(state.finalize(), ref)


def _fold_with(config, trials=16, batches=2, n=6000, groups=9,
               tracer=None, store=None):
    rng = np.random.default_rng(6)
    gi = rng.integers(0, groups, n)
    values = {
        "s": rng.normal(size=n),
        "a": rng.normal(size=n),
        "q": rng.normal(size=n) if groups == 1 else None,
    }
    states = {"s": SumState(trials), "a": AvgState(trials)}
    if groups == 1:
        states["q"] = QuantileState(trials, q=0.5, capacity=10 ** 6,
                                    seed=42)
        gi = np.zeros(n, dtype=np.int64)
    else:
        del values["q"]
    executor = ParallelExecutor(config, tracer=tracer)
    source = PoissonWeightSource(trials, 2015, label="unit", tracer=tracer,
                                 store=store)
    handles = []
    try:
        for _ in range(batches):
            handle = source.batch_weights(n)
            handles.append(handle)
            executor.fold_boot_states(states, gi, values, handle)
    finally:
        executor.close()
    return {k: s.finalize() for k, s in states.items()}, handles


class TestParallelExecutor:
    def test_all_backends_and_worker_counts_identical(self):
        ref, _ = _fold_with(ParallelConfig())
        for config in (
            ParallelConfig(workers=1),
            ParallelConfig(workers=2),
            ParallelConfig(workers=4),
            ParallelConfig(workers=3),
        ):
            out, _ = _fold_with(config)
            for alias in ref:
                assert np.array_equal(ref[alias], out[alias]), \
                    (config, alias)

    def test_serial_fold_draws_each_column_once(self):
        store = BatchStore()
        tracer = Tracer(metrics=MetricsRegistry(enabled=True))
        ref, _ = _fold_with(ParallelConfig(), tracer=tracer, store=store)
        counters = tracer.metrics.snapshot().counters
        assert counters["bootstrap.columns_drawn"] == 16 * 2
        assert store.nbytes == 2 * 6000 * 16  # uint8 rectangles
        # Folding the same batches again reads the store: no draw.
        again = Tracer(metrics=MetricsRegistry(enabled=True))
        out, _ = _fold_with(ParallelConfig(), tracer=again, store=store)
        assert "bootstrap.columns_drawn" not in \
            again.metrics.snapshot().counters
        for alias in ref:
            assert np.array_equal(ref[alias], out[alias])

    def test_pooled_run_draws_each_column_once(self):
        store = BatchStore()
        config = ParallelConfig(workers=2)
        drawn = []
        for _ in range(2):
            tracer = Tracer(metrics=MetricsRegistry(enabled=True))
            _fold_with(config, tracer=tracer, store=store)
            counters = tracer.metrics.snapshot().counters
            assert counters["parallel.shard_tasks"] == 2 * 2
            drawn.append(counters.get("bootstrap.columns_drawn", 0))
        # The coordinator draws each rectangle once into the store and
        # the shards read it: no worker has a way to draw a column.
        assert drawn == [16 * 2, 0]
        assert store.nbytes == 2 * 6000 * 16

    def test_small_batches_skip_sharding(self):
        config = ParallelConfig(workers=4, min_shard_rows=10 ** 9)
        ref, _ = _fold_with(ParallelConfig(min_shard_rows=10 ** 9))
        out, _ = _fold_with(config)
        for alias in ref:
            assert np.array_equal(ref[alias], out[alias])

    def test_non_mergeable_state_takes_dense_path(self):
        ref, _ = _fold_with(ParallelConfig(), groups=1)
        out, _ = _fold_with(ParallelConfig(workers=2), groups=1)
        for alias in ref:
            assert np.array_equal(ref[alias], out[alias]), alias

    def test_from_gola_config(self):
        config = GolaConfig(parallel=ParallelConfig(workers=2))
        executor = ParallelExecutor.from_config(config)
        assert executor.config.workers == 2
        assert executor.enabled
        assert not SERIAL_EXECUTOR.enabled

    @pytest.mark.parametrize("shm", [True, False], ids=["shm", "inline"])
    def test_shard_payloads_carry_the_stored_rectangle(self, monkeypatch,
                                                       shm):
        ref, _ = _fold_with(ParallelConfig())
        if not shm:
            monkeypatch.setattr("repro.parallel.shm.SharedMemory",
                                _no_shared_memory)
        sent = []

        def recording(*args, **kwargs):
            payloads = make_shard_payloads(*args, **kwargs)
            sent.extend(payloads)
            return payloads

        monkeypatch.setattr("repro.parallel.executor.make_shard_payloads",
                            recording)
        store = BatchStore()
        out, _ = _fold_with(ParallelConfig(workers=2), store=store)
        for alias in ref:
            assert np.array_equal(ref[alias], out[alias]), alias
        if not shm:
            # Nothing to publish to: the folds ran inline, no payloads.
            assert sent == []
            return
        assert len(sent) == 2 * 2
        for p in sent:
            # The whole (B, n) transpose, published once per batch.
            assert isinstance(p["weights"], ArraySpec)
            assert p["weights"].shape == (16, 6000)
            assert np.dtype(p["weights"].dtype) == np.uint8


class TestZeroCopyPipeline:
    """Shared-memory publish stays bit-identical to the serial fold, on
    fork and spawn alike, and a host without shared memory folds
    inline."""

    def test_process_shm_pipeline_identical_to_serial(self):
        ref, _ = _fold_with(ParallelConfig())
        out, _ = _fold_with(ParallelConfig(workers=2))
        for alias in ref:
            assert np.array_equal(ref[alias], out[alias]), alias

    def test_eager_and_inline_payload_folds_identical(self, monkeypatch):
        ref, _ = _fold_with(ParallelConfig())
        config = ParallelConfig(workers=2)
        published, _ = _fold_with(config)
        # A host without shared memory: the registry's first publish
        # fails and disables it, so every fold runs inline with no
        # shard task.
        monkeypatch.setattr("repro.parallel.shm.SharedMemory",
                            _no_shared_memory)
        tracer = Tracer(metrics=MetricsRegistry(enabled=True))
        inline, _ = _fold_with(config, tracer=tracer)
        counters = tracer.metrics.snapshot().counters
        assert "parallel.shm_segments_created" not in counters
        assert counters.get("parallel.shard_tasks", 0) == 0
        for out in (published, inline):
            for alias in ref:
                assert np.array_equal(ref[alias], out[alias]), alias

    @pytest.mark.slow
    def test_spawn_start_method_identical(self, monkeypatch):
        # spawn (the platform default where fork does not exist)
        # re-imports workers from scratch: only module-level task
        # functions and spec-sized payloads survive the trip.
        import multiprocessing

        monkeypatch.setattr("repro.parallel.supervisor._mp_context",
                            lambda: multiprocessing.get_context("spawn"))
        ref, _ = _fold_with(ParallelConfig())
        out, _ = _fold_with(ParallelConfig(workers=2))
        for alias in ref:
            assert np.array_equal(ref[alias], out[alias]), alias

    def test_shm_and_pipeline_counters(self):
        tracer = Tracer(metrics=MetricsRegistry(enabled=True))
        _fold_with(ParallelConfig(workers=2), tracer=tracer)
        counters = tracer.metrics.snapshot().counters
        # Two equal-sized folds of one run publish into one segment.
        assert counters["parallel.shm_segments_created"] == 1
        assert counters["parallel.shm_bytes"] > 0
        # Every pooled fold merges before it returns: nothing overlaps.
        assert "parallel.pipeline_overlap_s" not in counters

    def test_published_payloads_carry_specs(self):
        from repro.parallel.shm import ShmRegistry, detach_all

        rect = BatchWeights(8, 1, "p", 0, 64).dense()
        row_idx = np.arange(0, 64, 3)        # the surviving rows
        gi = np.zeros(len(row_idx), dtype=np.int64)
        vals = {"x": np.arange(len(row_idx), dtype=np.float64)}
        expect = SumState(8)
        expect.update(gi, vals["x"], rect[row_idx])
        try:
            with ShmRegistry() as registry:
                lease = registry.publish(
                    {"group_idx": gi, "value:x": vals["x"],
                     "row_idx": row_idx, "weights_t": rect.T}
                )
                payloads = make_shard_payloads(
                    [("x", SumState)], lease.specs, shard_ranges(8, 2),
                )
                for key in ("group_idx", "row_idx", "weights"):
                    assert all(isinstance(p[key], ArraySpec)
                               for p in payloads)
                assert all(isinstance(p["values"]["x"], ArraySpec)
                           for p in payloads)
                merged = SumState(8)
                for pub in payloads:
                    (alias, state), = run_fold_shard(pub)
                    assert alias == "x" and state.width == 4
                    merged.merge_columns(state, pub["lo"])
                # The shards merge back into the full-width update.
                assert np.array_equal(merged.finalize(), expect.finalize())
        finally:
            detach_all()

    def test_invalid_start_method_rejected(self):
        # The start method is not a knob: fork where it exists, else the
        # platform default.
        with pytest.raises(ValueError,
                           match="unknown --workers key 'start_method'"):
            ParallelConfig.parse("start_method=spawn")

