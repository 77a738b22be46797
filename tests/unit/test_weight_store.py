"""Stored uint8 weights: drawn once, read by all, equal to a fresh draw.

Weights are a pure function of ``(seed, label, batch, trial, rows)``,
so a store hit must be indistinguishable from a fresh draw: the stored
uint8 columns widen to the float64 draw they replaced bit for bit,
folding them as uint8 leaves every state byte-equal to folding that
widening, and a query's stream does not depend on what ran before it in
the session.
The store's bound is tested in ``test_batch_store.py``.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import GolaConfig, GolaSession
from repro.core.guards import BlockGuards
from repro.core.store import BatchStore
from repro.engine.aggregates import (
    AvgState,
    CountState,
    DistinctState,
    MinState,
    QuantileState,
    SumState,
    VarState,
    _as_weight_matrix,
)
from repro.estimate.bootstrap import (
    _P1_AMBIGUOUS,
    _P1_BUCKETS,
    _P1_CDF,
    BatchWeights,
)
from repro.estimate.random_source import derive_rng
from repro.obs import MetricsRegistry, Tracer
from repro.qa.identity import snapshot_fingerprint
from repro.workloads import SBI_QUERY, generate_conviva, generate_sessions


# -- the oracle: the float64 draw before weights became uint8, verbatim --


def _poisson1_tables():
    """Inverse-CDF tables for Poisson(1) weight draws.

    The CDF saturates to 1.0 (within float64) at k = 18, truncating a
    tail of mass ~1e-18 — unobservable at any realistic draw volume.
    The 4096-bucket quantization maps a uniform draw straight to its
    weight for every bucket that lies inside one CDF step; only the
    handful of buckets straddling a step (7 of 4096) fall back to a
    binary search, so the transform costs ~one table lookup per row.
    """
    pmf, term = [], float(np.exp(-1.0))
    for k in range(40):
        pmf.append(term)
        term /= (k + 1)
    cdf = np.cumsum(pmf)
    cdf = cdf[: int(np.searchsorted(cdf, 1.0 - 1e-18)) + 1]
    buckets = 4096
    grid = np.arange(buckets, dtype=np.float64) / buckets
    k_low = np.searchsorted(cdf, grid, side="right")
    k_high = np.searchsorted(
        cdf, (np.arange(buckets) + 1.0) / buckets - 1e-18, side="right"
    )
    return cdf, k_low.astype(np.float64), k_low != k_high, buckets


_P1_CDF_F64, _P1_BUCKET_K_F64, _P1_AMBIGUOUS_F64, _P1_BUCKETS_F64 = \
    _poisson1_tables()


def poisson_trial_column(master_seed: int, label: str, batch_index: int,
                         trial: int, num_rows: int) -> np.ndarray:
    """The ``(num_rows,)`` Poisson(1) weight column of one trial."""
    rng = derive_rng(master_seed, f"{label}:b{batch_index}:t{trial}")
    u = rng.random(num_rows)
    idx = (u * _P1_BUCKETS_F64).astype(np.int64)
    out = _P1_BUCKET_K_F64[idx]
    ambiguous = _P1_AMBIGUOUS_F64[idx]
    if ambiguous.any():
        sub = np.nonzero(ambiguous)[0]
        out[sub] = np.searchsorted(_P1_CDF_F64, u[sub], side="right")
    return out


#: Drawn with 50,000 rows, hits every one of the 7 ambiguous buckets.
COVERING = (2015, "bootstrap:trips", 3, 5, 50_000)


class TestStoredColumnsMatchTheOracle:
    def test_tables_unchanged_but_for_dtype(self):
        assert np.array_equal(_P1_CDF, _P1_CDF_F64)
        assert np.array_equal(_P1_AMBIGUOUS, _P1_AMBIGUOUS_F64)
        assert _P1_BUCKETS == _P1_BUCKETS_F64 == 4096
        assert int(_P1_AMBIGUOUS.sum()) == 7

    def test_covering_example_hits_every_ambiguous_bucket(self):
        seed, label, batch, trial, n = COVERING
        u = derive_rng(seed, f"{label}:b{batch}:t{trial}").random(n)
        hit = set((u * _P1_BUCKETS).astype(np.int64).tolist())
        assert set(np.nonzero(_P1_AMBIGUOUS)[0].tolist()) <= hit

    @given(
        seed=st.integers(0, 2 ** 32),
        label=st.sampled_from(["bootstrap:trips", "bootstrap:tpch", "u"]),
        batch=st.integers(0, 200),
        trial=st.integers(0, 7),
        n=st.integers(0, 50_000),
    )
    @example(*COVERING)
    def test_stored_uint8_widens_to_the_float64_draw(self, seed, label,
                                                     batch, trial, n):
        handle = BatchWeights(trial + 1, seed, label, batch, n,
                              store=BatchStore())
        stored = handle.dense()
        assert stored.dtype == np.uint8
        widened = stored[:, trial].astype(np.float64)
        oracle = poisson_trial_column(seed, label, batch, trial, n)
        assert widened.tobytes() == oracle.tobytes()


def _assert_states_equal(narrow, wide):
    """Byte-equal states and answers; only a reservoir's weights differ,
    and those in dtype alone (uint8 against float64)."""
    assert narrow.finalize(1.5).tobytes() == wide.finalize(1.5).tobytes()
    for name, arr in vars(narrow).items():
        if not isinstance(arr, np.ndarray):
            continue
        other = vars(wide)[name]
        if name == "weights":
            assert arr.dtype == np.uint8 and other.dtype == np.float64
            assert np.array_equal(arr, other)
        else:
            assert arr.dtype == other.dtype
            assert arr.tobytes() == other.tobytes(), name


class TestUint8Rectangle:
    STATES = [
        SumState, CountState, AvgState, VarState, MinState,
        lambda trials: DistinctState(trials, mode="sum"),
        lambda trials: QuantileState(trials, q=0.3, capacity=8, seed=4),
    ]

    @pytest.mark.parametrize("groups", [1, 3])
    @pytest.mark.parametrize("make", STATES, ids=[
        "sum", "count", "avg", "var", "min", "distinct", "quantile"])
    def test_uint8_folds_like_its_float64_widening(self, make, groups):
        largest = len(_P1_CDF) - 1  # u just below 1 maps here
        assert largest == int(np.searchsorted(
            _P1_CDF, np.nextafter(1.0, 0.0), side="right"))
        assert largest <= np.iinfo(np.uint8).max
        weights = np.zeros((12, 4), dtype=np.uint8, order="F")
        weights[::2] = largest
        weights[1, 3] = 1
        weights[3] = [2, 0, 5, 1]
        assert _as_weight_matrix(weights, 12, 4) is weights  # no copy

        values = np.linspace(-1.0, 1.0, 12)
        group_idx = np.arange(12) % groups
        narrow, wide = make(4), make(4)
        for rows in (slice(0, 7), slice(7, 12)):
            narrow.update(group_idx[rows], values[rows], weights[rows])
            wide.update(group_idx[rows], values[rows],
                        weights[rows].astype(np.float64))
        _assert_states_equal(narrow, wide)


ROWS = 6000
CONFIG = GolaConfig(num_batches=4, bootstrap_trials=16, seed=5)


def _session(tracer=None):
    session = GolaSession(CONFIG, tracer=tracer)
    session.register_table("sessions", generate_sessions(ROWS, seed=7))
    session.register_table("conviva", generate_conviva(ROWS, seed=7))
    return session


def _config(**changes):
    return dataclasses.replace(CONFIG, **changes)


class TestSessionOrder:
    def test_stream_independent_of_what_ran_before(self):
        alone = snapshot_fingerprint(_session().sql(SBI_QUERY).run_online())

        tracer = Tracer(metrics=MetricsRegistry(enabled=True))
        session = _session(tracer)
        query = session.sql(SBI_QUERY)
        # The same table under another seed, then another B, then the
        # same weights through another query (VAR keeps replicas; a
        # flat AVG draws none): the store holds each in turn, and the
        # last one is a hit for the query under test.
        list(query.run_online(_config(seed=6)))
        list(query.run_online(_config(bootstrap_trials=24)))
        list(session.sql("SELECT VAR(play_time) FROM sessions")
             .run_online())
        drawn = tracer.metrics.snapshot().counters[
            "bootstrap.columns_drawn"]
        after = snapshot_fingerprint(query.run_online())
        assert after == alone
        assert tracer.metrics.snapshot().counters[
            "bootstrap.columns_drawn"] == drawn  # read from the store


class TestRebuildMemory:
    """A guard rebuild concatenates uint8 rows and pins nothing.

    The parent re-filled a float64 copy of every retained batch's
    rectangle, kept all but the current one, and concatenated a second
    float64 copy: its peak was ~20x the retained rows' uint8 rectangle.
    """

    ROWS, TRIALS, BATCHES = 20_000, 200, 8

    def test_forced_rebuild_peak_is_a_small_multiple(self, monkeypatch):
        violation = BlockGuards.violation
        checks = []

        def forced(guards, ienv):
            # The consumer block (the one with guards) "violates" at the
            # last batch, so the rebuild replays every row.
            if guards.guards:
                checks.append(1)
                if len(checks) == self.BATCHES:
                    return "forced"
            return violation(guards, ienv)

        monkeypatch.setattr(BlockGuards, "violation", forced)
        session = GolaSession(GolaConfig(num_batches=self.BATCHES,
                                         bootstrap_trials=self.TRIALS,
                                         seed=3))
        session.register_table("sessions",
                               generate_sessions(self.ROWS, seed=7))
        query = session.sql(SBI_QUERY)
        tracemalloc.start()
        try:
            snapshots = list(query.run_online())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert snapshots[-1].rebuilds  # the rebuild happened
        rectangle = self.ROWS * self.TRIALS  # uint8 bytes
        # The store (1x), the concatenated replay (1x), the rows that
        # pass (<1x) and the partitions themselves: ~3.1x here.
        assert peak < 5 * rectangle
