"""Live telemetry primitives: log buckets, sink rotation.

The SLO numbers the serve layer exports are only trustworthy if the
underlying sketch is: quantiles must stay within one log bucket of the
exact order statistic for *any* input, and merges must form a
commutative monoid so per-worker histograms combine exactly — both
checked property-style here, against numpy as the oracle.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    GROWTH,
    Histogram,
    LogBuckets,
    MetricsRegistry,
    bucket_key,
    bucket_upper_edge,
)
from repro.obs.sinks import JsonlSink
from repro.serve.telemetry import render_prometheus

from .._prometheus import parse_prometheus, quantile_from_cumulative

values_strategy = st.lists(
    st.one_of(
        st.floats(min_value=-1e9, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        st.just(0.0),
        st.floats(min_value=1e-6, max_value=10.0),
    ),
    min_size=1, max_size=200,
)


class TestBucketKey:
    def test_zero_and_signs(self):
        assert bucket_key(0.0) == (0, 0)
        assert bucket_key(1.0) == (1, 0)
        assert bucket_key(-1.0) == (-1, 0)
        assert bucket_key(2.0)[1] == 8  # one octave = 8 buckets

    def test_edges_bracket_the_value(self):
        for value in (0.013, 1.0, 7.25, 1e12, -3.7, -1e-9):
            sign, index = bucket_key(value)
            upper = bucket_upper_edge(sign, index)
            if value > 0:
                assert value <= upper <= value * GROWTH * (1 + 1e-12)
            else:
                # Negative upper edge is the end closest to zero.
                assert value <= upper
                assert abs(upper) >= abs(value) / GROWTH * (1 - 1e-12)

    def test_extreme_index_overflows_to_inf(self):
        assert bucket_upper_edge(1, 10**6) == math.inf
        assert bucket_upper_edge(-1, 10**6) == -math.inf


class TestLogBuckets:
    def test_empty_quantile_is_nan(self):
        assert math.isnan(LogBuckets().quantile(0.5))

    def test_nan_observations_ignored(self):
        buckets = LogBuckets()
        buckets.observe(float("nan"))
        buckets.observe(1.0)
        assert buckets.count == 1

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LogBuckets().quantile(1.5)

    def test_state_dict_round_trip(self):
        buckets = LogBuckets()
        for value in (0.0, 0.5, -3.0, 7.0, 7.1):
            buckets.observe(value)
        # JSON round trip stringifies dict keys; from_state re-ints them.
        state = json.loads(json.dumps(buckets.state_dict()))
        assert LogBuckets.from_state(state) == buckets

    def test_memory_is_bounded_by_buckets_not_count(self):
        buckets = LogBuckets()
        for i in range(10_000):
            buckets.observe(1.0 + (i % 7) * 1e-4)
        assert buckets.count == 10_000
        assert buckets.num_buckets <= 2

    def test_cumulative_is_monotone_and_total(self):
        buckets = LogBuckets()
        rng = np.random.default_rng(5)
        for value in rng.lognormal(0, 2, 500):
            buckets.observe(float(value) * (1 if value > 1 else -1))
        pairs = buckets.cumulative()
        edges = [e for e, _ in pairs]
        counts = [c for _, c in pairs]
        assert edges == sorted(edges)
        assert counts == sorted(counts)
        assert counts[-1] == buckets.count

    @settings(max_examples=120, deadline=None)
    @given(values=values_strategy,
           q=st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_within_one_bucket_of_exact(self, values, q):
        """q-quantile lands inside exactly the bucket holding the exact
        order statistic ``sorted(v)[floor(q * (n - 1))]``."""
        buckets = LogBuckets()
        for value in values:
            buckets.observe(value)
        exact = float(np.sort(np.asarray(values))[
            math.floor(q * (len(values) - 1))
        ])
        got = buckets.quantile(q)
        upper = bucket_upper_edge(*bucket_key(exact))
        if exact > 0:
            assert upper / GROWTH <= got <= upper
            assert exact / GROWTH <= got <= exact * GROWTH * (1 + 1e-9)
        elif exact < 0:
            assert upper * GROWTH <= got <= upper
            assert exact * GROWTH * (1 + 1e-9) <= got <= exact / GROWTH
        else:
            assert got == 0.0

    def test_quantile_interpolates_by_rank_in_the_bucket(self):
        """Ten observations in one bucket: each decile takes its own
        tenth of the bucket, not the bucket's upper edge."""
        buckets = LogBuckets()
        for i in range(10):
            buckets.observe(1.0 + i * 1e-3)
        lower, upper = 1.0, GROWTH
        got = [buckets.quantile(k / 9) for k in range(10)]
        assert got == sorted(got) and len(set(got)) == 10
        for k, value in enumerate(got):
            assert value == pytest.approx(
                lower + (upper - lower) * (k + 0.5) / 10, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(a=values_strategy, b=values_strategy, c=values_strategy)
    def test_merge_is_associative_and_commutative(self, a, b, c):
        """Worker histograms combine exactly, in any merge order."""
        def build(values):
            out = LogBuckets()
            for value in values:
                out.observe(value)
            return out

        ha, hb, hc = build(a), build(b), build(c)
        assert ha.merge(hb) == hb.merge(ha)
        assert ha.merge(hb).merge(hc) == ha.merge(hb.merge(hc))
        # Merging equals observing the concatenated stream.
        assert ha.merge(hb).merge(hc) == build(a + b + c)

    @settings(max_examples=40, deadline=None)
    @given(values=values_strategy,
           q=st.floats(min_value=0.0, max_value=1.0))
    def test_cumulative_read_side_matches(self, values, q):
        """A scraper re-deriving quantiles from exported cumulative
        buckets gets the same answer as the in-process sketch."""
        buckets = LogBuckets()
        for value in values:
            buckets.observe(value)
        pairs = buckets.cumulative()
        if all(math.isfinite(edge) for edge, _ in pairs):
            assert quantile_from_cumulative(pairs, q) == buckets.quantile(q)

    def test_quantile_from_cumulative_inf_falls_back(self):
        pairs = [(1.0, 3), (math.inf, 4)]
        assert quantile_from_cumulative(pairs, 1.0) == 1.0
        assert math.isnan(quantile_from_cumulative([], 0.5))


class TestHistogramBackingBuckets:
    """Satellite: ``obs.Histogram`` carries mergeable log buckets."""

    def test_snapshot_quantiles(self):
        hist = Histogram()
        for value in (1.0, 2.0, 4.0, 8.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap.count == 4
        assert 2.0 <= snap.quantile(0.5) <= 2.0 * GROWTH

    def test_snapshot_merge_keeps_buckets(self):
        h1, h2 = Histogram(), Histogram()
        for value in (1.0, 2.0):
            h1.observe(value)
        h2.observe(100.0)
        merged = h1.snapshot().merge(h2.snapshot())
        assert merged.count == 3
        assert merged.buckets.count == 3
        assert merged.quantile(1.0) >= 100.0


class TestInfiniteObservations:
    """+/-inf land in the extreme buckets, which every reader renders."""

    def test_infinities_take_the_extreme_buckets(self):
        extreme = bucket_key(sys.float_info.max)[1]
        assert bucket_key(math.inf) == (1, extreme)
        assert bucket_key(-math.inf) == (-1, extreme)
        assert bucket_upper_edge(1, extreme) == math.inf
        assert bucket_upper_edge(-1, extreme) == -math.inf

    def test_quantile_and_cumulative(self):
        buckets = LogBuckets()
        for value in (-math.inf, -2.0, 1.0, math.inf):
            buckets.observe(value)
        assert buckets.count == 4
        assert buckets.quantile(0.0) == -math.inf
        assert -2.0 * GROWTH <= buckets.quantile(1 / 3) <= -2.0
        assert 1.0 <= buckets.quantile(2 / 3) <= GROWTH
        assert buckets.quantile(1.0) == math.inf
        pairs = buckets.cumulative()
        assert pairs[0] == (-math.inf, 1) and pairs[-1] == (math.inf, 4)
        assert [c for _, c in pairs] == [1, 2, 3, 4]

    def test_largest_negative_finite_value_has_a_quantile(self):
        buckets = LogBuckets()
        buckets.observe(-sys.float_info.max / 1.05)
        assert buckets.quantile(0.5) == -math.inf

    def test_prometheus_text_renders_both_extremes(self):
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("serve.step_seconds")
        for value in (-math.inf, 1.0, math.inf):
            hist.observe(value)
        family = parse_prometheus(render_prometheus(registry.snapshot()))[
            "repro_serve_step_seconds"]
        buckets = {labels["le"]: value for name, labels, value
                   in family.samples if name.endswith("_bucket")}
        assert buckets["-Inf"] == 1
        assert buckets["+Inf"] == 3
        assert family.histogram_quantile(0.0) == -math.inf


class TestJsonlRotation:
    """Satellite: owned JSONL sinks roll over at size/line caps."""

    def _lines(self, path):
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh]

    def test_rotates_on_byte_cap(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path), max_bytes=64, backups=2)
        for i in range(40):
            sink.emit({"seq": i})
        sink.close()
        assert path.exists()
        assert (tmp_path / "trace.jsonl.1").exists()
        assert (tmp_path / "trace.jsonl.2").exists()
        assert not (tmp_path / "trace.jsonl.3").exists()
        # No records are lost across the live file and its backups, and
        # the newest records are in the live file.
        kept = (self._lines(str(path) + ".2") + self._lines(str(path) + ".1")
                + self._lines(path))
        seqs = [r["seq"] for r in kept]
        assert seqs == sorted(seqs)
        assert seqs[-1] == 39

    def test_rotates_on_line_cap(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path), max_lines=5, backups=1)
        for i in range(12):
            sink.emit({"seq": i})
        sink.close()
        assert len(self._lines(path)) <= 5
        assert (tmp_path / "trace.jsonl.1").exists()
        assert not (tmp_path / "trace.jsonl.2").exists()

    def test_borrowed_file_never_rotates(self, tmp_path):
        path = tmp_path / "borrowed.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            sink = JsonlSink(fh, max_bytes=8)
            for i in range(20):
                sink.emit({"seq": i})
            sink.close()
        assert len(self._lines(path)) == 20
        assert not (tmp_path / "borrowed.jsonl.1").exists()

    def test_no_caps_means_no_rotation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        for i in range(50):
            sink.emit({"seq": i})
        sink.close()
        assert len(self._lines(path)) == 50
        assert not (tmp_path / "trace.jsonl.1").exists()
