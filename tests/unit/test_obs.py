"""Unit tests for the observability layer (repro.obs)."""

import io
import json

from repro.config import GolaConfig
from repro.obs import (
    NULL_TRACER,
    AggregatingSink,
    JsonlSink,
    MetricsRegistry,
    NullSink,
    TeeSink,
    Tracer,
    TraceSink,
    build_profile,
    get_tracer,
    load_events,
    render_profile,
    set_tracer,
    tracer_from_config,
)
from repro.core.result import format_rsd


class ListSink(TraceSink):
    """Collects raw records for structural assertions."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)


class TestTracer:
    def test_span_hierarchy(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with tracer.span("query") as q:
            with tracer.span("batch", batch_index=1):
                with tracer.span("block", block="main") as bl:
                    bl.set("rows_processed", 42)
            tracer.event("checkpoint", batch=1)
        spans = {r["name"]: r for r in sink.records if r["type"] == "span"}
        # Innermost exits first; parent links reconstruct the tree.
        assert spans["block"]["parent"] == spans["batch"]["id"]
        assert spans["batch"]["parent"] == spans["query"]["id"]
        assert spans["query"]["parent"] is None
        assert spans["block"]["attrs"]["rows_processed"] == 42
        assert q.elapsed_s >= spans["batch"]["elapsed_s"] >= 0.0
        event = next(r for r in sink.records if r["type"] == "event")
        assert event["parent"] == spans["query"]["id"]

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(NullSink())
        assert not tracer.enabled
        span_a = tracer.span("query")
        span_b = tracer.span("batch", rows_in=10)
        # One shared null span: no allocation per record site.
        assert span_a is span_b
        with span_a as s:
            s.set("rows", 1)  # silently ignored
        tracer.event("never")
        assert not tracer.metrics.enabled

    def test_default_tracer_install(self):
        assert get_tracer() is NULL_TRACER
        custom = Tracer(AggregatingSink())
        try:
            assert set_tracer(custom) is custom
            assert get_tracer() is custom
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_tracer_from_config(self):
        assert not tracer_from_config(GolaConfig()).enabled
        traced = tracer_from_config(GolaConfig(trace=True))
        assert traced.enabled and traced.metrics.enabled
        assert isinstance(traced.sink, AggregatingSink)
        metrics_only = tracer_from_config(GolaConfig(metrics=True))
        assert not metrics_only.enabled and metrics_only.metrics.enabled

    def test_tracer_from_config_trace_path(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = tracer_from_config(GolaConfig(trace_path=str(path)))
        with tracer.span("query"):
            pass
        tracer.close()
        assert len(load_events(str(path))) == 1
        # The tee also aggregates in memory.
        assert any(isinstance(s, AggregatingSink) for s in tracer.sink.sinks)


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(str(path)))
        with tracer.span("batch", batch_index=1, rows_in=7):
            pass
        tracer.close()
        [record] = load_events(str(path))
        assert record["name"] == "batch"
        assert record["attrs"] == {"batch_index": 1, "rows_in": 7}

    def test_jsonl_borrowed_file(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.emit({"type": "event", "name": "x", "attrs": {}})
        sink.close()  # borrowed: flushed, not closed
        assert json.loads(buf.getvalue())["name"] == "x"

    def test_aggregating_sink(self):
        sink = AggregatingSink()
        tracer = Tracer(sink)
        for i in range(3):
            with tracer.span("batch", rows_in=10 * (i + 1), engine="gola",
                             rebuilt=True):
                pass
        tracer.event("guard_violation")
        stats = sink.spans["batch"]
        assert stats.count == 3
        assert stats.attr_totals["rows_in"] == 60
        # Strings and bools never pollute the numeric totals.
        assert "engine" not in stats.attr_totals
        assert "rebuilt" not in stats.attr_totals
        assert stats.min_s <= stats.mean_s <= stats.max_s
        assert sink.events == {"guard_violation": 1}
        assert sink.total_seconds("batch") == stats.total_s
        assert sink.total_seconds("missing") == 0.0
        assert "batch" in sink.render()

    def test_tee_sink(self, tmp_path):
        agg = AggregatingSink()
        path = tmp_path / "tee.jsonl"
        tee = TeeSink(agg, JsonlSink(str(path)))
        tracer = Tracer(tee)
        with tracer.span("query"):
            pass
        tracer.close()
        assert agg.spans["query"].count == 1
        assert len(load_events(str(path))) == 1

    def test_tee_drops_disabled_children(self):
        tee = TeeSink(NullSink(), NullSink())
        assert not tee.enabled
        assert TeeSink(AggregatingSink(), NullSink()).enabled


class TestMetrics:
    def test_instruments(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("rows").inc(5)
        reg.counter("rows").inc()
        reg.gauge("uncertain").set(17)
        for v in (1.0, 3.0):
            reg.histogram("seconds").observe(v)
        snap = reg.snapshot()
        assert snap.counters["rows"] == 6
        assert snap.gauges["uncertain"] == 17.0
        hist = snap.histograms["seconds"]
        assert hist.count == 2 and hist.mean == 2.0
        assert hist.min == 1.0 and hist.max == 3.0
        text = snap.describe()
        assert "rows" in text and "uncertain" in text and "seconds" in text

    def test_snapshot_merge(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("rows").inc(10)
        b.counter("rows").inc(4)
        b.counter("only_b").inc()
        a.gauge("level").set(1)
        b.gauge("level").set(2)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(5.0)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.counters == {"rows": 14, "only_b": 1}
        assert merged.gauges["level"] == 2.0  # last write wins
        assert merged.histograms["h"].count == 2
        assert merged.histograms["h"].min == 1.0
        assert merged.histograms["h"].max == 5.0

    def test_histogram_stdev(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            h.observe(v)
        assert abs(h.stdev - 2.0) < 1e-12

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot().counters == {}


class TestReport:
    def test_build_and_render_profile(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(str(path)))
        with tracer.span("query"):
            for i in (1, 2):
                with tracer.span("batch", batch_index=i, rows_in=50,
                                 rows_processed=60, rebuilds=i - 1):
                    with tracer.span("op:Scan", rows_in=50, rows_out=50):
                        pass
        tracer.event("guard_violation")
        tracer.close()

        report = build_profile(load_events(str(path)))
        assert report.span_stats("batch").count == 2
        assert report.span_stats("missing") is None
        assert [b["batch_index"] for b in report.batches] == [1, 2]
        assert report.events == {"guard_violation": 1}

        text = render_profile(report)
        assert "per-phase profile" in text
        assert "per-operator profile" in text
        assert "op:Scan" in text
        assert "guard_violation=1" in text

    def test_format_rsd(self):
        assert format_rsd(float("nan")) == "n/a"
        assert format_rsd(0.0123) == "1.230%"
        assert format_rsd(0.0123, digits=1) == "1.2%"
