"""Serve telemetry units: prom exposition, convergence math, loadgen.

Covers the pieces behind ``GET /metrics`` and ``GET /queries/<id>/
telemetry`` in isolation: the Prometheus text encoder/parser pair, the
per-query time-to-±ε derivation over synthetic snapshot sequences, and
the load generator's seeded schedule.
"""

import math

import pytest

from repro.config import GolaConfig
from repro.core.session import GolaSession
from repro.obs import MetricsRegistry
from repro.serve.loadgen import LoadGenerator, LoadSpec
from repro.serve.telemetry import (
    EPSILONS,
    QueryTelemetry,
    ServeTelemetry,
    parse_prometheus,
    relative_half_width,
    render_prometheus,
)
from repro.workloads import generate_conviva, generate_sessions


def _snapshots(sql="SELECT AVG(play_time) FROM sessions", batches=6,
               rows=4000, seed=11):
    session = GolaSession(
        GolaConfig(num_batches=batches, bootstrap_trials=24, seed=seed)
    )
    session.register_table("sessions", generate_sessions(rows, seed=seed))
    session.register_table("conviva", generate_conviva(rows, seed=seed))
    return list(session.sql(sql).run_online())


class TestRelativeHalfWidth:
    def test_scalar(self, snapshots=None):
        snaps = _snapshots()
        widths = [relative_half_width(s) for s in snaps]
        assert all(w == w and w >= 0 for w in widths)
        # CI tightens as batches accumulate.
        assert widths[-1] < widths[0]
        expected = abs(snaps[-1].interval.high - snaps[-1].interval.low) \
            / (2.0 * abs(snaps[-1].estimate))
        assert widths[-1] == pytest.approx(expected)

    def test_group_by_uses_widest_cell(self):
        snaps = _snapshots(
            "SELECT geo, AVG(play_time) FROM conviva GROUP BY geo",
            batches=4,
        )
        width = relative_half_width(snaps[-1])
        assert width == width and width > 0


class TestQueryTelemetry:
    def _fake_clock(self):
        state = {"t": 100.0}

        def clock():
            return state["t"]

        return state, clock

    def test_time_to_epsilon_derivation(self):
        state, clock = self._fake_clock()
        telemetry = QueryTelemetry("q1", clock=clock)
        snaps = _snapshots(batches=8)
        for i, snap in enumerate(snaps):
            state["t"] = 100.0 + (i + 1) * 0.5
            telemetry.record_snapshot(snap)
        assert telemetry.first_answer_s == pytest.approx(0.5)
        summary = telemetry.summary("done", len(snaps))
        assert summary["snapshots"] == len(snaps)
        # time_to keys are serialized as "0.1"/"0.05"/"0.01" and each
        # recorded ε matches the first snapshot whose width reached it.
        for eps in EPSILONS:
            first = next(
                (
                    (i + 1) * 0.5
                    for i, snap in enumerate(snaps)
                    if relative_half_width(snap) <= eps
                ),
                None,
            )
            recorded = summary["time_to"].get(f"{eps:g}")
            if first is None:
                assert recorded is None
            else:
                assert recorded == pytest.approx(first)
        # Looser targets are reached no later than tighter ones.
        times = list(summary["time_to"].values())
        assert times == sorted(times)

    def test_stream_closes_with_summary(self):
        _, clock = self._fake_clock()
        telemetry = QueryTelemetry("q1", clock=clock)
        snap = _snapshots(batches=2)[0]
        telemetry.record_snapshot(snap)
        telemetry.finish("done", 2)
        records = list(telemetry.stream.subscribe())
        assert [r["type"] for r in records] == ["convergence", "summary"]
        assert records[0]["batch"] == 1
        assert records[0]["rel_width"] == pytest.approx(
            relative_half_width(snap)
        )
        assert records[1]["state"] == "done"


class TestServeTelemetryHub:
    class _Run:
        def __init__(self, qid):
            self.id = qid
            self.submitted_at = 0.0
            self.started_at = 0.0
            self.finished_at = None
            self.state = "done"
            self.batches_done = 0

    def test_disabled_hub_is_inert(self):
        hub = ServeTelemetry(MetricsRegistry(enabled=True), enabled=False)
        run = self._Run("q1")
        hub.on_submitted(run)
        with pytest.raises(KeyError):
            hub.get("q1")

    def test_snapshot_flow_feeds_histograms(self):
        state = {"t": 0.0}
        hub = ServeTelemetry(MetricsRegistry(enabled=True),
                             clock=lambda: state["t"])
        run = self._Run("q1")
        hub.on_submitted(run)
        state["t"] = 0.25
        hub.on_admitted(run)
        for i, snap in enumerate(_snapshots(batches=6)):
            state["t"] = 0.25 + (i + 1) * 0.1
            hub.on_snapshot(run, snap, step_s=0.1)
            run.batches_done = i + 1
        run.finished_at = state["t"]
        hub.on_finalized(run)
        metrics = hub.metrics.snapshot()
        assert metrics.histograms["serve.queue_wait_seconds"].count == 1
        assert metrics.histograms["serve.first_answer_seconds"].count == 1
        assert metrics.histograms["serve.step_seconds"].count == 6
        samples = hub.window_samples(now=state["t"])
        names = {name for name, _, _ in samples}
        assert "window_first_answer_seconds" in names
        assert "window_query_seconds" in names
        # The telemetry stream replays fully after finalize.
        records = list(hub.subscription("q1"))
        assert [r["type"] for r in records] == \
            ["convergence"] * 6 + ["summary"]


class TestPrometheusFormat:
    def _sample_snapshot(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("serve.snapshots").inc(5)
        registry.gauge("scheduler.queue_depth").set(2.0)
        hist = registry.histogram("serve.step seconds")  # sanitized name
        for value in (0.001, 0.002, 0.004, 0.2):
            hist.observe(value)
        return registry.snapshot()

    def test_round_trip(self):
        text = render_prometheus(
            self._sample_snapshot(),
            extra_samples=[
                ("window_step_seconds", {"window": "10s", "stat": "p95"},
                 0.004),
            ],
        )
        families = parse_prometheus(text)
        counter = families["repro_serve_snapshots_total"]
        assert counter.type == "counter"
        assert counter.samples[0][2] == 5
        gauge = families["repro_scheduler_queue_depth"]
        assert gauge.type == "gauge"
        assert gauge.samples[0][2] == 2.0
        hist = families["repro_serve_step_seconds"]
        assert hist.type == "histogram"
        buckets = [s for s in hist.samples if s[0].endswith("_bucket")]
        counts = [value for _, _, value in buckets]
        assert counts == sorted(counts)
        assert buckets[-1][1]["le"] == "+Inf"
        assert buckets[-1][2] == 4
        count = [s for s in hist.samples if s[0].endswith("_count")][0]
        assert count[2] == 4
        window = families["repro_window_step_seconds"]
        assert window.samples[0][1] == {"window": "10s", "stat": "p95"}
        # Quantiles re-derived from the cumulative buckets are within
        # one log bucket of the observed values.
        p50 = hist.histogram_quantile(0.5)
        assert 0.002 <= p50 <= 0.0023

    def test_rejects_malformed_input(self):
        for bad in (
            "metric_name not_a_number",
            "1leading_digit 3",
            "# TYPE repro_x mystery\nrepro_x 1",
            'metric{le="0.1",oops} 1',
        ):
            with pytest.raises(ValueError):
                parse_prometheus(bad)

    def test_type_after_samples_rejected(self):
        bad = "repro_x 1\n# TYPE repro_x gauge"
        with pytest.raises(ValueError):
            parse_prometheus(bad)

    def test_plain_comments_and_escapes_ok(self):
        text = ('# just a comment\n'
                'repro_x{msg="a\\"b\\\\c"} 1\n'
                'repro_y NaN\n'
                'repro_z +Inf\n')
        families = parse_prometheus(text)
        assert families["repro_x"].samples[0][1]["msg"] == 'a"b\\c'
        assert math.isnan(families["repro_y"].samples[0][2])
        assert families["repro_z"].samples[0][2] == math.inf


class TestTopDashboard:
    def test_render_from_parsed_metrics(self):
        from repro.frontends.top import render_dashboard

        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("serve.first_answer_seconds")
        for value in (0.01, 0.02, 0.05):
            hist.observe(value)
        text = render_prometheus(
            registry.snapshot(),
            extra_samples=[
                ("window_first_answer_seconds",
                 {"window": "10s", "stat": "rate"}, 1.5),
                ("window_first_answer_seconds",
                 {"window": "10s", "stat": "p95"}, 0.05),
            ],
        )
        frame = render_dashboard(
            health={
                "ok": True, "state": "serving", "uptime_s": 12.0,
                "scheduler": {
                    "running": 1, "queued": 2, "completed": 3,
                    "store": {"entries": 1, "hits": 4, "misses": 1,
                              "bytes": 3 * 2 ** 20},
                },
            },
            queries=[{
                "id": "q1", "state": "running", "batches_done": 2,
                "num_batches": 10, "rel_stdev": 0.05,
            }],
            families=parse_prometheus(text),
        )
        assert "state=serving" in frame
        assert "running=1" in frame and "completed=3" in frame
        assert "batch store: 1 tables, 4/5 hits (80%), 3.0 MiB" in frame
        assert "first answer" in frame and "n=3" in frame
        assert "last 10s" in frame
        assert "q1" in frame and "2/10" in frame

    def test_render_handles_empty_server(self):
        from repro.frontends.top import render_dashboard

        frame = render_dashboard(health={}, queries=[], families={})
        assert "repro top" in frame


class TestLoadSchedule:
    def test_deterministic_for_a_seed(self):
        spec = LoadSpec(seed=42, queries=30, abandon_prob=0.3)
        first = LoadGenerator(spec).schedule()
        second = LoadGenerator(spec).schedule()
        assert [
            (a.at_s, a.name, a.think_s, a.abandons) for a in first
        ] == [
            (a.at_s, a.name, a.think_s, a.abandons) for a in second
        ]
        # A different seed reshuffles the arrival process.
        other = LoadGenerator(
            LoadSpec(seed=43, queries=30, abandon_prob=0.3)
        ).schedule()
        assert [a.at_s for a in other] != [a.at_s for a in first]

    def test_schedule_shape(self):
        spec = LoadSpec(seed=7, queries=50, rate_qps=10.0)
        arrivals = LoadGenerator(spec).schedule()
        assert len(arrivals) == 50
        times = [a.at_s for a in arrivals]
        assert times == sorted(times)
        assert all(a.name in {"sbi", "avg_play", "avg_buffer"}
                   for a in arrivals)
        # Mean inter-arrival is roughly 1/rate for a Poisson process.
        mean_gap = times[-1] / len(times)
        assert 0.02 < mean_gap < 0.5

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LoadSpec(rate_qps=0.0)
        with pytest.raises(ValueError):
            LoadSpec(clients=0)
        with pytest.raises(ValueError):
            LoadSpec(mix=())
