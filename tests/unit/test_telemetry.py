"""Serve metrics units: convergence width, scheduler histograms, text format.

Covers the pieces behind ``GET /metrics`` in isolation: the relative
CI half-width that decides convergence, the four latency histograms the
scheduler records, and the Prometheus text encoder read back through
the strict test parser.
"""

import math

import pytest

from repro.config import GolaConfig
from repro.core.session import GolaSession
from repro.obs import MetricsRegistry
from repro.serve import QueryScheduler
from repro.serve.scheduler import CONVERGED_REL_WIDTH
from repro.serve.telemetry import relative_half_width, render_prometheus
from repro.workloads import generate_conviva, generate_sessions

from .._prometheus import parse_prometheus


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


class TestSchedulerHistograms:
    def test_snapshot_flow_feeds_histograms(self):
        session = GolaSession(
            GolaConfig(num_batches=6, bootstrap_trials=24, seed=11)
        )
        session.register_table("sessions", generate_sessions(4000, seed=11))
        with QueryScheduler(session) as scheduler:
            # ±3 % after the last batch, against under ±0.01 % from the
            # first.
            wide = scheduler.submit("SELECT AVG(play_time) FROM sessions")
            narrow = scheduler.submit(
                "SELECT AVG(play_time + 1000000) FROM sessions"
            )
            assert scheduler.wait(timeout=60.0)
        histograms = scheduler.metrics_snapshot().histograms
        assert histograms["serve.queue_wait_seconds"].count == 2
        assert histograms["serve.first_answer_seconds"].count == 2
        assert histograms["serve.step_seconds"].count == 12
        # Convergence is recorded once per query, at its first snapshot
        # within ±1 %.
        assert histograms["serve.convergence_seconds"].count == 1
        assert relative_half_width(wide.snapshots[-1]) > CONVERGED_REL_WIDTH
        assert wide.converged_s is None
        assert relative_half_width(narrow.snapshots[0]) <= \
            CONVERGED_REL_WIDTH
        assert narrow.first_answer_s is not None
        assert narrow.converged_s == narrow.first_answer_s


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
        text = render_prometheus(self._sample_snapshot())
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
