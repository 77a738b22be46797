"""Live telemetry over HTTP: /metrics, convergence streams, drain.

End-to-end acceptance for the serve-layer observability: the
Prometheus exposition must parse strictly and reconcile with the
scheduler's own accounting, per-query telemetry streams must agree
with the query's snapshot stream, telemetry must not perturb results,
and shutdown must be graceful (503 while draining, exit 0 on SIGTERM).
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro import GolaConfig, GolaSession, ServeConfig
from repro.serve import GolaServer, QueryScheduler, parse_prometheus
from repro.serve.loadgen import LoadGenerator, LoadSpec
from repro.workloads import SBI_QUERY, generate_sessions

from ._http import http_error

pytestmark = pytest.mark.smoke

CONFIG = GolaConfig(num_batches=5, bootstrap_trials=20, seed=9)


def make_server(config=CONFIG, serve=None):
    session = GolaSession(config)
    session.register_table("sessions", generate_sessions(3_000, seed=42))
    scheduler = QueryScheduler(session, serve=serve)
    return GolaServer(scheduler, host="127.0.0.1", port=0)


def get_json(url, timeout=30.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def post_json(url, body, timeout=30.0):
    request = urllib.request.Request(
        url, method="POST", data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def stream_ndjson(url, timeout=60.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return [json.loads(line) for line in resp if line.strip()]


@pytest.fixture
def server():
    srv = make_server().start()
    yield srv
    srv.shutdown()


class TestMetricsExposition:
    def test_metrics_is_valid_prometheus(self, server):
        _, submitted = post_json(server.url + "/query",
                                 {"sql": SBI_QUERY})
        server.scheduler.wait(submitted["id"], timeout=60.0)
        with urllib.request.urlopen(
            server.url + "/metrics", timeout=30.0
        ) as resp:
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            text = resp.read().decode("utf-8")
        # The strict parser raises on any malformed line.
        families = parse_prometheus(text)
        snapshots = families["repro_serve_snapshots_total"]
        assert snapshots.type == "counter"
        assert snapshots.samples[0][2] == CONFIG.num_batches

        hist = families["repro_serve_first_answer_seconds"]
        assert hist.type == "histogram"
        buckets = [s for s in hist.samples if s[0].endswith("_bucket")]
        counts = [value for _, _, value in buckets]
        assert counts == sorted(counts)  # cumulative => monotone
        assert buckets[-1][1]["le"] == "+Inf"
        count = [s for s in hist.samples if s[0].endswith("_count")][0][2]
        assert buckets[-1][2] == count == 1
        assert hist.histogram_quantile(0.99) > 0

        window = families["repro_window_first_answer_seconds"]
        labels = {tuple(sorted(s[1].items())) for s in window.samples}
        assert any(("window", "10s") in pair for pair in labels)

    def test_metrics_reconcile_with_scheduler(self, server):
        for _ in range(2):
            _, submitted = post_json(server.url + "/query",
                                     {"sql": SBI_QUERY})
        server.scheduler.wait(timeout=60.0)
        _, listing = get_json(server.url + "/queries")
        per_query = sum(q["snapshots"] for q in listing["queries"])
        with urllib.request.urlopen(
            server.url + "/metrics", timeout=30.0
        ) as resp:
            families = parse_prometheus(resp.read().decode("utf-8"))
        total = families["repro_serve_snapshots_total"].samples[0][2]
        assert total == per_query == 2 * CONFIG.num_batches
        first_answers = families["repro_serve_first_answer_seconds"]
        count = [s for s in first_answers.samples
                 if s[0].endswith("_count")][0][2]
        assert count == len(listing["queries"])


class TestConvergenceStream:
    def test_stream_reconciles_with_snapshots(self, server):
        _, submitted = post_json(server.url + "/query",
                                 {"sql": SBI_QUERY})
        qid = submitted["id"]
        telemetry = stream_ndjson(
            f"{server.url}/queries/{qid}/telemetry"
        )
        snapshots = stream_ndjson(server.url + submitted["snapshots_url"])

        conv = [r for r in telemetry if r["type"] == "convergence"]
        summary = telemetry[-1]
        assert summary["type"] == "summary"
        snap_records = [r for r in snapshots if r["type"] == "snapshot"]
        assert len(conv) == len(snap_records) == CONFIG.num_batches
        assert summary["snapshots"] == CONFIG.num_batches
        assert summary["state"] == "done"

        # Record-by-record agreement with the snapshot stream.
        for tele, snap in zip(conv, snap_records):
            assert tele["batch"] == snap["batch"]
            assert tele["estimate"] == pytest.approx(snap["estimate"])
            assert tele["ci_width"] == pytest.approx(
                snap["hi"] - snap["lo"]
            )
        final = snap_records[-1]
        expected_rel = (final["hi"] - final["lo"]) / (
            2.0 * abs(final["estimate"])
        )
        assert summary["final_rel_width"] == pytest.approx(expected_rel)
        # Derived time-to-±ε values are consistent with the stream.
        for eps_text, seconds in summary["time_to"].items():
            eps = float(eps_text)
            reaching = [r for r in conv if r["rel_width"] is not None
                        and r["rel_width"] <= eps]
            assert reaching
            assert seconds == pytest.approx(reaching[0]["t_s"])

        # The alias route serves the same replayable stream.
        aliased = stream_ndjson(f"{server.url}/query/{qid}/telemetry")
        assert aliased == telemetry

    def test_unknown_query_is_404(self, server):
        code, _, _ = http_error(
            stream_ndjson, server.url + "/queries/nope/telemetry"
        )
        assert code == 404

    def test_telemetry_disabled_is_404(self):
        srv = make_server(serve=ServeConfig(telemetry=False)).start()
        try:
            _, submitted = post_json(srv.url + "/query",
                                     {"sql": SBI_QUERY})
            code, _, _ = http_error(
                stream_ndjson,
                f"{srv.url}/queries/{submitted['id']}/telemetry",
            )
            assert code == 404
        finally:
            srv.shutdown()


class TestTelemetryNeutrality:
    def test_results_bit_identical_with_and_without(self):
        """Telemetry observes; it must never change what is computed."""
        finals = {}
        for enabled in (True, False):
            session = GolaSession(CONFIG)
            session.register_table(
                "sessions", generate_sessions(3_000, seed=42)
            )
            scheduler = QueryScheduler(
                session, serve=ServeConfig(telemetry=enabled)
            )
            try:
                run = scheduler.submit(SBI_QUERY)
                assert scheduler.wait(run.id, timeout=60.0)
                finals[enabled] = [
                    (snap.table.column(c).tobytes(), c)
                    for snap in run.snapshots
                    for c in snap.table.schema.names
                ]
            finally:
                scheduler.close()
        assert finals[True] == finals[False]


class TestGracefulShutdown:
    def test_healthz_rich_body(self, server):
        code, health = get_json(server.url + "/healthz")
        assert code == 200
        assert health["ok"] is True
        assert health["state"] == "serving"
        assert health["uptime_s"] >= 0
        stats = health["scheduler"]
        assert stats["draining"] is False
        assert {"queries", "running", "queued", "completed"} <= set(stats)

    def test_draining_rejects_new_queries_with_503(self, server):
        _, submitted = post_json(server.url + "/query",
                                 {"sql": SBI_QUERY})
        server.scheduler.begin_drain()
        code, health = get_json(server.url + "/healthz")
        assert health["state"] == "draining"
        code, _, _ = http_error(
            post_json, server.url + "/query", {"sql": SBI_QUERY}
        )
        assert code == 503
        # In-flight work still completes and streams to the end.
        records = stream_ndjson(server.url + submitted["snapshots_url"])
        assert records[-1]["type"] == "end"
        assert records[-1]["state"] == "done"
        assert server.scheduler.drain(timeout_s=30.0)

    def test_sigterm_exits_zero(self, tmp_path):
        """``repro serve`` drains and exits 0 on SIGTERM."""
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--rows", "2000", "--batches", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True,
        )
        try:
            deadline = time.monotonic() + 60.0
            for line in proc.stdout:
                if "serving on" in line:
                    break
                assert time.monotonic() < deadline, "server never came up"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
            proc.stdout.close()


class TestLoadGeneratorHTTP:
    def test_tiny_seeded_run(self, server):
        spec = LoadSpec(
            rate_qps=50.0, clients=2, queries=4, seed=3,
            num_batches=3, target_rel_width=0.5,
            mix=(
                ("sbi", SBI_QUERY, 1.0),
                ("avg_play", "SELECT AVG(play_time) FROM sessions", 1.0),
            ),
        )
        report = LoadGenerator(spec).run(server.url)
        assert report["submitted"] == 4
        assert report["completed"] == 4
        assert report["errors"] == 0
        assert report["throughput_qps"] > 0
        assert report["first_answer_s"]["n"] == 4
        assert report["reached_target"] >= 1
        assert report["spec"]["seed"] == 3
        names = set(report["per_query"])
        assert names <= {"sbi", "avg_play"}
