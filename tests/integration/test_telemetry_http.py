"""Live metrics over HTTP: /metrics, /metrics.json, drain.

End-to-end acceptance for the serve-layer observability: the
Prometheus exposition must parse strictly and reconcile with the
scheduler's own accounting, ``/metrics.json`` must carry the histograms
the benchmark ledger reads, and shutdown must be graceful (503 while
draining, exit 0 on SIGTERM).
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro import GolaConfig, GolaSession
from repro.serve import GolaServer, QueryScheduler
from repro.workloads import SBI_QUERY, generate_sessions

from .._prometheus import parse_prometheus
from ._http import http_error

pytestmark = pytest.mark.smoke

CONFIG = GolaConfig(num_batches=5, bootstrap_trials=20, seed=9)


def make_server():
    session = GolaSession(CONFIG)
    session.register_table("sessions", generate_sessions(3_000, seed=42))
    return GolaServer(QueryScheduler(session), host="127.0.0.1", port=0)


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

    def test_metrics_reconcile_with_scheduler(self, server):
        # The second query's error bar is under ±0.01 % from batch one.
        for sql in (SBI_QUERY,
                    "SELECT AVG(play_time + 1000000) FROM sessions"):
            _, submitted = post_json(server.url + "/query", {"sql": sql})
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
        # Windowed views are the scraper's job, over these buckets.
        assert not [name for name in families
                    if name.startswith("repro_window_")]

        # What the benchmark ledger's serve client reads.
        _, served = get_json(server.url + "/metrics.json")
        histograms = served["histograms"]
        for name in ("serve.queue_wait_seconds", "serve.step_seconds",
                     "serve.first_answer_seconds",
                     "serve.convergence_seconds"):
            assert histograms[name]["count"] >= 1, name
            assert histograms[name]["p50"] is not None, name
        assert histograms["serve.first_answer_seconds"]["count"] == \
            len(listing["queries"])
        assert histograms["serve.convergence_seconds"]["count"] == 1
        assert histograms["serve.step_seconds"]["count"] == total

        # One stream per query: no telemetry route.
        code, _, _ = http_error(
            get_json, f"{server.url}/queries/{submitted['id']}/telemetry"
        )
        assert code == 404


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
