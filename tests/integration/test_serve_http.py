"""The HTTP/JSON serving surface end to end (stdlib client only).

Marked ``smoke``: a fast whole-subsystem pass (``pytest -m smoke``
runs these; see docs/testing.md).
"""

import json
import time
import urllib.request

import pytest

from repro import GolaConfig, GolaSession, ServeConfig
from repro.serve import GolaServer, QueryScheduler
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


@pytest.fixture
def server():
    srv = make_server().start()
    yield srv
    srv.shutdown()


class TestHTTPRoundTrip:
    def test_submit_stream_status_metrics(self, server):
        base = server.url
        code, health = get_json(base + "/healthz")
        assert code == 200 and health["ok"] is True
        assert health["state"] == "serving"
        assert health["scheduler"]["draining"] is False

        code, submitted = post_json(base + "/query", {"sql": SBI_QUERY})
        assert code == 201
        qid = submitted["id"]
        assert submitted["snapshots_url"] == f"/query/{qid}/snapshots"

        with urllib.request.urlopen(
            base + submitted["snapshots_url"], timeout=60.0
        ) as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            records = [json.loads(line) for line in resp if line.strip()]
        assert [r["type"] for r in records] == \
            ["snapshot"] * CONFIG.num_batches + ["end"]
        first, end = records[0], records[-1]
        assert first["query_id"] == qid and first["batch"] == 1
        assert first["lo"] <= first["estimate"] <= first["hi"]
        assert end["state"] == "done"
        assert end["batches_done"] == CONFIG.num_batches
        # Estimates refine: the last CI is no wider than the first.
        last = records[-2]
        assert (last["hi"] - last["lo"]) <= (first["hi"] - first["lo"])

        code, status = get_json(base + submitted["status_url"])
        assert code == 200 and status["state"] == "done"
        code, listing = get_json(base + "/queries")
        assert [q["id"] for q in listing["queries"]] == [qid]
        code, metrics = get_json(base + "/metrics.json")
        assert metrics["counters"]["serve.snapshots"] == CONFIG.num_batches

    def test_per_query_config_and_target(self, server):
        code, submitted = post_json(server.url + "/query", {
            "sql": "SELECT AVG(play_time) FROM sessions",
            "config": {"num_batches": 3},
            "target_rsd": 10.0,
        })
        assert code == 201
        with urllib.request.urlopen(
            server.url + submitted["snapshots_url"], timeout=60.0
        ) as resp:
            records = [json.loads(line) for line in resp if line.strip()]
        # Trivially-loose target stops the run after the first batch.
        assert records[0]["of"] == 3
        assert records[-1]["state"] == "done"
        assert len(records) == 2

    def test_delete_cancels_mid_stream(self, server):
        code, submitted = post_json(server.url + "/query", {
            "sql": SBI_QUERY, "config": {"num_batches": 300},
        })
        qid = submitted["id"]
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            _, status = get_json(server.url + submitted["status_url"])
            if status["batches_done"] > 0:
                break
            time.sleep(0.01)
        request = urllib.request.Request(
            f"{server.url}/query/{qid}", method="DELETE"
        )
        with urllib.request.urlopen(request, timeout=30.0) as resp:
            cancelled = json.loads(resp.read())
        assert cancelled["state"] == "cancelled"
        assert cancelled["batches_done"] < 300
        # The stream replays what was produced, then ends as cancelled.
        with urllib.request.urlopen(
            f"{server.url}/query/{qid}/snapshots", timeout=30.0
        ) as resp:
            records = [json.loads(line) for line in resp if line.strip()]
        assert records[-1]["type"] == "end"
        assert records[-1]["state"] == "cancelled"


class TestHTTPErrors:
    def test_unknown_id_404(self, server):
        code, _, _ = http_error(get_json, server.url + "/query/q99/status")
        assert code == 404

    def test_bad_sql_400(self, server):
        code, _, body = http_error(
            post_json, server.url + "/query", {"sql": "SELEKT nope"}
        )
        assert code == 400
        assert body["error"] == "ParseError"

    def test_missing_sql_and_bad_config_400(self, server):
        code, _, _ = http_error(post_json, server.url + "/query", {})
        assert code == 400
        code, _, _ = http_error(
            post_json, server.url + "/query",
            {"sql": SBI_QUERY, "config": {"bogus": 1}},
        )
        assert code == 400

    def test_unknown_route_404(self, server):
        code, _, _ = http_error(get_json, server.url + "/nope")
        assert code == 404

    def test_malformed_json_body_400(self, server):
        request = urllib.request.Request(
            server.url + "/query", method="POST",
            data=b'{"sql": "SELECT',
            headers={"Content-Type": "application/json"},
        )
        code, _, body = http_error(
            urllib.request.urlopen, request, timeout=30.0
        )
        assert code == 400
        assert body["error"] == "ValueError"
        assert "invalid JSON body" in body["message"]

    def test_non_object_json_body_400(self, server):
        request = urllib.request.Request(
            server.url + "/query", method="POST",
            data=b'["not", "an", "object"]',
            headers={"Content-Type": "application/json"},
        )
        code, _, _ = http_error(
            urllib.request.urlopen, request, timeout=30.0
        )
        assert code == 400

    def test_unknown_id_snapshots_404(self, server):
        code, _, body = http_error(
            get_json, server.url + "/query/q99/snapshots"
        )
        assert code == 404
        assert body["error"] == "NotFound"

    def test_delete_already_finished_409(self, server):
        code, submitted = post_json(server.url + "/query", {
            "sql": "SELECT AVG(play_time) FROM sessions",
            "config": {"num_batches": 2},
        })
        qid = submitted["id"]
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            _, status = get_json(server.url + submitted["status_url"])
            if status["state"] == "done":
                break
            time.sleep(0.01)
        assert status["state"] == "done"
        request = urllib.request.Request(
            f"{server.url}/query/{qid}", method="DELETE"
        )
        code, _, body = http_error(
            urllib.request.urlopen, request, timeout=30.0
        )
        assert code == 409
        assert body["error"] == "AlreadyFinished"
        assert body["state"] == "done"

    def test_delete_twice_second_is_409(self, server):
        code, submitted = post_json(server.url + "/query", {
            "sql": SBI_QUERY, "config": {"num_batches": 300},
        })
        qid = submitted["id"]
        request = urllib.request.Request(
            f"{server.url}/query/{qid}", method="DELETE"
        )
        with urllib.request.urlopen(request, timeout=30.0) as resp:
            assert json.loads(resp.read())["state"] == "cancelled"
        code, _, body = http_error(
            urllib.request.urlopen, request, timeout=30.0
        )
        assert code == 409
        assert body["error"] == "AlreadyFinished"
        assert body["state"] == "cancelled"

    def test_delete_unknown_id_404(self, server):
        request = urllib.request.Request(
            f"{server.url}/query/q99", method="DELETE"
        )
        code, _, _ = http_error(
            urllib.request.urlopen, request, timeout=30.0
        )
        assert code == 404

    def test_queue_full_429(self):
        server = make_server(
            serve=ServeConfig(max_concurrent=1, queue_depth=1)
        ).start()
        try:
            base = server.url
            slow = {"sql": SBI_QUERY, "config": {"num_batches": 500}}
            _, first = post_json(base + "/query", slow)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                _, status = get_json(base + first["status_url"])
                if status["state"] == "running":
                    break
                time.sleep(0.01)
            post_json(base + "/query", slow)  # fills the queue
            code, _, body = http_error(post_json, base + "/query", slow)
            assert code == 429
            assert body["error"] == "AdmissionError"
        finally:
            server.shutdown()
