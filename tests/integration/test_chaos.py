"""End-to-end chaos: supervised recovery must be invisible in answers.

The acceptance surface for ISSUE 7: the chaos harness proves paper
queries survive worker kills/hangs/corruption bit-identical to serial,
a hung worker never stalls a run past its task deadline, a lost shard
degrades one query (skip-and-reweight, then a 503 on its stream) rather
than the server, SIGTERM drains cleanly while in-flight queries hit
injected faults, and 429/503 rejections carry an honest ``Retry-After``
that the load generator honors.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro import GolaConfig, GolaSession, ServeConfig
from repro.config import FaultsConfig, ParallelConfig
from repro.errors import ShardLostError
from repro.faults import ChaosRunner, ChaosSpec
from repro.parallel import ParallelExecutor
from repro.serve import GolaServer, QueryScheduler
from repro.serve.loadgen import LoadGenerator, LoadSpec
from repro.serve.scheduler import FAILED
from repro.workloads import SBI_QUERY, generate_sessions

from ._http import http_error

pytestmark = pytest.mark.smoke

#: A CI-sized campaign; the external killer stays off by default so the
#: in-band seeded faults make these runs reproducible.
SMOKE = dataclasses.replace(ChaosSpec.smoke(), rows=6_000, batches=3,
                            external_killer=False)


class TestChaosHarness:
    def test_smoke_campaign_is_bit_identical(self):
        report = ChaosRunner(SMOKE).run()
        assert report["identical"]
        (query,) = report["queries"]
        assert query["snapshots"] == SMOKE.batches
        assert query["serial_fingerprint"] == query["chaos_fingerprint"]
        # The campaign must actually have exercised recovery, not
        # coasted under the sharding threshold.
        counters = query["counters"]
        assert counters.get("parallel.shard_tasks", 0) > 0
        assert (counters.get("parallel.restarts", 0)
                + counters.get("parallel.task_failures", 0)
                + counters.get("parallel.corrupt_results", 0)
                + counters.get("parallel.task_timeouts", 0)) > 0

    @pytest.mark.slow
    def test_external_killer_campaign(self):
        spec = dataclasses.replace(SMOKE, external_killer=True,
                                   killer_interval_s=0.1)
        report = ChaosRunner(spec).run()
        assert report["identical"]

    def test_hung_workers_never_stall_past_deadline(self):
        """Acceptance pin, end to end: a 30s hang against a 0.5s task
        deadline must not stretch the query anywhere near the hang."""
        spec = dataclasses.replace(
            SMOKE, kill_prob=0.0, corrupt_prob=0.0,
            hang_prob=0.9, hang_s=30.0, task_deadline_s=0.5,
        )
        report = ChaosRunner(spec).run()
        assert report["identical"]
        (query,) = report["queries"]
        assert query["counters"].get("parallel.task_timeouts", 0) > 0
        assert query["chaos_s"] < 20.0, (
            f"chaos run took {query['chaos_s']}s behind a 30s hang"
        )

    def test_cli_smoke_reports_identical(self, tmp_path):
        out = tmp_path / "chaos.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "chaos", "--smoke",
             "--rows", "4000", "--batches", "3", "--no-killer",
             "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["identical"]
        assert json.loads(proc.stdout) == report


class _LossyExecutor(ParallelExecutor):
    """Loses the first batch's shards past every recovery rung."""

    def __init__(self, config, tracer=None):
        super().__init__(config, tracer=tracer)
        self.losses = 0

    def fold_boot_states(self, *args, **kwargs):
        if self.losses == 0:
            self.losses += 1
            raise ShardLostError(0, "injected unrecoverable shard loss")
        return super().fold_boot_states(*args, **kwargs)


class TestShardLossDegradation:
    def test_controller_skips_and_reweights_lost_shard(self):
        """An unrecoverable shard loss costs one batch (skip +
        reweight, flagged degraded), never the query."""
        config = GolaConfig(num_batches=4, bootstrap_trials=16, seed=3)
        session = GolaSession(config)
        session.register_table("sessions",
                               generate_sessions(4_000, seed=42))
        online = session.sql(SBI_QUERY)
        lossy = _LossyExecutor(
            ParallelConfig(workers=2, backend="thread", min_shard_rows=1)
        )
        controller = session._make_controller(online.query, config,
                                              parallel=lossy)
        snapshots = list(controller.run())
        assert lossy.losses == 1
        assert len(snapshots) == config.num_batches
        assert snapshots[0].degraded
        assert snapshots[-1].skipped_batches == [snapshots[0].batch_index]
        # Later batches fold normally and the stream stays flagged.
        assert all(s.degraded for s in snapshots)
        clean = list(session.sql(SBI_QUERY).run_online())
        assert not clean[-1].degraded
        assert (snapshots[-1].rows_processed != clean[-1].rows_processed)


def post_query(url, sql=SBI_QUERY, timeout=30.0):
    request = urllib.request.Request(
        url + "/query", method="POST",
        data=json.dumps({"sql": sql}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


class TestRetryAfter:
    def test_admission_rejection_carries_retry_after(self):
        config = GolaConfig(num_batches=10, bootstrap_trials=200, seed=9)
        serve = ServeConfig(max_concurrent=1, queue_depth=0)
        session = GolaSession(config)
        session.register_table("sessions",
                               generate_sessions(6_000, seed=42))
        server = GolaServer(QueryScheduler(session, serve=serve),
                            host="127.0.0.1", port=0).start()
        try:
            status, _ = post_query(server.url)
            assert status == 201
            code, headers, body = http_error(
                lambda: post_query(server.url)
            )
            assert code == 429
            hint = int(headers["Retry-After"])
            assert hint >= 1
            assert body["retry_after_s"] == hint
        finally:
            server.shutdown()

    def test_draining_rejection_carries_retry_after(self):
        serve = ServeConfig(drain_timeout_s=7.0)
        session = GolaSession(GolaConfig(num_batches=3, seed=9))
        session.register_table("sessions",
                               generate_sessions(2_000, seed=42))
        server = GolaServer(QueryScheduler(session, serve=serve),
                            host="127.0.0.1", port=0).start()
        try:
            server.scheduler.begin_drain()
            code, headers, body = http_error(
                lambda: post_query(server.url)
            )
            assert code == 503
            assert body["error"] == "DrainingError"
            assert int(headers["Retry-After"]) == 7
        finally:
            server.shutdown()

    def test_loadgen_honors_retry_after_and_recovers(self):
        """Rejected submissions wait out the server's hint and resubmit
        (seeded full jitter) instead of giving up."""
        config = GolaConfig(num_batches=4, bootstrap_trials=20, seed=9)
        serve = ServeConfig(max_concurrent=1, queue_depth=0)
        session = GolaSession(config)
        session.register_table("sessions",
                               generate_sessions(2_000, seed=42))
        server = GolaServer(QueryScheduler(session, serve=serve),
                            host="127.0.0.1", port=0).start()
        try:
            spec = LoadSpec(rate_qps=50.0, clients=4, queries=8,
                            seed=5, max_resubmits=4,
                            retry_after_cap_s=1.0, timeout_s=60.0,
                            mix=(("sbi", SBI_QUERY, 1.0),))
            report = LoadGenerator(spec).run(server.url)
        finally:
            server.shutdown()
        # A one-slot, zero-queue server cannot admit 4 concurrent
        # clients first try; recovery must come from honored hints.
        assert report["resubmits"] > 0
        assert report["recovered_by_resubmit"] > 0
        assert report["submitted"] == spec.queries
        assert report["completed"] > report["rejected"]


class TestFailedQueryIsolation:
    def test_failed_query_streams_503_not_server_death(self):
        """A query whose every step hits an injected fault is
        quarantined FAILED; its stream answers 503 while the server
        keeps serving everyone else."""
        config = GolaConfig(
            num_batches=3, seed=9,
            faults=FaultsConfig(enabled=True, seed=4,
                                step_failure_prob=1.0, max_retries=0,
                                retry_backoff_s=0.001),
        )
        session = GolaSession(config)
        session.register_table("sessions",
                               generate_sessions(2_000, seed=42))
        server = GolaServer(QueryScheduler(session),
                            host="127.0.0.1", port=0).start()
        try:
            _, submitted = post_query(server.url)
            qid = submitted["id"]
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if server.scheduler.get(qid).state == FAILED:
                    break
                time.sleep(0.05)
            assert server.scheduler.get(qid).state == FAILED
            code, headers, body = http_error(
                lambda: urllib.request.urlopen(
                    f"{server.url}/query/{qid}/snapshots", timeout=30.0
                ).read()
            )
            assert code == 503
            assert body["error"] == "QueryFailed"
            assert body["state"] == FAILED
            # Permanent failure: no Retry-After bait on this stream.
            assert headers["Retry-After"] is None
            # The server itself is healthy.
            with urllib.request.urlopen(server.url + "/queries",
                                        timeout=30.0) as resp:
                assert resp.status == 200
        finally:
            server.shutdown()


class TestSigtermDrainUnderFaults:
    def test_sigterm_drains_inflight_faulty_queries(self):
        """SIGTERM while in-flight queries are hitting injected step
        faults must still exit 0 after the drain window."""
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONUNBUFFERED": "1"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--rows", "2000", "--batches", "3",
             "--faults", "step_failure_prob=0.3,seed=7"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        url = None
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serving on "):
                    url = line.split()[2]
                    break
            assert url, "server never came up"
            for _ in range(3):
                status, _ = post_query(url, timeout=30.0)
                assert status == 201
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
            proc.stdout.close()
