"""End-to-end chaos: supervised recovery must be invisible in answers.

The chaos harness proves paper queries survive worker
kills/hangs/corruption bit-identical to serial, a hung worker never
stalls a run past its task deadline, a shard lost past every recovery
rung fails its query (and only that query), a crashed query answers 503
on its own stream while the server keeps serving, SIGTERM drains
cleanly while in-flight queries hit injected worker faults, and 429/503
rejections carry an honest ``Retry-After``.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest

from repro import GolaConfig, GolaSession, ServeConfig
from repro.config import ParallelConfig
from repro.errors import ShardLostError
from repro.faults import ChaosRunner, ChaosSpec
from repro.parallel import ParallelExecutor
from repro.qa.identity import snapshot_fingerprint
from repro.serve import GolaServer, QueryScheduler
from repro.serve.scheduler import DONE, FAILED
from repro.storage.table import Table
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
        counters = query["counters"]
        assert counters.get("parallel.task_timeouts", 0) > 0
        # Every timed-out shard ran on the coordinator, not on the pool
        # again.
        assert counters.get("parallel.serial_fallbacks", 0) >= \
            counters["parallel.task_timeouts"]
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
    """Loses its run's first fold's shards past every recovery rung."""

    def __init__(self, config, tracer=None, injector=None, pools=None):
        super().__init__(config, tracer=tracer, injector=injector,
                         pools=pools)
        self.losses = 0

    @classmethod
    def from_config(cls, config, tracer=None, injector=None, pools=None):
        return cls(config.parallel, tracer=tracer, injector=injector,
                   pools=pools)

    def fold_boot_states(self, *args, **kwargs):
        if self.losses == 0:
            self.losses += 1
            raise ShardLostError(0, "injected unrecoverable shard loss")
        return super().fold_boot_states(*args, **kwargs)


#: Both blocks keep bootstrap replicas, so batch 1's first fold goes
#: through the executor.
LOSSY_SQL = "SELECT SUM(x) AS s FROM t WHERE y > (SELECT AVG(y) FROM t)"
#: A flat SUM takes closed-form errors and never calls the executor.
FLAT_SQL = "SELECT SUM(x) AS s FROM t"


def _lossy_session():
    rng = np.random.default_rng(3)
    session = GolaSession(GolaConfig(
        num_batches=4, bootstrap_trials=16, seed=3,
        parallel=ParallelConfig(workers=1, min_shard_rows=1),
    ))
    session.register_table("t", Table.from_columns({
        "x": rng.normal(size=8_000), "y": rng.normal(size=8_000),
    }))
    return session


class TestShardLoss:
    def test_lost_shard_fails_run_online(self, monkeypatch):
        """A shard lost past every recovery rung fails the run.  Before,
        the batch was skipped: batch 1 read 0.0 with interval [0, 0],
        and the final answer missed the exact one, because the exact
        state had folded the batch before the shard was lost."""
        monkeypatch.setattr("repro.core.controller.ParallelExecutor",
                            _LossyExecutor)
        query = _lossy_session().sql(LOSSY_SQL)
        snapshots = []
        with pytest.raises(ShardLostError):
            for snapshot in query.run_online():
                snapshots.append(snapshot)
        assert snapshots == []
        assert query._controller.parallel.losses == 1
        # The run is over: its states are released, never checkpointed.
        with pytest.raises(Exception, match="no batches"):
            query.checkpoint()

    def test_lost_shard_fails_only_its_served_query(self, monkeypatch):
        session = _lossy_session()
        solo = snapshot_fingerprint(session.sql(FLAT_SQL).run_online())
        # Every served query gets its own executor on the session's
        # pool; only the one that folds through it loses a shard.
        built = []

        class Recorded(_LossyExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr("repro.core.controller.ParallelExecutor",
                            Recorded)
        scheduler = QueryScheduler(session)
        try:
            bad = scheduler.submit(LOSSY_SQL)
            good = scheduler.submit(FLAT_SQL)
            assert scheduler.wait(timeout=60.0)
            assert len(built) == 2
            assert sum(executor.losses for executor in built) == 1
            assert bad.state == FAILED
            assert bad.error.startswith("ShardLostError")
            assert good.state == DONE
            assert snapshot_fingerprint(good.snapshots) == solo
        finally:
            scheduler.close()
            session.close()


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


class TestFailedQueryIsolation:
    def test_failed_query_streams_503_not_server_death(self):
        """A query whose UDF crashes mid-step is quarantined FAILED; its
        stream answers 503 while the server keeps serving everyone
        else."""

        def crash(values):
            raise RuntimeError("udf crashed")

        session = GolaSession(GolaConfig(num_batches=3, seed=9))
        session.register_table("sessions",
                               generate_sessions(2_000, seed=42))
        session.register_udf("crash", crash)
        server = GolaServer(QueryScheduler(session),
                            host="127.0.0.1", port=0).start()
        try:
            _, submitted = post_query(
                server.url, "SELECT AVG(crash(play_time)) FROM sessions"
            )
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
        """SIGTERM while in-flight queries are hitting injected worker
        kills must still exit 0 after the drain window."""
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONUNBUFFERED": "1"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--rows", "2000", "--batches", "3",
             "--workers", "workers=1,min_shard_rows=1",
             "--faults", "worker_kill_prob=0.3,seed=7"],
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
