"""The session owns the worker processes.

A :class:`~repro.core.session.GolaSession` starts one supervised shard
pool per worker count on its first pooled fold and lends it to every
later run, so a query pays for folding, not for forking.  Probed here:
the pool outlives queries and stops at ``close()``, at garbage
collection and at interpreter exit; a worker keeps no finished run's
segment mapped past its next new attach; and two threads may run
pooled queries on one session at once, each stream bit-identical to its
serial one.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import GolaConfig, GolaSession
from repro.config import ParallelConfig
from repro.parallel import ParallelExecutor, segment_exists
from repro.qa.identity import snapshot_fingerprint
from repro.workloads import SBI_QUERY, generate_sessions

POOLED = ParallelConfig(workers=1, min_shard_rows=1)
SESSIONS = generate_sessions(4000, seed=5)
#: A second nested query: its own blocks, its own segment sizes.
BELOW_AVG = ("SELECT COUNT(*) AS c FROM sessions "
             "WHERE play_time < (SELECT AVG(play_time) FROM sessions)")
SRC = str(Path(__file__).resolve().parents[2] / "src")


def _session(parallel=POOLED):
    session = GolaSession(GolaConfig(num_batches=4, bootstrap_trials=16,
                                     seed=3, parallel=parallel))
    session.register_table("sessions", SESSIONS)
    return session


def _serial(sql):
    with _session(ParallelConfig()) as session:
        return snapshot_fingerprint(session.sql(sql).run_online())


def _pids(session):
    """The session's pool workers for its own config."""
    return session.pools.get(session.config.parallel).worker_pids()


def _alive(pid: int) -> bool:
    """A process that exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _record_segments(monkeypatch):
    """Every segment name any run's registry creates."""
    fold = ParallelExecutor.fold_boot_states
    created = set()
    lock = threading.Lock()

    def recording(executor, *args, **kwargs):
        try:
            fold(executor, *args, **kwargs)
        finally:
            if executor.shm_registry is not None:
                with lock:
                    created.update(executor.shm_registry.created)

    monkeypatch.setattr(ParallelExecutor, "fold_boot_states", recording)
    return created


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                                reason="needs /proc")


@needs_proc
class TestSessionOwnsThePool:
    def test_one_pool_serves_every_query_until_close(self):
        serial = _serial(SBI_QUERY)
        session = _session()
        pids = []
        try:
            for _ in range(3):
                stream = session.sql(SBI_QUERY).run_online()
                assert snapshot_fingerprint(stream) == serial
                pids.append(_pids(session))
        finally:
            session.close()
        # Forked once, on the first query's first pooled fold.
        assert len(pids[0]) == 1 and pids == [pids[0]] * 3
        assert not any(_alive(pid) for pid in pids[0])
        assert _pids(session) == []

    def test_closed_session_restarts_its_pool(self):
        serial = _serial(SBI_QUERY)
        with _session() as session:
            list(session.sql(SBI_QUERY).run_online())
            first = _pids(session)
            session.close()
            assert snapshot_fingerprint(
                session.sql(SBI_QUERY).run_online()) == serial
            second = _pids(session)
        assert first and second and first != second
        assert not any(_alive(pid) for pid in first + second)

    def test_collected_session_stops_its_workers(self):
        session = _session()
        query = session.sql(SBI_QUERY)
        list(query.run_online())
        pids = _pids(session)
        assert pids
        del session, query  # the last references: the finalizer runs
        assert not any(_alive(pid) for pid in pids)

    def test_workers_pin_no_finished_run_segment(self, monkeypatch):
        # Each run's segment is unlinked when the run ends, and a worker
        # drops an unlinked segment on its next new attach: after many
        # runs, a worker maps at most the last run's.  (With a cache
        # that kept every segment, it mapped one per run, up to 32.)
        created = _record_segments(monkeypatch)
        with _session(ParallelConfig(workers=2, min_shard_rows=1)) \
                as session:
            for sql in [SBI_QUERY, BELOW_AVG] * 3:
                list(session.sql(sql).run_online())
            pids = _pids(session)
            assert len(pids) == 2
            for pid in pids:
                with open(f"/proc/{pid}/maps") as maps:
                    mapped = {line.split("/dev/shm/")[1].split()[0]
                              for line in maps if "/dev/shm/repro-" in line}
                assert len(mapped) <= 1, (pid, mapped)
        assert len(created) >= 6
        assert not any(segment_exists(name) for name in created)

    def test_unclosed_session_leaves_nothing_at_exit(self, tmp_path):
        # A program that never closes its session and abandons one run
        # mid-stream: at exit no worker survives and no segment stays.
        script = tmp_path / "unclosed.py"
        script.write_text("""
import json, sys
from repro import GolaConfig, GolaSession
from repro.config import ParallelConfig
from repro.workloads import SBI_QUERY, generate_sessions

session = GolaSession(GolaConfig(
    num_batches=4, bootstrap_trials=16, seed=3,
    parallel=ParallelConfig(workers=2, min_shard_rows=1)))
session.register_table("sessions", generate_sessions(4000, seed=5))
list(session.sql(SBI_QUERY).run_online())
query = session.sql(SBI_QUERY)
run = query.run_online()
next(run)
print(json.dumps({
    "pids": session.pools.get(session.config.parallel).worker_pids(),
    "segments": query._controller.parallel.shm_registry.created,
}))
sys.stdout.flush()
""")
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0, proc.stderr
        # Exiting cleanly means no resource-tracker leak warning either.
        assert "leaked" not in proc.stderr, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert len(report["pids"]) == 2 and report["segments"]
        assert not any(_alive(pid) for pid in report["pids"])
        assert not any(segment_exists(n) for n in report["segments"])


class TestTwoThreadsShareASession:
    def test_streams_match_serial(self, monkeypatch):
        queries = [SBI_QUERY, BELOW_AVG]
        serial = {sql: _serial(sql) for sql in queries}
        created = _record_segments(monkeypatch)
        streams = {sql: [] for sql in queries}
        errors = []
        start = threading.Barrier(len(queries))

        def drive(session, sql):
            try:
                start.wait(timeout=30.0)
                for _ in range(3):
                    streams[sql].append(snapshot_fingerprint(
                        session.sql(sql).run_online()))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _session() as session:
                threads = [threading.Thread(target=drive,
                                            args=(session, sql))
                           for sql in queries]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                assert not any(thread.is_alive() for thread in threads)
                assert len(_pids(session)) == 1
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        for sql in queries:
            assert streams[sql] == [serial[sql]] * 3, sql
        assert len(created) >= 2 * 3
        assert not any(segment_exists(name) for name in created)
