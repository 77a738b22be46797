"""The concurrent query scheduler: admission, fairness, control, crashes.

Small 5-batch queries over the shared ``session`` fixture keep these
fast; the heavy 8-query bit-identity acceptance run lives in
``tests/integration/test_serve_concurrent.py``.
"""

import dataclasses
import sys
import threading
import time

import pytest

from repro import (
    AdmissionError,
    ParseError,
    ServeConfig,
)
from repro.qa.identity import snapshot_fingerprint
from repro.serve import (
    CANCELLED,
    DONE,
    EXPIRED,
    FAILED,
    PAUSED,
    RUNNING,
    QueryScheduler,
)
from repro.serve.scheduler import MAX_FINISHED_QUERIES


def wait_for(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def scheduler(session):
    sched = QueryScheduler(session)
    yield sched
    sched.close()


class TestCompletion:
    def test_single_query_matches_serial(self, scheduler, session, sbi_sql):
        serial = list(session.sql(sbi_sql).run_online())
        run = scheduler.submit(sbi_sql)
        assert scheduler.wait(run.id, timeout=30.0)
        assert run.state == DONE
        assert snapshot_fingerprint(run.snapshots) == \
            snapshot_fingerprint(serial)
        # The stream carries one record per batch plus the end record.
        history = run.stream.history
        assert len(history) == len(serial) + 1
        assert history[-1]["type"] == "end"
        assert history[-1]["state"] == DONE

    def test_concurrent_queries_share_scan_cache(self, scheduler, sbi_sql):
        a = scheduler.submit(sbi_sql)
        b = scheduler.submit("SELECT AVG(buffer_time) FROM sessions")
        assert scheduler.wait(timeout=30.0)
        assert a.state == DONE and b.state == DONE
        stats = scheduler.session.batch_store.stats
        assert stats["misses"] == 1 and stats["hits"] >= 1
        assert stats["entries"] == 1
        assert scheduler.stats()["store"] == stats

    def test_target_rsd_stops_early(self, scheduler, sbi_sql):
        run = scheduler.submit(sbi_sql, target_rsd=10.0)  # trivially met
        assert scheduler.wait(run.id, timeout=30.0)
        assert run.state == DONE
        assert run.reason == "target"
        assert len(run.snapshots) == 1

    def test_status_and_metrics(self, scheduler, session, sbi_sql):
        run = scheduler.submit(sbi_sql)
        assert scheduler.wait(run.id, timeout=30.0)
        status = scheduler.status(run.id)
        assert status["state"] == DONE
        assert status["batches_done"] == session.config.num_batches
        assert status["estimate"] == pytest.approx(
            run.snapshots[-1].estimate
        )
        counters = scheduler.metrics_snapshot().counters
        assert counters["serve.submitted"] == 1
        assert counters["scheduler.admitted"] == 1
        assert counters["scheduler.done"] == 1
        assert counters["scheduler.steps"] == session.config.num_batches

    def test_bad_sql_rejected_at_submit(self, scheduler):
        with pytest.raises(ParseError):
            scheduler.submit("SELEKT nope")
        with pytest.raises(KeyError):
            scheduler.status("q99")


class TestAdmission:
    def test_queue_depth_rejects(self, session, sbi_sql):
        serve = ServeConfig(max_concurrent=1, queue_depth=1)
        sched = QueryScheduler(session, serve=serve)
        try:
            first = sched.submit(sbi_sql)
            assert wait_for(lambda: first.state == RUNNING)
            sched.pause(first.id)  # hold the only run slot
            sched.submit(sbi_sql)  # fills the queue
            with pytest.raises(AdmissionError):
                sched.submit(sbi_sql)
            counters = sched.metrics_snapshot().counters
            assert counters["scheduler.rejected"] == 1
            sched.resume(first.id)
            assert sched.wait(timeout=30.0)
        finally:
            sched.close()

    def test_submit_after_close_rejected(self, session, sbi_sql):
        sched = QueryScheduler(session)
        sched.close()
        with pytest.raises(AdmissionError):
            sched.submit(sbi_sql)


class TestControl:
    def test_pause_blocks_progress_resume_completes(self, session, sbi_sql):
        sched = QueryScheduler(session)
        try:
            run = sched.submit(sbi_sql)
            assert wait_for(lambda: run.snapshots)
            sched.pause(run.id)
            assert run.state == PAUSED
            time.sleep(0.1)  # pause binds at the next step boundary:
            seen = len(run.snapshots)  # let any in-flight step land
            time.sleep(0.15)
            assert len(run.snapshots) == seen  # no steps while paused
            sched.resume(run.id)
            assert sched.wait(run.id, timeout=30.0)
            assert run.state == DONE
            assert len(run.snapshots) == session.config.num_batches
        finally:
            sched.close()

    def test_cancel_mid_run(self, session, sessions_table, sbi_sql):
        config = dataclasses.replace(session.config, num_batches=50)
        sched = QueryScheduler(session)
        try:
            run = sched.submit(sbi_sql, config=config)
            assert wait_for(lambda: run.snapshots)
            status = sched.cancel(run.id)
            assert status["state"] == CANCELLED
            assert run.batches_done < 50
            end = run.stream.history[-1]
            assert end["type"] == "end" and end["state"] == CANCELLED
            # Cancelled runs release their mini-batch memory.
            assert run.controller._exec is None
        finally:
            sched.close()

    def test_cancel_queued_query(self, session, sbi_sql):
        serve = ServeConfig(max_concurrent=1, queue_depth=4)
        sched = QueryScheduler(session, serve=serve)
        try:
            first = sched.submit(sbi_sql)
            assert wait_for(lambda: first.state == RUNNING)
            sched.pause(first.id)
            queued = sched.submit(sbi_sql)
            status = sched.cancel(queued.id)
            assert status["state"] == CANCELLED
            assert queued.snapshots == []
            sched.resume(first.id)
            assert sched.wait(first.id, timeout=30.0)
        finally:
            sched.close()

    def test_deadline_expires_query(self, session, sbi_sql):
        config = dataclasses.replace(session.config, num_batches=200)
        sched = QueryScheduler(session)
        try:
            run = sched.submit(sbi_sql, config=config, deadline_s=0.05)
            assert sched.wait(run.id, timeout=30.0)
            assert run.state == EXPIRED
            assert run.reason == "deadline"
            assert run.batches_done < 200
            # Partial answer is still served: snapshots up to the cut.
            assert run.stream.history[-1]["state"] == EXPIRED
        finally:
            sched.close()

    def test_priority_weights_step_shares(self, session, sbi_sql):
        serve = ServeConfig(max_concurrent=4, max_steps_per_turn=2)
        config = dataclasses.replace(session.config, num_batches=8)
        sched = QueryScheduler(session, serve=serve)
        try:
            low = sched.submit(sbi_sql, config=config, priority=1)
            high = sched.submit(sbi_sql, config=config, priority=2)
            assert sched.wait(timeout=60.0)
            # 2 steps/cycle vs 1 overcomes the head start of the earlier
            # submission: the high-priority query finishes first.
            assert sched.completed_order == [high.id, low.id]
        finally:
            sched.close()


class TestFinishedQueryEviction:
    def test_registries_keep_live_and_newest_finished(self, scheduler,
                                                      session, sbi_sql):
        long = dataclasses.replace(session.config, num_batches=1000)
        live = scheduler.submit(sbi_sql, config=long)
        assert wait_for(lambda: live.state == RUNNING)
        scheduler.pause(live.id)
        assert live.state == PAUSED
        finished = []
        for _ in range(MAX_FINISHED_QUERIES + 5):
            run = scheduler.submit("SELECT COUNT(*) FROM sessions")
            assert scheduler.wait(run.id, timeout=30.0)
            finished.append(run)
            assert len(scheduler.queries()) <= MAX_FINISHED_QUERIES + 1
        assert scheduler.stats()["completed"] == len(finished)
        oldest, newest = finished[0], finished[-1]
        with pytest.raises(KeyError):
            scheduler.status(oldest.id)
        assert scheduler.status(newest.id)["state"] == DONE
        records = list(scheduler.subscribe(newest.id))
        assert records[-1]["type"] == "end"
        # The paused query outlives every eviction.
        assert scheduler.status(live.id)["state"] == PAUSED
        scheduler.cancel(live.id)

    def test_eviction_under_concurrent_submit_and_list(
            self, scheduler, monkeypatch):
        from repro.serve import scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module, "MAX_FINISHED_QUERIES", 3)
        clients, per_client = 6, 8
        live_cap = scheduler.serve.max_concurrent + scheduler.serve.queue_depth
        errors, stop = [], threading.Event()

        def client():
            try:
                for _ in range(per_client):
                    run = scheduler.submit("SELECT COUNT(*) FROM sessions")
                    assert run.done_event.wait(30.0)
            except Exception as exc:  # reported below
                errors.append(exc)

        def lister():
            try:
                while not stop.is_set():
                    assert len(scheduler.queries()) <= 3 + live_cap
                    scheduler.stats()
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client)
                       for _ in range(clients)]
            reader = threading.Thread(target=lister)
            for thread in threads + [reader]:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            stop.set()
            reader.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [reader])
        assert errors == []
        assert scheduler.stats()["completed"] == clients * per_client
        assert len(scheduler.queries()) == 3


def _crash(values):
    raise RuntimeError("udf crashed")


class TestQuarantine:
    def test_step_fault_quarantines_only_that_query(
            self, session, sbi_sql):
        session.register_udf("crash", _crash)
        serial = snapshot_fingerprint(session.sql(sbi_sql).run_online())
        sched = QueryScheduler(session)
        try:
            bad = sched.submit("SELECT AVG(crash(play_time)) FROM sessions")
            good = sched.submit(sbi_sql)
            assert sched.wait(timeout=30.0)
            assert bad.state == FAILED
            assert bad.error == "RuntimeError: udf crashed"
            assert bad.snapshots == []
            # The healthy query is untouched — still serial-identical.
            assert good.state == DONE
            assert snapshot_fingerprint(good.snapshots) == serial
            counters = sched.metrics_snapshot().counters
            assert counters["scheduler.quarantined"] == 1
            assert counters["scheduler.failed"] == 1
        finally:
            sched.close()

    def test_begin_crash_fails_only_that_query(self, scheduler, session,
                                               sbi_sql):
        # A float batch count passes validation but breaks begin().
        broken = dataclasses.replace(session.config, num_batches=2.5)
        bad = scheduler.submit(sbi_sql, config=broken)
        assert scheduler.wait(bad.id, timeout=30.0)
        assert bad.state == FAILED
        assert bad.error.startswith("TypeError: ")
        good = scheduler.submit(sbi_sql)
        assert scheduler.wait(good.id, timeout=30.0)
        assert good.state == DONE

    def test_close_cancels_in_flight(self, session, sbi_sql):
        config = dataclasses.replace(session.config, num_batches=100)
        sched = QueryScheduler(session)
        run = sched.submit(sbi_sql, config=config)
        assert wait_for(lambda: run.snapshots)
        sched.close()
        assert run.is_terminal
        assert run.stream.closed
        sched.close()  # idempotent
