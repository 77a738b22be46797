"""The controller's incremental step API and run-state release.

``run_online`` is now sugar over ``begin()`` / ``step()`` / ``is_done``
/ ``release()`` — the surface the serving scheduler interleaves.  These
tests pin (a) bit-identity between the generator and a manual step loop,
(b) the lifecycle errors, and (c) that finished/stopped runs release
their memory (block states, uncertain caches, run state)
instead of pinning it for the session's lifetime.
"""

import pytest

from repro import CheckpointError, ExecutionError
from repro.qa.identity import snapshot_fingerprint


def make_controller(session, sql):
    query = session.sql(sql)
    return session._make_controller(query.query, session.config)


class TestStepMatchesGenerator:
    def test_manual_step_loop_is_bit_identical(self, session, sbi_sql):
        serial = snapshot_fingerprint(session.sql(sbi_sql).run_online())

        controller = make_controller(session, sbi_sql)
        controller.begin()
        stepped = []
        while not controller.is_done:
            snapshot = controller.step()
            assert snapshot is not None
            stepped.append(snapshot)
        controller.release()
        assert snapshot_fingerprint(stepped) == serial

    def test_step_past_done_returns_none(self, session, sbi_sql):
        controller = make_controller(session, sbi_sql)
        controller.begin()
        while controller.step() is not None:
            pass
        assert controller.is_done
        assert controller.step() is None
        controller.release()

    def test_interleaving_two_controllers_is_bit_identical(
            self, session, sessions_table, sbi_sql):
        other_sql = "SELECT SUM(play_time) FROM sessions"
        serial_a = snapshot_fingerprint(session.sql(sbi_sql).run_online())
        serial_b = snapshot_fingerprint(session.sql(other_sql).run_online())

        a = make_controller(session, sbi_sql)
        b = make_controller(session, other_sql)
        a.begin()
        b.begin()
        got_a, got_b = [], []
        # Alternate steps: private RNG streams keep each run serial-equal.
        while not (a.is_done and b.is_done):
            snap = a.step()
            if snap is not None:
                got_a.append(snap)
            snap = b.step()
            if snap is not None:
                got_b.append(snap)
        a.release()
        b.release()
        assert snapshot_fingerprint(got_a) == serial_a
        assert snapshot_fingerprint(got_b) == serial_b


class TestLifecycle:
    def test_step_before_begin_raises(self, session, sbi_sql):
        controller = make_controller(session, sbi_sql)
        with pytest.raises(ExecutionError, match="begin"):
            controller.step()

    def test_is_done_before_begin(self, session, sbi_sql):
        controller = make_controller(session, sbi_sql)
        assert controller.is_done

    def test_stop_between_steps_ends_run(self, session, sbi_sql):
        controller = make_controller(session, sbi_sql)
        controller.begin()
        first = controller.step()
        assert first.batch_index == 1
        controller.stop()
        assert controller.is_done
        assert controller.step() is None
        controller.release()

    def test_begin_twice_restarts(self, session, sbi_sql):
        controller = make_controller(session, sbi_sql)
        controller.begin()
        controller.step()
        controller.begin()  # restart from scratch
        snapshot = controller.step()
        assert snapshot.batch_index == 1
        controller.release()


class TestMemoryRelease:
    def test_release_clears_run_and_block_state(self, session, sbi_sql):
        controller = make_controller(session, sbi_sql)
        controller.begin()
        while controller.step() is not None:
            pass
        controller.release()
        assert controller._last_batch is None
        assert controller._exec is None
        for runtime in controller.runtimes.values():
            assert runtime.cache.size == 0
            assert runtime.fold.presence.size == 0

    def test_generator_end_releases(self, session, sbi_sql):
        query = session.sql(sbi_sql)
        for _ in query.run_online():
            pass
        controller = query._controller
        assert controller._exec is None
        for runtime in controller.runtimes.values():
            assert runtime.cache.size == 0

    def test_stopped_query_releases(self, session, sbi_sql):
        query = session.sql(sbi_sql)
        for snapshot in query.run_online():
            query.stop()
        controller = query._controller
        assert controller._exec is None
        for runtime in controller.runtimes.values():
            assert runtime.cache.size == 0

    def test_rerun_releases_superseded_controller(self, session, sbi_sql):
        query = session.sql(sbi_sql)
        it = query.run_online()
        next(it)  # leave the first run mid-flight
        first = query._controller
        assert first._exec is not None
        second_snaps = list(query.run_online())
        assert first._exec is None  # superseded run no longer pins memory
        assert len(second_snaps) == session.config.num_batches

    def test_checkpoint_after_release_raises(self, session, sbi_sql):
        query = session.sql(sbi_sql)
        for _ in query.run_online():
            pass
        with pytest.raises(CheckpointError):
            query.checkpoint()

    def test_checkpoint_mid_run_still_works(self, session, sbi_sql):
        controller = make_controller(session, sbi_sql)
        controller.begin()
        controller.step()
        ck = controller.checkpoint()
        assert ck.batch_index == 1
        controller.release()
        # Resume from it through the public generator path.
        resumed = list(
            session.sql(sbi_sql).run_online(resume_from=ck)
        )
        full = list(session.sql(sbi_sql).run_online())
        assert snapshot_fingerprint(resumed) == \
            snapshot_fingerprint(full[1:])
