"""Acceptance tests for the fault-injection/recovery subsystem.

Pins the three ISSUE guarantees end to end:

* determinism — the same faults seed yields byte-identical trace event
  sequences, and a *disabled* injector yields outputs bit-identical to a
  run without the subsystem;
* statistical soundness of skip-and-reweight — dropping mini-batches
  mid-run still converges to ground truth, with the final interval
  covering it and every post-skip snapshot flagged ``degraded``;
* checkpoint/resume — killing a run after batch *i* and resuming yields
  exactly the snapshot sequence the uninterrupted run would have
  produced, faults included.
"""

import numpy as np
import pytest

from repro import FaultsConfig, GolaConfig, GolaSession
from repro.faults import RunCheckpoint
from repro.errors import CheckpointError
from repro.obs import JsonlSink, MetricsRegistry, Tracer, load_events
from repro.workloads.sessions import SBI_QUERY, generate_sessions

ROWS = 4000
TABLE = generate_sessions(ROWS, seed=13)

#: A profile that skips some batches: no retry budget, 35% load failure.
SKIPPY = FaultsConfig(enabled=True, seed=21, batch_failure_prob=0.35,
                      max_retries=0)


def make_session(faults=None, tracer=None, **overrides):
    kwargs = dict(
        num_batches=10, bootstrap_trials=60, seed=17,
        faults=faults if faults is not None else FaultsConfig(),
    )
    kwargs.update(overrides)
    session = GolaSession(GolaConfig(**kwargs), tracer=tracer)
    session.register_table("sessions", TABLE)
    return session


class TestDeterminism:
    def _traced_events(self, tmp_path, name):
        path = tmp_path / f"{name}.jsonl"
        tracer = Tracer(JsonlSink(str(path)),
                        metrics=MetricsRegistry(enabled=True))
        session = make_session(faults=SKIPPY, tracer=tracer)
        snaps = list(session.sql(SBI_QUERY).run_online())
        tracer.close()
        records = load_events(str(path))
        # Timestamps differ between runs; names + attributes must not.
        events = [(r["name"], r.get("attrs") or {})
                  for r in records if r["type"] == "event"]
        return snaps, events

    def test_same_faults_seed_identical_event_sequence(self, tmp_path):
        snaps_a, events_a = self._traced_events(tmp_path, "a")
        snaps_b, events_b = self._traced_events(tmp_path, "b")
        assert any(name.startswith("fault.") for name, _ in events_a)
        assert events_a == events_b
        assert [s.estimate for s in snaps_a] == \
            [s.estimate for s in snaps_b]
        assert [s.skipped_batches for s in snaps_a] == \
            [s.skipped_batches for s in snaps_b]

    def test_disabled_injection_bit_identical_to_baseline(self):
        baseline = list(make_session().sql(SBI_QUERY).run_online())
        disabled = list(
            make_session(faults=FaultsConfig()).sql(SBI_QUERY).run_online()
        )
        for a, b in zip(baseline, disabled):
            assert a.estimate == b.estimate  # exact, not approx
            assert a.interval.low == b.interval.low
            assert a.interval.high == b.interval.high
            assert not b.degraded

    def test_enabled_but_zero_probability_also_identical(self):
        baseline = list(make_session().sql(SBI_QUERY).run_online())
        armed = list(
            make_session(faults=FaultsConfig(enabled=True))
            .sql(SBI_QUERY).run_online()
        )
        for a, b in zip(baseline, armed):
            assert a.estimate == b.estimate


class TestSkipAndReweight:
    @pytest.fixture(scope="class")
    def degraded_run(self):
        session = make_session(faults=SKIPPY)
        snaps = list(session.sql(SBI_QUERY).run_online())
        exact = session.execute_batch(SBI_QUERY)
        truth = float(exact.column(exact.schema.names[0])[0])
        return snaps, truth

    def test_some_but_not_all_batches_skipped(self, degraded_run):
        snaps, _ = degraded_run
        skipped = snaps[-1].skipped_batches
        assert skipped, "profile should have skipped at least one batch"
        assert len(skipped) < len(snaps)

    def test_degraded_flag_sticky_after_first_skip(self, degraded_run):
        snaps, _ = degraded_run
        first_skip = min(snaps[-1].skipped_batches)
        for snap in snaps:
            assert snap.degraded == (snap.batch_index >= first_skip)

    def test_lost_rows_accounted(self, degraded_run):
        snaps, _ = degraded_run
        last = snaps[-1]
        assert last.lost_rows > 0
        # 10 uniform batches over 4000 rows: each holds ~400 rows.
        assert last.lost_rows == pytest.approx(
            400 * len(last.skipped_batches), rel=0.2
        )

    def test_reweighted_estimate_converges_to_truth(self, degraded_run):
        snaps, truth = degraded_run
        final = snaps[-1]
        # AVG over the folded subset of uniform random batches is an
        # unbiased estimate of the full-data answer.
        assert final.estimate == pytest.approx(truth, rel=0.05)
        assert final.interval.contains(truth)

    def test_skipped_snapshot_reports_no_fold_work(self, degraded_run):
        snaps, _ = degraded_run
        skipped = set(snaps[-1].skipped_batches)
        for snap in snaps:
            if snap.batch_index in skipped:
                assert snap.total_rows_processed == 0
                assert snap.degraded


class TestCheckpointResume:
    def _run_all(self, faults):
        session = make_session(faults=faults)
        return [
            (s.estimate, s.degraded, tuple(s.skipped_batches or ()))
            for s in session.sql(SBI_QUERY).run_online()
        ]

    def _interrupt_and_resume(self, faults, stop_after, via_file=None):
        session = make_session(faults=faults)
        query = session.sql(SBI_QUERY)
        it = query.run_online()
        prefix = []
        for _ in range(stop_after):
            s = next(it)
            prefix.append((s.estimate, s.degraded,
                           tuple(s.skipped_batches or ())))
        ck = query.checkpoint()
        it.close()  # the "kill"
        if via_file is not None:
            ck.save(via_file)
            ck = str(via_file)
        fresh = make_session(faults=faults)
        rest = [
            (s.estimate, s.degraded, tuple(s.skipped_batches or ()))
            for s in fresh.sql(SBI_QUERY).run_online(resume_from=ck)
        ]
        return prefix + rest

    def test_resume_clean_run_roundtrip(self):
        full = self._run_all(FaultsConfig())
        resumed = self._interrupt_and_resume(FaultsConfig(), stop_after=4)
        assert resumed == full

    def test_resume_faulty_run_roundtrip(self):
        """RNG streams (weights + injector) must resume exactly."""
        full = self._run_all(SKIPPY)
        resumed = self._interrupt_and_resume(SKIPPY, stop_after=5)
        assert resumed == full

    def test_resume_from_saved_file(self, tmp_path):
        full = self._run_all(SKIPPY)
        resumed = self._interrupt_and_resume(
            SKIPPY, stop_after=3, via_file=tmp_path / "run.ck"
        )
        assert resumed == full

    def test_auto_checkpoint_writes_file(self, tmp_path):
        path = tmp_path / "auto.ck"
        faults = FaultsConfig(enabled=True, checkpoint_every=3,
                              checkpoint_path=str(path))
        session = make_session(faults=faults)
        it = session.sql(SBI_QUERY).run_online()
        for _ in range(4):
            next(it)
        it.close()
        ck = RunCheckpoint.load(path)
        assert ck.batch_index == 3  # last multiple of checkpoint_every
        fresh = make_session(faults=faults)
        rest = list(fresh.sql(SBI_QUERY).run_online(resume_from=ck))
        assert [s.batch_index for s in rest] == [4, 5, 6, 7, 8, 9, 10]

    def test_checkpoint_refuses_mismatched_config(self):
        session = make_session(faults=SKIPPY)
        query = session.sql(SBI_QUERY)
        it = query.run_online()
        next(it)
        ck = query.checkpoint()
        it.close()
        other = make_session(faults=SKIPPY, num_batches=20)
        with pytest.raises(CheckpointError, match="configuration"):
            list(other.sql(SBI_QUERY).run_online(resume_from=ck))

    def test_checkpoint_refuses_mismatched_query(self):
        session = make_session(faults=SKIPPY)
        query = session.sql(SBI_QUERY)
        it = query.run_online()
        next(it)
        ck = query.checkpoint()
        it.close()
        other = make_session(faults=SKIPPY)
        wrong = other.sql("SELECT SUM(play_time) FROM sessions")
        with pytest.raises(CheckpointError, match="query"):
            list(wrong.run_online(resume_from=ck))

    def test_colstore_resume_is_bitwise_suffix(self, tmp_path):
        """Warm start from persisted fold state over a colstore dataset.

        A cold run auto-checkpoints every two batches; a fresh session
        over the same dataset resumes from the batch-4 checkpoint and
        emits exactly the cold stream's remaining snapshots, ending on
        the in-memory table's final answer.  At ε = 0 this run rebuilds
        at batch 8, so the resumed run re-folds the retained batches the
        checkpoint carried.
        """
        from repro.faults.chaos import snapshot_fingerprint
        from repro.storage.colstore import convert_table

        table = generate_sessions(3000, seed=7)
        dataset = tmp_path / "ds"
        convert_table(table, dataset, num_batches=10, seed=31)
        path = tmp_path / "auto.ck"
        config = GolaConfig(num_batches=10, bootstrap_trials=24, seed=31,
                            epsilon_multiplier=0.0)
        checkpointing = config.with_options(faults=FaultsConfig(
            checkpoint_every=2, checkpoint_path=str(path)))

        def colstore_session():
            session = GolaSession(checkpointing)
            session.register_colstore("sessions", dataset)
            return session

        cold = []
        for snapshot in colstore_session().sql(SBI_QUERY).run_online():
            cold.append(snapshot)
            if snapshot.batch_index == 4:
                saved = RunCheckpoint.load(path)
        assert len(cold) == 10 and saved.batch_index == 4

        warm = list(
            colstore_session().sql(SBI_QUERY).run_online(resume_from=saved)
        )
        assert [s.batch_index for s in warm] == list(range(5, 11))
        assert any(s.rebuilds for s in warm)
        assert snapshot_fingerprint(warm) == snapshot_fingerprint(cold[4:])

        memory = GolaSession(config)
        memory.register_table("sessions", table)
        final = list(memory.sql(SBI_QUERY).run_online())[-1]
        assert snapshot_fingerprint(warm[-1:]) == \
            snapshot_fingerprint([final])

    def test_checkpoint_before_any_batch_raises(self):
        session = make_session()
        query = session.sql(SBI_QUERY)
        it = query.run_online()
        with pytest.raises(CheckpointError, match="no batches"):
            query.checkpoint()
        it.close()


class TestQuarantineEndToEnd:
    def test_session_load_csv_quarantines_under_faults(self, tmp_path):
        from repro.storage import write_csv

        path = tmp_path / "sessions.csv"
        write_csv(TABLE, path)
        faults = FaultsConfig(enabled=True, seed=5,
                              row_corruption_prob=0.01,
                              row_error_budget=0.05)
        session = GolaSession(
            GolaConfig(num_batches=5, bootstrap_trials=20, seed=17,
                       faults=faults)
        )
        table = session.load_csv("sessions", path)
        q = session.last_quarantine
        assert q is not None and q.count > 0
        assert table.num_rows == ROWS - q.count
        # The degraded table still answers queries online.
        snaps = list(session.sql(SBI_QUERY).run_online())
        assert len(snaps) == 5
        assert np.isfinite(snaps[-1].estimate)

    def test_load_csv_without_faults_unchanged(self, tmp_path):
        from repro.storage import write_csv

        path = tmp_path / "sessions.csv"
        write_csv(TABLE, path)
        session = GolaSession(GolaConfig(num_batches=5,
                                         bootstrap_trials=20))
        table = session.load_csv("sessions", path)
        assert table.num_rows == ROWS
        assert session.last_quarantine is None


class TestRecoveryReport:
    def test_report_shows_recovery_section(self, tmp_path):
        from repro.obs import build_profile, render_profile

        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(str(path)),
                        metrics=MetricsRegistry(enabled=True))
        session = make_session(faults=SKIPPY, tracer=tracer)
        list(session.sql(SBI_QUERY).run_online())
        tracer.close()
        text = render_profile(build_profile(load_events(str(path))))
        assert "== recovery ==" in text
        assert "batches skipped (reweighted)" in text
        metrics = tracer.metrics.snapshot()
        assert metrics.counters["faults.batches_skipped"] >= 1
        assert metrics.counters["faults.rows_lost"] > 0


class TestResumeParallelFaultComposition:
    """Checkpoint/resume x worker pools x injected faults, bitwise.

    Regression pin for the three subsystems composed at once: a run
    with ``workers > 0`` and an injected ``controller.batch_load``
    fault profile, killed mid-run and resumed from its checkpoint,
    must replay to a snapshot stream *bit-identical* to the
    uninterrupted serial run under the same faults.
    """

    @staticmethod
    def _fingerprint(snapshots):
        out = []
        for s in snapshots:
            out.append((
                s.batch_index,
                tuple(s.table.column(c).tobytes()
                      for c in s.table.schema.names),
                tuple(sorted(
                    (name, err.lows.tobytes(), err.highs.tobytes())
                    for name, err in s.errors.items()
                )),
                tuple(sorted(s.uncertain_sizes.items())),
                tuple(s.rebuilds),
                s.degraded,
                tuple(s.skipped_batches or ()),
            ))
        return out

    @pytest.mark.parametrize("stop_after", [2, 5])
    def test_resume_parallel_faulty_matches_serial(self, stop_after):
        from repro.config import ParallelConfig

        full = self._fingerprint(
            make_session(faults=SKIPPY).sql(SBI_QUERY).run_online()
        )

        pool = ParallelConfig(workers=2)
        session = make_session(faults=SKIPPY, parallel=pool)
        query = session.sql(SBI_QUERY)
        it = query.run_online()
        prefix = []
        for _ in range(stop_after):
            prefix.append(next(it))
        ck = query.checkpoint()
        it.close()  # the "kill"

        fresh = make_session(faults=SKIPPY, parallel=pool)
        rest = list(fresh.sql(SBI_QUERY).run_online(resume_from=ck))

        assert [s.batch_index for s in rest] == \
            list(range(stop_after + 1, 11))
        assert self._fingerprint(prefix + rest) == full
