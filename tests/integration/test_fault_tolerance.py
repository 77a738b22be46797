"""Acceptance tests for the fault-tolerance/recovery subsystem.

Pins three guarantees end to end:

* determinism — the same malformed input rows yield byte-identical
  trace event sequences;
* invisible recovery — a pooled run whose workers really die answers
  bit for bit what the clean serial run answers;
* checkpoint/resume — killing a run after batch *i* and resuming yields
  exactly the snapshot sequence the uninterrupted run would have
  produced, under worker faults too, and under other worker faults
  after the resume.

Worker faults come from ``tests._faults``: the pooled fold is patched
to kill its worker, or poison its result, on every third shard a
worker runs.
"""

import numpy as np
import pytest

from repro import FaultsConfig, GolaConfig, GolaSession
from repro.config import ParallelConfig
from repro.errors import CheckpointError
from repro.faults import RunCheckpoint
from repro.obs import JsonlSink, MetricsRegistry, Tracer, load_events
from repro.parallel import run_fold_shard
from repro.qa.identity import snapshot_fingerprint
from repro.workloads import Q18_QUERY, generate_conviva, generate_tpch
from repro.workloads.sessions import SBI_QUERY, generate_sessions

from .._faults import faulty

ROWS = 4000
TABLE = generate_sessions(ROWS, seed=13)
CONVIVA = generate_conviva(ROWS, seed=13)

#: One query per owner a checkpoint carries: name -> (table name,
#: table, SQL).  SBI exercises a decision guard and the uncertain
#: cache, Q18 a set guard, GEO the closed-form fold, and the keyed
#: ``OR`` shape (once the fallback range guard's) a guard tree whose
#: certain disjunct decides some rows alone.
OWNER_QUERIES = {
    "SBI": ("sessions", TABLE, SBI_QUERY),
    "Q18": ("tpch", generate_tpch(ROWS, seed=13), Q18_QUERY),
    "GEO": ("conviva", CONVIVA,
            "SELECT geo, COUNT(*), AVG(buffer_time) FROM conviva "
            "GROUP BY geo"),
    "fallback": ("conviva", CONVIVA,
                 "SELECT COUNT(*), AVG(play_time) FROM conviva "
                 "WHERE buffer_time > 0.5 * (SELECT MAX(buffer_time) "
                 "FROM conviva c WHERE c.content_id = conviva.content_id) "
                 "OR geo = 'US'"),
}

#: Every fold goes to the pool.
POOL = ParallelConfig(workers=1, min_shard_rows=1)
#: Quarantines up to 5% of a loaded CSV's rows; the malformed CSV
#: (:func:`malformed_csv`) has 1%.
QUARANTINE = FaultsConfig(row_error_budget=0.05)


def fault_folds(monkeypatch, kind="kill"):
    """From now on a pool worker misbehaves (``kill``, ``corrupt``) on
    every third fold shard it runs."""
    monkeypatch.setattr("repro.parallel.executor.run_fold_shard",
                        faulty(run_fold_shard, **{kind: 3}))


def make_session(faults=None, tracer=None, csv=None, query="SBI",
                 **overrides):
    """``query``'s table registered (the sessions table may instead be
    loaded from ``csv``)."""
    kwargs = dict(
        num_batches=10, bootstrap_trials=60, seed=17,
        faults=faults if faults is not None else FaultsConfig(),
    )
    kwargs.update(overrides)
    session = GolaSession(GolaConfig(**kwargs), tracer=tracer)
    name, table, _ = OWNER_QUERIES[query]
    if csv is None:
        session.register_table(name, table)
    else:
        session.load_csv(name, csv)
    return session


def sessions_csv(tmp_path):
    from repro.storage import write_csv

    path = tmp_path / "sessions.csv"
    if not path.exists():
        write_csv(TABLE, path)
    return path


def malformed_csv(tmp_path, seed=5):
    """The sessions CSV with a seeded 1% of its rows made unparseable
    (every cell ``garbage``)."""
    path = tmp_path / "malformed.csv"
    if not path.exists():
        header, *rows = sessions_csv(tmp_path).read_text().splitlines()
        bad = np.random.default_rng(seed).choice(
            len(rows), size=len(rows) // 100, replace=False)
        garbage = ",".join(["garbage"] * len(header.split(",")))
        for i in bad:
            rows[i] = garbage
        path.write_text("\n".join([header, *rows]) + "\n")
    return path


class TestDeterminism:
    def _traced_events(self, tmp_path, name):
        path = tmp_path / f"{name}.jsonl"
        tracer = Tracer(JsonlSink(str(path)),
                        metrics=MetricsRegistry(enabled=True))
        session = make_session(faults=QUARANTINE, tracer=tracer,
                               csv=malformed_csv(tmp_path))
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
        assert snapshot_fingerprint(snaps_a) == snapshot_fingerprint(snaps_b)


def clean_serial_stream(query="SBI"):
    sql = OWNER_QUERIES[query][2]
    return snapshot_fingerprint(
        make_session(query=query).sql(sql).run_online())


def interrupt_and_resume(stop_after, parallel=None, before_resume=None,
                         via_file=None, query="SBI"):
    """Run ``query`` for ``stop_after`` batches, checkpoint, kill the
    run, call ``before_resume`` (if given) and resume it in a fresh
    session: the whole stream's fingerprint."""
    pool = parallel if parallel is not None else ParallelConfig()
    sql = OWNER_QUERIES[query][2]
    session = make_session(parallel=pool, query=query)
    run = session.sql(sql)
    it = run.run_online()
    prefix = [next(it) for _ in range(stop_after)]
    ck = run.checkpoint()
    it.close()  # the "kill"
    if via_file is not None:
        ck.save(via_file)
        ck = str(via_file)
    if before_resume is not None:
        before_resume()
    fresh = make_session(parallel=pool, query=query)
    rest = list(fresh.sql(sql).run_online(resume_from=ck))
    assert [s.batch_index for s in rest] == list(range(stop_after + 1, 11))
    return snapshot_fingerprint(prefix + rest)


class TestCheckpointResume:
    def test_resume_clean_run_roundtrip(self):
        assert interrupt_and_resume(stop_after=4) == clean_serial_stream()

    @pytest.mark.parametrize("query", list(OWNER_QUERIES))
    def test_resume_restores_every_owner(self, query, monkeypatch):
        """Guards, uncertain cache and both error folds survive a
        checkpoint: serial, and pooled under worker kills."""
        clean = clean_serial_stream(query)
        assert interrupt_and_resume(stop_after=4, query=query) == clean
        fault_folds(monkeypatch)
        assert interrupt_and_resume(stop_after=6, parallel=POOL,
                                    query=query) == clean

    def test_resume_faulty_run_roundtrip(self, monkeypatch):
        """The weight streams resume exactly, whatever the workers
        did."""
        clean = clean_serial_stream()
        fault_folds(monkeypatch)
        assert interrupt_and_resume(stop_after=5, parallel=POOL) == clean

    def test_resume_from_saved_file(self, tmp_path, monkeypatch):
        clean = clean_serial_stream()
        fault_folds(monkeypatch)
        resumed = interrupt_and_resume(stop_after=3, parallel=POOL,
                                       via_file=tmp_path / "run.ck")
        assert resumed == clean

    def test_auto_checkpoint_writes_file(self, tmp_path):
        path = tmp_path / "auto.ck"
        faults = FaultsConfig(checkpoint_every=3,
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
        session = make_session()
        query = session.sql(SBI_QUERY)
        it = query.run_online()
        next(it)
        ck = query.checkpoint()
        it.close()
        other = make_session(num_batches=20)
        with pytest.raises(CheckpointError, match="configuration"):
            list(other.sql(SBI_QUERY).run_online(resume_from=ck))

    def test_checkpoint_refuses_mismatched_query(self):
        session = make_session()
        query = session.sql(SBI_QUERY)
        it = query.run_online()
        next(it)
        ck = query.checkpoint()
        it.close()
        other = make_session()
        wrong = other.sql("SELECT SUM(play_time) FROM sessions")
        with pytest.raises(CheckpointError, match="query"):
            list(wrong.run_online(resume_from=ck))

    def test_colstore_resume_is_bitwise_suffix(self, tmp_path):
        """Warm start from persisted fold state over a colstore dataset.

        A cold run auto-checkpoints every two batches; a fresh session
        over the same dataset resumes from the batch-4 checkpoint and
        emits exactly the cold stream's remaining snapshots, ending on
        the in-memory table's final answer.  At ε = 0 this run rebuilds
        at batch 8, so the resumed run decodes the batches it re-folds
        from the dataset (the checkpoint carries none).
        """
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

    def test_checkpoint_size_does_not_grow_with_rows_read(self):
        """A checkpoint holds progress and block states, never a batch:
        at 20k rows the one taken after batch 5 pickles smaller than one
        mini-batch."""
        import pickle

        from repro.storage import MiniBatchPartitioner
        from repro.storage.table import table_bytes

        table = generate_sessions(20_000, seed=7)
        session = GolaSession(GolaConfig(num_batches=10,
                                         bootstrap_trials=40, seed=7))
        session.register_table("sessions", table)
        query = session.sql(SBI_QUERY)
        it = query.run_online()
        for _ in range(5):
            next(it)
        size = len(pickle.dumps(query.checkpoint(),
                                protocol=pickle.HIGHEST_PROTOCOL))
        it.close()
        batch = MiniBatchPartitioner(10, seed=7).partition(table)[4]
        assert size < table_bytes(batch)

    def test_version_one_checkpoint_is_refused(self, tmp_path):
        """Version 1 also pickled the weight cursor and every batch
        read; such a file no longer resumes."""
        session = make_session()
        query = session.sql(SBI_QUERY)
        it = query.run_online()
        next(it)
        ck = query.checkpoint()
        it.close()
        ck.version = 1
        ck.weights_rng_state = {"sessions": {"next_batch": 1}}
        ck.retained = {"sessions": []}
        path = tmp_path / "v1.ck"
        ck.save(path)
        with pytest.raises(CheckpointError, match="version 1"):
            list(make_session().sql(SBI_QUERY).run_online(
                resume_from=str(path)))

    def test_version_two_checkpoint_is_refused(self, tmp_path):
        """Version 2 also carried the skip-and-reweight accounting
        (folded count, skipped batches, lost rows); such a file no
        longer resumes."""
        session = make_session()
        query = session.sql(SBI_QUERY)
        it = query.run_online()
        next(it)
        ck = query.checkpoint()
        it.close()
        ck.version = 2
        ck.folded_count, ck.skipped_batches, ck.lost_rows = 1, [], 0
        path = tmp_path / "v2.ck"
        ck.save(path)
        with pytest.raises(CheckpointError, match="version 2"):
            list(make_session().sql(SBI_QUERY).run_online(
                resume_from=str(path)))

    def test_version_three_checkpoint_is_refused(self, tmp_path):
        """Version 3 carried each block's state as flat runtime fields
        (exact, trial and moment states, guards by kind, the cache's
        rows); later versions carry the block's guards, uncertain cache
        and error fold as objects, so a version-3 file no longer
        resumes."""
        session = make_session()
        query = session.sql(SBI_QUERY)
        it = query.run_online()
        next(it)
        ck = query.checkpoint()
        it.close()
        ck.version = 3
        path = tmp_path / "v3.ck"
        ck.save(path)
        with pytest.raises(CheckpointError, match="version 3"):
            list(make_session().sql(SBI_QUERY).run_online(
                resume_from=str(path)))

    def test_version_four_checkpoint_is_refused(self, tmp_path):
        """Version 4 carried one guard per predicate, range-intersection
        guards among them; version 5 carries each predicate's guard
        tree, so a version-4 file no longer resumes."""
        session = make_session()
        query = session.sql(SBI_QUERY)
        it = query.run_online()
        next(it)
        ck = query.checkpoint()
        it.close()
        ck.version = 4
        path = tmp_path / "v4.ck"
        ck.save(path)
        with pytest.raises(CheckpointError, match="version 4"):
            list(make_session().sql(SBI_QUERY).run_online(
                resume_from=str(path)))

    def test_version_five_checkpoint_is_refused(self, tmp_path):
        """Version 5 also carried the fault injector's RNG streams;
        such a file no longer resumes."""
        session = make_session()
        query = session.sql(SBI_QUERY)
        it = query.run_online()
        next(it)
        ck = query.checkpoint()
        it.close()
        ck.version = 5
        ck.injector_state = {}
        path = tmp_path / "v5.ck"
        ck.save(path)
        with pytest.raises(CheckpointError, match="version 5"):
            list(make_session().sql(SBI_QUERY).run_online(
                resume_from=str(path)))

    def test_checkpoint_file_skips_uncalled_udafs(self, tmp_path):
        """A checkpoint pickles each block's fold, which keeps only the
        UDAFs its query calls: a session's lambda UDAF, which cannot
        pickle, does not stop a query that never calls it from saving."""
        session = make_session()
        session.register_udaf("noop", lambda: 0.0, lambda s, v, w: s,
                              lambda a, b: a, lambda s, scale: s)
        query = session.sql(SBI_QUERY)
        it = query.run_online()
        next(it)
        query.checkpoint().save(tmp_path / "run.ck")
        it.close()
        rest = list(make_session().sql(SBI_QUERY).run_online(
            resume_from=str(tmp_path / "run.ck")))
        assert [s.batch_index for s in rest] == list(range(2, 11))

    def test_checkpoint_before_any_batch_raises(self):
        session = make_session()
        query = session.sql(SBI_QUERY)
        it = query.run_online()
        with pytest.raises(CheckpointError, match="no batches"):
            query.checkpoint()
        it.close()


class TestQuarantineEndToEnd:
    def test_session_load_csv_quarantines_under_faults(self, tmp_path):
        session = GolaSession(
            GolaConfig(num_batches=5, bootstrap_trials=20, seed=17,
                       faults=QUARANTINE)
        )
        table = session.load_csv("sessions", malformed_csv(tmp_path))
        q = session.last_quarantine
        assert q is not None and q.count == ROWS // 100
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
        # Without a budget nothing is quarantined: the malformed rows
        # stay, and the columns they spoil are inferred as strings.
        bad = session.load_csv("bad", malformed_csv(tmp_path))
        assert bad.num_rows == ROWS
        assert session.last_quarantine is None


class TestRecoveryReport:
    def test_report_shows_recovery_section(self, tmp_path):
        from repro.obs import build_profile, render_profile

        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(str(path)),
                        metrics=MetricsRegistry(enabled=True))
        faults = FaultsConfig(
            row_error_budget=0.05, checkpoint_every=5,
            checkpoint_path=str(tmp_path / "auto.ck"))
        session = make_session(faults=faults, tracer=tracer,
                               csv=malformed_csv(tmp_path))
        list(session.sql(SBI_QUERY).run_online())
        tracer.close()
        text = render_profile(build_profile(load_events(str(path))))
        assert "== recovery ==" in text
        assert "rows quarantined" in text
        assert "checkpoints saved" in text
        metrics = tracer.metrics.snapshot()
        assert metrics.counters["faults.rows_quarantined"] >= 1


class TestResumeParallelFaultComposition:
    """Checkpoint/resume x worker pools x worker faults, bitwise.

    Regression pin for the three subsystems composed at once: a pooled
    run whose workers are killed, killed itself mid-run and resumed
    from its checkpoint, must replay to a snapshot stream
    *bit-identical* to the uninterrupted clean serial run.
    """

    @pytest.mark.parametrize("stop_after", [2, 5])
    def test_resume_parallel_faulty_matches_serial(self, stop_after,
                                                   monkeypatch):
        clean = clean_serial_stream()
        fault_folds(monkeypatch)
        assert interrupt_and_resume(stop_after, parallel=POOL) == clean

    def test_resume_under_other_faults_matches_clean_serial(
            self, monkeypatch):
        """A run checkpointed under worker kills resumes under corrupt
        results, and still answers what the clean serial run does."""
        clean = clean_serial_stream()
        fault_folds(monkeypatch)
        assert interrupt_and_resume(
            4, parallel=POOL,
            before_resume=lambda: fault_folds(monkeypatch, "corrupt"),
        ) == clean
