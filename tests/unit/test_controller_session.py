"""Unit tests for the query controller and public session API."""

import numpy as np
import pytest

from repro import (
    GolaConfig,
    GolaSession,
    QueryStopped,
    Table,
    UnsupportedQueryError,
)
from repro.obs import MetricsRegistry, Tracer
from repro.workloads import (
    C3_QUERY,
    Q11_QUERY,
    Q17_QUERY,
    Q20_QUERY,
    SBI_QUERY,
    generate_conviva,
    generate_sessions,
    generate_tpch,
)


class TestSessionBasics:
    def test_register_and_sql(self, session, sbi_sql):
        query = session.sql(sbi_sql)
        assert "subquery #0" in query.plan_description

    def test_execute_batch_accepts_text(self, session):
        out = session.execute_batch("SELECT COUNT(*) AS n FROM sessions")
        assert out.to_pylist()[0]["n"] == 5000

    def test_load_csv(self, tmp_path, sessions_table):
        from repro.storage import write_csv

        path = tmp_path / "s.csv"
        write_csv(sessions_table, path)
        s = GolaSession(GolaConfig(num_batches=2, bootstrap_trials=8))
        t = s.load_csv("sessions", path)
        assert t.num_rows == 5000
        assert "sessions" in s.catalog

    def test_udf_available_in_sql(self, session):
        session.register_udf("clip10", lambda v: np.minimum(v, 10.0))
        out = session.execute_batch(
            "SELECT MAX(clip10(buffer_time)) AS m FROM sessions"
        )
        assert out.to_pylist()[0]["m"] == 10.0

    def test_udaf_available_in_sql(self, session):
        session.register_udaf(
            "second_moment",
            init=lambda: [0.0, 0.0],
            update=lambda s, v, w: [s[0] + float(np.sum(v * v * w)),
                                    s[1] + float(np.sum(w))],
            merge=lambda a, b: [a[0] + b[0], a[1] + b[1]],
            finalize=lambda s, scale: s[0] / max(s[1], 1.0),
        )
        out = session.execute_batch(
            "SELECT second_moment(buffer_time) AS m2 FROM sessions"
        )
        buffer = session.catalog.get("sessions").column("buffer_time")
        assert out.to_pylist()[0]["m2"] == pytest.approx(
            float((buffer ** 2).mean())
        )


class TestOnlineRuns:
    def test_snapshot_count_equals_batches(self, session, sbi_sql):
        query = session.sql(sbi_sql)
        snapshots = list(query.run_online())
        assert len(snapshots) == 5
        assert snapshots[-1].is_final

    def test_final_snapshot_equals_exact(self, session, sbi_sql):
        query = session.sql(sbi_sql)
        last = query.run_to_completion()
        exact = session.execute_batch(query)
        assert last.estimate == pytest.approx(
            float(exact.column(exact.schema.names[0])[0]), rel=1e-9
        )

    def test_estimates_within_interval_mostly(self, session, sbi_sql):
        query = session.sql(sbi_sql)
        exact = session.execute_batch(query)
        truth = float(exact.column(exact.schema.names[0])[0])
        hits = 0
        snaps = list(session.sql(query.sql).run_online())
        for snap in snaps:
            if snap.interval.contains(truth):
                hits += 1
        assert hits >= len(snaps) - 1  # allow one miss at 95% nominal

    def test_stop_ends_iteration(self, session, sbi_sql):
        query = session.sql(sbi_sql)
        count = 0
        for snapshot in query.run_online():
            count += 1
            if count == 2:
                query.stop()
        assert count == 2

    def test_run_until_target(self, session, sbi_sql):
        query = session.sql(sbi_sql)
        snap = query.run_until(relative_stdev=0.5)
        assert snap.relative_stdev <= 0.5

    def test_run_until_unreachable_returns_final(self, session, sbi_sql):
        query = session.sql(sbi_sql)
        snap = query.run_until(relative_stdev=0.0)
        assert snap.is_final

    def test_stop_before_run_raises(self, session, sbi_sql):
        with pytest.raises(QueryStopped):
            session.sql(sbi_sql).stop()

    def test_reproducible_runs(self, session, sbi_sql):
        a = [s.estimate for s in session.sql(sbi_sql).run_online()]
        b = [s.estimate for s in session.sql(sbi_sql).run_online()]
        assert a == b

    def test_config_override_per_run(self, session, sbi_sql):
        query = session.sql(sbi_sql)
        snaps = list(query.run_online(
            GolaConfig(num_batches=3, bootstrap_trials=8, seed=1)
        ))
        assert len(snaps) == 3

    def test_monotonic_query_runs_with_empty_uncertain(self, session):
        query = session.sql("SELECT AVG(play_time) FROM sessions")
        for snap in query.run_online():
            assert snap.total_uncertain == 0

    def test_grouped_query_snapshots(self, session):
        query = session.sql(
            "SELECT FLOOR(buffer_time / 20) AS b, COUNT(*) AS n "
            "FROM sessions GROUP BY FLOOR(buffer_time / 20) ORDER BY b"
        )
        last = query.run_to_completion()
        exact = session.execute_batch(query)
        assert last.table.num_rows == exact.num_rows

    def test_snapshot_errors_present_for_aggregates(self, session, sbi_sql):
        snap = next(iter(session.sql(sbi_sql).run_online()))
        assert snap.errors  # at least the aggregate column has error bars
        name = snap.table.schema.names[0]
        assert snap.errors[name].lows.shape == (1,)


class TestMidRunCancellation:
    """stop()/run_until mid-run: clean termination, consistent last
    snapshot, and a session/query that stays fully reusable."""

    def test_stop_mid_run_last_snapshot_consistent(self, session, sbi_sql):
        query = session.sql(sbi_sql)
        snaps = []
        for snapshot in query.run_online():
            snaps.append(snapshot)
            if snapshot.batch_index == 3:
                query.stop()
        assert [s.batch_index for s in snaps] == [1, 2, 3]
        last = snaps[-1]
        assert not last.is_final
        assert last.fraction == pytest.approx(3 / 5)
        # The stopped snapshot is a full, usable answer with error bars.
        assert np.isfinite(last.estimate)
        assert last.interval.low <= last.estimate <= last.interval.high

    def test_stop_mid_run_matches_uninterrupted_prefix(
        self, session, sbi_sql
    ):
        """Stopping must not perturb what was already computed."""
        full = [s.estimate for s in session.sql(sbi_sql).run_online()]
        query = session.sql(sbi_sql)
        stopped = []
        for snapshot in query.run_online():
            stopped.append(snapshot.estimate)
            if len(stopped) == 2:
                query.stop()
        assert stopped == full[:2]

    def test_session_reusable_after_stop(self, session, sbi_sql):
        query = session.sql(sbi_sql)
        for snapshot in query.run_online():
            query.stop()
        # Same query object, fresh run: starts over from batch 1 and
        # reproduces the full sequence.
        rerun = list(query.run_online())
        assert [s.batch_index for s in rerun] == [1, 2, 3, 4, 5]
        # And the session still serves other queries.
        out = session.execute_batch("SELECT COUNT(*) AS n FROM sessions")
        assert out.to_pylist()[0]["n"] == 5000

    def test_run_until_stops_iterator_cleanly(self, session, sbi_sql):
        query = session.sql(sbi_sql)
        snap = query.run_until(relative_stdev=0.5)
        assert snap.relative_stdev <= 0.5
        assert not snap.is_final
        # The controller's generator was exhausted, not abandoned:
        # another run_until on the same query works from scratch.
        again = query.run_until(relative_stdev=0.5)
        assert again.batch_index == snap.batch_index
        assert again.estimate == snap.estimate

    def test_generator_close_midway_leaves_session_usable(
        self, session, sbi_sql
    ):
        query = session.sql(sbi_sql)
        it = query.run_online()
        first = next(it)
        it.close()  # abandon the run (GeneratorExit inside the query span)
        assert first.batch_index == 1
        rerun = [s.estimate for s in query.run_online()]
        assert len(rerun) == 5


class TestControllerValidation:
    def test_requires_streamed_relation(self, sessions_table, sbi_sql):
        session = GolaSession(GolaConfig(num_batches=2, bootstrap_trials=8))
        session.register_table("sessions", sessions_table, streamed=False)
        query = session.sql(sbi_sql)
        with pytest.raises(UnsupportedQueryError, match="streamed"):
            list(query.run_online())

    def test_plain_select_unsupported_online(self, session):
        query = session.sql("SELECT play_time FROM sessions")
        with pytest.raises(UnsupportedQueryError):
            list(query.run_online())

    def test_static_dimension_subquery(self, sessions_table):
        """A subquery over a non-streamed table is evaluated once, exactly."""
        session = GolaSession(
            GolaConfig(num_batches=3, bootstrap_trials=8, seed=2)
        )
        session.register_table("sessions", sessions_table, streamed=True)
        thresholds = Table.from_columns({"cut": np.array([25.0, 35.0])})
        session.register_table("thresholds", thresholds, streamed=False)
        query = session.sql(
            "SELECT AVG(play_time) FROM sessions WHERE buffer_time > "
            "(SELECT AVG(cut) FROM thresholds)"
        )
        last = query.run_to_completion()
        exact = session.execute_batch(query)
        assert last.estimate == pytest.approx(
            float(exact.column(exact.schema.names[0])[0]), rel=1e-9
        )
        # Static values are certain: no uncertain tuples anywhere.
        assert all(
            s == 0 for s in last.uncertain_sizes.values()
        )


class TestOneWeightDrawPerBatch:
    """A serial run generates each batch's trial columns once.

    Batches of 2,500 rows stay above ``min_shard_rows``, where the
    inner block's streamed fold used to draw the columns a first time
    and the outer block's uncertain cache a second.
    """

    TRIALS, BATCHES, ROWS = 16, 3, 7500

    def drawn(self, table_name, table, sql):
        tracer = Tracer(metrics=MetricsRegistry(enabled=True))
        session = GolaSession(
            GolaConfig(num_batches=self.BATCHES,
                       bootstrap_trials=self.TRIALS, seed=5),
            tracer=tracer,
        )
        session.register_table(table_name, table)
        snapshots = list(session.sql(sql).run_online())
        assert not any(s.rebuilds for s in snapshots)  # no replayed draws
        counters = tracer.metrics.snapshot().counters
        assert counters["bootstrap.weights_drawn"] == self.ROWS * self.TRIALS
        return counters["bootstrap.columns_drawn"]

    def test_scalar_subquery(self, sbi_sql):
        table = generate_sessions(self.ROWS, seed=7)
        assert self.drawn("sessions", table, sbi_sql) == \
            self.TRIALS * self.BATCHES

    def test_correlated_subquery(self):
        table = generate_tpch(self.ROWS, seed=7)
        assert self.drawn("tpch", table, Q17_QUERY) == \
            self.TRIALS * self.BATCHES

    def test_streamed_fold_without_uncertain_cache(self):
        """No uncertain predicate: chunks stream, still counted once.

        STDEV keeps bootstrap replicas; a flat AVG would draw nothing.
        """
        table = generate_sessions(self.ROWS, seed=7)
        sql = "SELECT STDEV(play_time) FROM sessions"
        assert self.drawn("sessions", table, sql) == \
            self.TRIALS * self.BATCHES

    def test_uncertain_having_draws_once(self):
        """Q11: both blocks stream and its uncertain predicate sits in
        HAVING; each block used to draw the rectangle itself."""
        table = generate_tpch(self.ROWS, seed=7)
        assert self.drawn("tpch", table, Q11_QUERY) == \
            self.TRIALS * self.BATCHES


MM1_QUERY = (
    "SELECT content_id, MIN(buffer_time), MAX(play_time), COUNT(*) "
    "FROM conviva "
    "WHERE buffer_time > (SELECT AVG(buffer_time) FROM conviva) "
    "GROUP BY content_id"
)


class TestOneWeightDrawPerSession:
    """Queries run back to back in one session draw each streamed
    table's columns once: the first query over a table draws them into
    the session's weight store, every later query reads them."""

    TRIALS, BATCHES, ROWS = 16, 3, 7500
    QUERIES = (("SBI", SBI_QUERY), ("C3", C3_QUERY), ("MM1", MM1_QUERY),
               ("Q17", Q17_QUERY), ("Q20", Q20_QUERY), ("Q11", Q11_QUERY))

    def test_each_table_is_drawn_once(self):
        tracer = Tracer(metrics=MetricsRegistry(enabled=True))
        session = GolaSession(
            GolaConfig(num_batches=self.BATCHES,
                       bootstrap_trials=self.TRIALS, seed=5),
            tracer=tracer,
        )
        session.register_table("sessions",
                               generate_sessions(self.ROWS, seed=7))
        session.register_table("conviva",
                               generate_conviva(self.ROWS, seed=7))
        session.register_table("tpch", generate_tpch(self.ROWS, seed=7))

        def drawn():
            return tracer.metrics.snapshot().counters.get(
                "bootstrap.columns_drawn", 0)

        def run_all():
            per_query = {}
            for name, sql in self.QUERIES:
                before = drawn()
                list(session.sql(sql).run_online())
                per_query[name] = drawn() - before
            return per_query

        table = self.TRIALS * self.BATCHES
        assert run_all() == {"SBI": table, "C3": table, "MM1": 0,
                             "Q17": table, "Q20": 0, "Q11": 0}
        assert drawn() == 3 * table
        # A second run of any of them draws nothing.
        assert run_all() == {name: 0 for name, _ in self.QUERIES}
