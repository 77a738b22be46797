"""Parallel execution determinism: bit-identical for any worker count.

The contract of ``repro.parallel`` (ISSUE 3): estimates, confidence
intervals, uncertain-set sizes and trace accounting are **bit-identical**
across serial execution and every worker count, because trial
shards draw from per-(batch, trial) RNG streams and merge into disjoint
state columns.  Also pins composition with checkpoints and worker
faults: checkpoints taken at one worker count resume at another, and
runs whose workers are killed or return corrupt results answer what the
clean serial run answers.
"""

import numpy as np
import pytest

from repro import GolaConfig, GolaSession
from repro.config import ParallelConfig
from repro.obs import AggregatingSink, MetricsRegistry, Tracer
from repro.parallel import run_fold_shard
from repro.qa.identity import snapshot_fingerprint
from repro.storage.table import Table
from repro.workloads import (
    SBI_QUERY,
    TPCH_QUERIES,
    generate_sessions,
    generate_tpch,
)

from .._faults import faulty

ROWS = 24_000
BATCHES = 8
TRIALS = 24

SESSIONS = generate_sessions(ROWS, seed=13)
TPCH = generate_tpch(ROWS, seed=13)

#: Two subqueries that consume no online slot: two lineage blocks on
#: one dependency level, folded and published one after the other.
TWO_SUBQUERIES = """
SELECT AVG(play_time)
FROM Sessions
WHERE buffer_time > (SELECT AVG(buffer_time) FROM Sessions)
  AND play_time < (SELECT AVG(play_time) FROM Sessions)
"""

#: Every mode must reproduce the serial stream bit for bit.
MODES = [
    ParallelConfig(),
    ParallelConfig(workers=1),
    ParallelConfig(workers=2),
    ParallelConfig(workers=4),
]


def run_query(sql, table_name, table, parallel, tracer=None,
              batches=BATCHES, trials=TRIALS):
    session = GolaSession(
        GolaConfig(num_batches=batches, bootstrap_trials=trials, seed=17,
                   parallel=parallel),
        tracer=tracer,
    )
    session.register_table(table_name, table)
    return session.sql(sql).run_online()


class TestBitIdenticalAcrossWorkerCounts:
    @pytest.mark.parametrize("mode", MODES[1:], ids=lambda m: (
        f"w{m.workers}"
    ))
    def test_sbi_stream_matches_serial(self, mode):
        serial = snapshot_fingerprint(
            run_query(SBI_QUERY, "sessions", SESSIONS, MODES[0])
        )
        parallel = snapshot_fingerprint(
            run_query(SBI_QUERY, "sessions", SESSIONS, mode)
        )
        assert parallel == serial

    def test_independent_subqueries_match_serial(self):
        session = GolaSession(GolaConfig(num_batches=BATCHES))
        session.register_table("sessions", SESSIONS)
        query = session.sql(TWO_SUBQUERIES)
        blocks = session._make_controller(
            query.query, session.config
        ).meta_plan.online_blocks
        assert [sorted(b.consumes) for b in blocks] == [[], [], [0, 1]]

        serial = list(
            run_query(TWO_SUBQUERIES, "sessions", SESSIONS, MODES[0])
        )
        assert any(s.uncertain_sizes["main"] for s in serial)  # |U| > 0
        serial = snapshot_fingerprint(serial)
        for mode in MODES[1:3]:
            assert snapshot_fingerprint(run_query(
                TWO_SUBQUERIES, "sessions", SESSIONS, mode
            )) == serial, mode

    def test_nested_tpch_query_matches_serial(self):
        serial = snapshot_fingerprint(
            run_query(TPCH_QUERIES["Q17"], "tpch", TPCH, MODES[0])
        )
        parallel = snapshot_fingerprint(run_query(
            TPCH_QUERIES["Q17"], "tpch", TPCH,
            ParallelConfig(workers=4),
        ))
        assert parallel == serial

    def test_trace_accounting_matches_serial(self):
        """Span counts and attribute totals agree across modes for every
        span except the ``parallel.*`` machinery's own."""
        counts = {}
        for label, mode in (("serial", MODES[0]), ("workers", MODES[2])):
            agg = AggregatingSink()
            tracer = Tracer(agg, metrics=MetricsRegistry(enabled=True))
            list(run_query(SBI_QUERY, "sessions", SESSIONS, mode,
                           tracer=tracer))
            tracer.close()
            counts[label] = {
                name: (stats.count, stats.attr_totals.get("rows_in"))
                for name, stats in agg.spans.items()
                if not name.startswith("parallel.")
            }
        assert counts["workers"] == counts["serial"]
        assert "batch" in counts["serial"]
        assert "phase:fold" in counts["serial"]

    def test_parallel_metrics_recorded(self):
        tracer = Tracer(metrics=MetricsRegistry(enabled=True))
        list(run_query(SBI_QUERY, "sessions", SESSIONS, MODES[2],
                       tracer=tracer))
        counters = tracer.metrics.snapshot().counters
        assert counters.get("parallel.shard_tasks", 0) > 0
        assert counters.get("parallel.sharded_cells", 0) > 0


class TestCheckpointAcrossWorkerCounts:
    def _stream(self, parallel, resume_from=None, stop_after=None):
        session = GolaSession(
            GolaConfig(num_batches=BATCHES, bootstrap_trials=TRIALS,
                       seed=17, parallel=parallel),
        )
        session.register_table("sessions", SESSIONS)
        query = session.sql(SBI_QUERY)
        it = query.run_online(resume_from=resume_from) \
            if resume_from is not None else query.run_online()
        if stop_after is None:
            return list(it), None
        prefix = []
        for _ in range(stop_after):
            prefix.append(next(it))
        ck = query.checkpoint()
        it.close()
        return prefix, ck

    def test_resume_at_different_worker_count(self):
        """A run checkpointed serial resumes under a pool (and vice
        versa) with the uninterrupted serial stream, bit for bit."""
        full, _ = self._stream(MODES[0])
        prefix, ck = self._stream(MODES[0], stop_after=3)
        rest, _ = self._stream(
            ParallelConfig(workers=4), resume_from=ck
        )
        assert snapshot_fingerprint(prefix + rest) == \
            snapshot_fingerprint(full)

        prefix, ck = self._stream(MODES[2], stop_after=5)
        rest, _ = self._stream(MODES[0], resume_from=ck)
        assert snapshot_fingerprint(prefix + rest) == \
            snapshot_fingerprint(full)


class TestFaultComposition:
    @pytest.fixture(autouse=True)
    def faulty_workers(self, monkeypatch):
        """A worker's fifth shard kills it; every second shard it runs
        comes back poisoned."""
        monkeypatch.setattr("repro.parallel.executor.run_fold_shard",
                            faulty(run_fold_shard, kill=5, corrupt=2))

    def test_faulty_run_identical_under_pool(self):
        serial = snapshot_fingerprint(run_query(
            SBI_QUERY, "sessions", SESSIONS, MODES[0]
        ))
        tracer = Tracer(metrics=MetricsRegistry(enabled=True))
        pooled = snapshot_fingerprint(run_query(
            SBI_QUERY, "sessions", SESSIONS,
            ParallelConfig(workers=2), tracer=tracer,
        ))
        assert pooled == serial
        counters = tracer.metrics.snapshot().counters
        # The faults really fired.
        assert counters.get("parallel.restarts", 0) > 0
        assert counters.get("parallel.corrupt_results", 0) > 0

    def test_faulty_checkpoint_resume_across_worker_counts(self):
        helper = TestCheckpointAcrossWorkerCounts()
        full, _ = helper._stream(MODES[0])
        prefix, ck = helper._stream(MODES[2], stop_after=4)
        rest, _ = helper._stream(MODES[1], resume_from=ck)
        assert snapshot_fingerprint(prefix + rest) == \
            snapshot_fingerprint(full)


class TestNonFiniteInputs:
    def test_infinite_values_pooled_stream_equals_serial(self):
        """One +inf and one -inf and no NaN in the summed column: a
        zero weight folds ``0 * inf`` into a NaN, in a worker as on the
        coordinator, so the pool's integrity check must accept it
        instead of rejecting every attempt and losing the shard."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=8_000)
        x[10], x[20] = np.inf, -np.inf
        table = Table.from_columns({"x": x, "y": rng.normal(size=8_000)})
        sql = "SELECT SUM(x) AS s FROM t WHERE y > (SELECT AVG(y) FROM t)"

        def stream(parallel):
            session = GolaSession(GolaConfig(
                num_batches=4, bootstrap_trials=16, seed=3,
                parallel=parallel,
            ))
            session.register_table("t", table)
            return snapshot_fingerprint(session.sql(sql).run_online())

        with np.errstate(invalid="ignore"):
            serial = stream(ParallelConfig())
            pooled = stream(ParallelConfig(workers=1, min_shard_rows=16))
        assert pooled == serial
