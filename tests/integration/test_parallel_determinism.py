"""Parallel execution determinism: bit-identical for any worker count.

The contract of ``repro.parallel`` (ISSUE 3): estimates, confidence
intervals, uncertain-set sizes and trace accounting are **bit-identical**
across serial execution and every worker count, because trial
shards draw from per-(batch, trial) RNG streams and merge into disjoint
state columns.  Also pins composition with the fault-injection
subsystem: checkpoints taken at one worker count resume at another, and
faulty runs skip/recover identically under any pool.
"""

import pytest

from repro import FaultsConfig, GolaConfig, GolaSession
from repro.config import ParallelConfig
from repro.faults.chaos import snapshot_fingerprint
from repro.obs import AggregatingSink, MetricsRegistry, Tracer
from repro.workloads import (
    SBI_QUERY,
    TPCH_QUERIES,
    generate_sessions,
    generate_tpch,
)

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


def run_query(sql, table_name, table, parallel, faults=None, tracer=None,
              batches=BATCHES, trials=TRIALS):
    session = GolaSession(
        GolaConfig(num_batches=batches, bootstrap_trials=trials, seed=17,
                   parallel=parallel,
                   faults=faults if faults is not None else FaultsConfig()),
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
    def _stream(self, parallel, resume_from=None, stop_after=None,
                faults=None):
        session = GolaSession(
            GolaConfig(num_batches=BATCHES, bootstrap_trials=TRIALS,
                       seed=17, parallel=parallel,
                       faults=faults if faults is not None
                       else FaultsConfig()),
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
    SKIPPY = FaultsConfig(enabled=True, seed=21, batch_failure_prob=0.3,
                          max_retries=0)

    def test_degraded_run_identical_under_pool(self):
        serial = list(run_query(
            SBI_QUERY, "sessions", SESSIONS, MODES[0], faults=self.SKIPPY
        ))
        pooled = snapshot_fingerprint(run_query(
            SBI_QUERY, "sessions", SESSIONS,
            ParallelConfig(workers=2),
            faults=self.SKIPPY,
        ))
        assert pooled == snapshot_fingerprint(serial)
        assert any(s.degraded for s in serial)  # the run really degraded

    def test_faulty_checkpoint_resume_across_worker_counts(self):
        helper = TestCheckpointAcrossWorkerCounts()
        full, _ = helper._stream(MODES[0], faults=self.SKIPPY)
        prefix, ck = helper._stream(MODES[0], stop_after=4,
                                    faults=self.SKIPPY)
        rest, _ = helper._stream(MODES[2], resume_from=ck,
                                 faults=self.SKIPPY)
        assert snapshot_fingerprint(prefix + rest) == \
            snapshot_fingerprint(full)
