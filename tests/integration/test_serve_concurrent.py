"""Acceptance: 8 concurrent paper queries through the scheduler.

The serving tentpole's contract (ISSUE 4): running the paper's workload
queries *concurrently* under the deficit round-robin scheduler yields,
for every query, a snapshot stream **bit-identical** to running that
query alone — multiplexing schedules, never results.  Also exercised
here: cancellation and deadline control paths under concurrency, and an
injected per-query ``scheduler.step`` fault that quarantines exactly one
query while the other seven keep refining to completion.
"""

import dataclasses

import pytest

pytestmark = pytest.mark.slow  # 8-way concurrency soak; see docs/testing.md

from repro import FaultsConfig, GolaConfig, GolaSession, ServeConfig
from repro.faults.chaos import snapshot_fingerprint
from repro.serve import CANCELLED, DONE, EXPIRED, FAILED, QueryScheduler
from repro.workloads import (
    CONVIVA_QUERIES,
    SBI_QUERY,
    TPCH_QUERIES,
    generate_conviva,
    generate_sessions,
    generate_tpch,
)

N_ROWS = 3_000
CONFIG = GolaConfig(num_batches=5, bootstrap_trials=24, seed=17)
SERVE = ServeConfig(max_concurrent=8, queue_depth=16, max_steps_per_turn=2)

SESSIONS = generate_sessions(N_ROWS, seed=5)
CONVIVA = generate_conviva(N_ROWS, seed=5)
TPCH = generate_tpch(N_ROWS, seed=5)

#: The paper's evaluation workload: SBI + Conviva C1–C3 + TPC-H queries.
WORKLOAD = [
    ("SBI", SBI_QUERY),
    ("C1", CONVIVA_QUERIES["C1"]),
    ("C2", CONVIVA_QUERIES["C2"]),
    ("C3", CONVIVA_QUERIES["C3"]),
    ("Q11", TPCH_QUERIES["Q11"]),
    ("Q17", TPCH_QUERIES["Q17"]),
    ("Q18", TPCH_QUERIES["Q18"]),
    ("Q20", TPCH_QUERIES["Q20"]),
]


def make_session(config=CONFIG):
    session = GolaSession(config)
    session.register_table("sessions", SESSIONS)
    session.register_table("conviva", CONVIVA)
    session.register_table("tpch", TPCH)
    return session


@pytest.fixture(scope="module")
def serial_fingerprints():
    """Each workload query run alone, in a fresh session."""
    baselines = {}
    for name, sql in WORKLOAD:
        session = make_session()
        baselines[name] = snapshot_fingerprint(
            session.sql(sql).run_online())
    return baselines


class TestEightConcurrentQueries:
    def test_streams_bit_identical_to_serial(self, serial_fingerprints):
        session = make_session()
        with QueryScheduler(session, serve=SERVE) as sched:
            runs = {name: sched.submit(sql) for name, sql in WORKLOAD}
            assert sched.wait(timeout=300.0), "workload did not finish"
            for name, run in runs.items():
                assert run.state == DONE, (name, run.state, run.error)
                assert snapshot_fingerprint(run.snapshots) == \
                    serial_fingerprints[name], name
                # The stream saw every batch plus the end record.
                history = run.stream.history
                assert len(history) == CONFIG.num_batches + 1
                assert history[-1]["state"] == DONE
            # Same-table queries shared mini-batch partitions: only one
            # miss per distinct streamed table.
            stats = session.batch_store.stats
            assert stats["misses"] == 3
            assert stats["hits"] == len(WORKLOAD) - 3
            counters = sched.metrics_snapshot().counters
            assert counters["scheduler.done"] == len(WORKLOAD)
            assert counters["scheduler.steps"] == \
                len(WORKLOAD) * CONFIG.num_batches

    def test_fault_quarantines_one_of_eight(self, serial_fingerprints):
        """One faulty query fails alone; the other 7 refine unperturbed."""
        faulty_config = dataclasses.replace(
            CONFIG,
            faults=FaultsConfig(enabled=True, step_failure_prob=1.0,
                                max_retries=0),
        )
        session = make_session()
        with QueryScheduler(session, serve=SERVE) as sched:
            runs = {}
            for name, sql in WORKLOAD:
                config = faulty_config if name == "Q17" else None
                runs[name] = sched.submit(sql, config=config)
            assert sched.wait(timeout=300.0)
            assert runs["Q17"].state == FAILED
            assert "scheduler.step" in runs["Q17"].error
            assert runs["Q17"].snapshots == []
            assert runs["Q17"].stream.history[-1]["state"] == FAILED
            for name, run in runs.items():
                if name == "Q17":
                    continue
                assert run.state == DONE, (name, run.state, run.error)
                assert snapshot_fingerprint(run.snapshots) == \
                    serial_fingerprints[name], name
            counters = sched.metrics_snapshot().counters
            assert counters["scheduler.quarantined"] == 1
            assert counters["scheduler.done"] == len(WORKLOAD) - 1

    def test_cancel_and_deadline_among_concurrent(self,
                                                  serial_fingerprints):
        """Cancelling/expiring two queries leaves the rest bit-identical."""
        slow_config = dataclasses.replace(CONFIG, num_batches=400)
        session = make_session()
        with QueryScheduler(session, serve=SERVE) as sched:
            victim = sched.submit(SBI_QUERY, config=slow_config)
            expiring = sched.submit(
                CONVIVA_QUERIES["C1"], config=slow_config, deadline_s=0.2
            )
            survivors = {
                name: sched.submit(sql)
                for name, sql in WORKLOAD if name not in ("SBI", "C1")
            }
            # Cancel the victim once it has produced some estimates.
            deadline_ok = sched.wait(expiring.id, timeout=60.0)
            status = sched.cancel(victim.id)
            assert status["state"] in (CANCELLED, DONE)
            assert sched.wait(timeout=300.0)
            assert deadline_ok
            assert victim.state == CANCELLED
            assert victim.batches_done < 400
            assert expiring.state == EXPIRED
            assert expiring.batches_done < 400
            for name, run in survivors.items():
                assert run.state == DONE, (name, run.state, run.error)
                assert snapshot_fingerprint(run.snapshots) == \
                    serial_fingerprints[name], name
