"""Closed-form error bars for flat SUM/COUNT/AVG blocks.

A block that produces and consumes no slot and outputs only SUM, COUNT
and AVG under constant affine maps and linear windows folds exact
moments instead of bootstrap replicas.  Its variances must be what the
Poisson(1) bootstrap's replicas would show, its runs must draw no
weight, and its streams must survive the same resume and pool paths as
every other query's.
"""

import numpy as np
import pytest

from repro import GolaConfig, GolaSession
from repro.config import ParallelConfig
from repro.core.delta import BlockRuntime
from repro.core.meta_plan import compile_meta_plan
from repro.expr.expressions import Environment
from repro.obs import MetricsRegistry, Tracer
from repro.qa import identity
from repro.qa.identity import snapshot_fingerprint
from repro.storage import MiniBatchPartitioner, Table
from repro.workloads.taxi import QUERIES as TAXI, register_taxi

BATCHES = 4


@pytest.fixture(scope="module")
def fact():
    rng = np.random.default_rng(11)
    n = 6000
    return Table.from_columns({
        "g": rng.integers(0, 5, n).astype(np.int64),
        # Heavy-tailed, like fares.
        "x": rng.lognormal(1.0, 0.8, n),
    })


def _twins(sql, fact, trials):
    """The closed-form main runtime and a bootstrap twin of it."""
    config = GolaConfig(num_batches=BATCHES, bootstrap_trials=trials,
                        seed=5)
    session = GolaSession(config)
    session.register_table("fact", fact)
    plan = compile_meta_plan(session.sql(sql).query, {"fact": fact},
                             {"fact": True}, config)
    closed = plan.main_runtime
    assert closed.closed_form is not None, plan.replica_reasons
    boot = BlockRuntime(plan.online_blocks[-1], None, config, {})
    return config, closed, boot


def _errors_after(sql, fact, batches, trials=4000):
    """Per column: (closed-form sd, replica sd) after ``batches``."""
    config, closed, boot = _twins(sql, fact, trials)
    from repro.estimate import PoissonWeightSource

    weights = PoissonWeightSource(trials, config.seed)
    parts = MiniBatchPartitioner(BATCHES, seed=config.seed).partition(fact)
    seen = []
    for i, batch in enumerate(parts[:batches], start=1):
        w = weights.weights_for(batch.num_rows)
        seen.append((batch, w))
        closed.process_batch(i, batch, None, {}, Environment(),
                             lambda: seen)
        boot.process_batch(i, batch, w, {}, Environment(), lambda: seen)
    scale = BATCHES / batches
    table, variances = closed.snapshot_output(Environment(), {}, scale)
    boot_table, replicas = boot.snapshot_output(Environment(), {}, scale)
    for name in table.schema.names:
        np.testing.assert_array_equal(table.column(name),
                                      boot_table.column(name))
    assert set(variances) == set(replicas)
    return {
        name: (np.sqrt(var), np.std(replicas[name], axis=1))
        for name, var in variances.items()
    }


@pytest.mark.parametrize("sql", [
    "SELECT g, COUNT(*) AS n, SUM(x) AS s, AVG(x) AS m "
    "FROM fact GROUP BY g",
    "SELECT g, 2.5 * SUM(x) - 4 AS s, AVG(x) / 3 AS m, -COUNT(*) AS n "
    "FROM fact WHERE x > 2.0 GROUP BY g",
    "SELECT g, SUM(x) AS s, SUM(s) OVER (ORDER BY g) AS cum, "
    "AVG(x) AS m, AVG(m) OVER (ORDER BY g ROWS 2 PRECEDING) AS roll "
    "FROM fact GROUP BY g ORDER BY g",
], ids=["grouped", "affine", "windows"])
def test_closed_form_sd_matches_4000_poisson_replicas(fact, sql):
    for name, (closed_sd, replica_sd) in _errors_after(sql, fact, 2).items():
        np.testing.assert_allclose(closed_sd, replica_sd, rtol=0.05,
                                   err_msg=name)


def test_moment_states_carry_no_trial_axis(fact):
    _, closed, _ = _twins(
        "SELECT g, COUNT(*), SUM(x), AVG(x) FROM fact GROUP BY g", fact, 64)
    assert closed.boot_states == {}
    assert all(s.width == 1 for s in closed.moment_states.values())
    assert sorted(type(s).__name__ for s in closed.moment_states.values()) \
        == ["SumState", "VarState"]


@pytest.fixture(scope="module")
def taxi_session_factory():
    def make(**options):
        tracer = Tracer(metrics=MetricsRegistry(enabled=True))
        session = GolaSession(
            GolaConfig(num_batches=6, bootstrap_trials=32, seed=9,
                       **options),
            tracer=tracer,
        )
        register_taxi(session, 6000, seed=3)
        return session, tracer
    return make


def test_flat_query_draws_no_weights(taxi_session_factory):
    session, tracer = taxi_session_factory()
    snaps = list(session.sql(TAXI["T1"]).run_online())
    assert len(snaps) == 6 and snaps[-1].errors["cum_trips"].lows.size
    counters = tracer.metrics.snapshot().counters
    assert counters.get("bootstrap.weights_drawn", 0) == 0
    assert counters.get("bootstrap.columns_drawn", 0) == 0
    entry = session.batch_store._entries.get("bootstrap:trips")
    assert entry is None or entry.rects == {}
    # A bootstrap query on the same table still draws its rectangles.
    list(session.sql(TAXI["T3"]).run_online())
    assert len(session.batch_store._entries["bootstrap:trips"].rects) == 6


def test_resumed_run_matches_uninterrupted(taxi_session_factory):
    full, _ = taxi_session_factory()
    want = snapshot_fingerprint(full.sql(TAXI["T2"]).run_online())
    first, _ = taxi_session_factory()
    query = first.sql(TAXI["T2"])
    it = query.run_online()
    head = [next(it) for _ in range(3)]
    checkpoint = query.checkpoint()
    it.close()
    fresh, _ = taxi_session_factory()
    rest = list(fresh.sql(TAXI["T2"]).run_online(resume_from=checkpoint))
    assert snapshot_fingerprint(head + rest) == want


def test_pool_stream_matches_serial(taxi_session_factory):
    serial, _ = taxi_session_factory()
    want = snapshot_fingerprint(serial.sql(TAXI["T1"]).run_online())
    pooled, _ = taxi_session_factory(parallel=ParallelConfig(
        workers=1, min_shard_rows=64))
    assert snapshot_fingerprint(pooled.sql(TAXI["T1"]).run_online()) == want


#: Every bundled query's blocks: "closed-form" or the first failed rule.
EXPLAIN = {
    "T1": ["closed-form"],
    "T2": ["closed-form"],
    "T3": ["bootstrap B=32 (count(DISTINCT zone_id) AS active_zones "
           "is DISTINCT)"],
    "T4": ["bootstrap B=32 (count(DISTINCT zone_id) AS premium_zones "
           "is DISTINCT)"],
    "T5": ["bootstrap B=32 (QUANTILE has no closed form)"],
    "T6": ["bootstrap B=32 (QUANTILE has no closed form)"],
    "T7": ["bootstrap B=32 (produces slot #0)",
           "bootstrap B=32 (consumes #0)"],
    "T8": ["bootstrap B=32 (produces slot #0)",
           "bootstrap B=32 (consumes #0)"],
    "T9": ["closed-form"],
    "T10": ["closed-form"],
    "AVGP": ["closed-form"],
    "GEO": ["closed-form"],
    "SBI": ["bootstrap B=32 (produces slot #0)",
            "bootstrap B=32 (consumes #0)"],
    "C1": ["bootstrap B=32 (produces slot #0)",
           "bootstrap B=32 (consumes #0)"],
    "C2": ["bootstrap B=32 (produces slot #0)",
           "bootstrap B=32 (consumes #0)"],
    "C3": ["bootstrap B=32 (produces slot #0)",
           "bootstrap B=32 (consumes #0)"],
    "MM1": ["bootstrap B=32 (produces slot #0)",
            "bootstrap B=32 (consumes #0)"],
    "Q11": ["bootstrap B=32 (produces slot #0)",
            "bootstrap B=32 (consumes #0)"],
    "Q17": ["bootstrap B=32 (produces slot #0)",
            "bootstrap B=32 (consumes #0)"],
    "Q18": ["bootstrap B=32 (produces slot #0)",
            "bootstrap B=32 (consumes #0)"],
    "Q20": ["bootstrap B=32 (produces slot #0)",
            "bootstrap B=32 (consumes #0)"],
}


def test_explain_pins_the_choice_for_every_bundled_query():
    queries = identity.bundled_queries()
    assert set(EXPLAIN) == set(queries)
    tables = {
        "sessions": ["sessions"], "conviva": ["conviva"], "tpch": ["tpch"],
        "taxi": ["trips", "surcharges", "zones", "vendors"],
    }
    from repro.workloads import (
        generate_conviva, generate_sessions, generate_taxi, generate_tpch,
    )
    data = {"sessions": generate_sessions(200, seed=1),
            "conviva": generate_conviva(200, seed=1),
            "tpch": generate_tpch(200, seed=1)}
    data.update(generate_taxi(200, seed=1))
    session = GolaSession(GolaConfig(bootstrap_trials=32))
    for names in tables.values():
        for name in names:
            session.register_table(name, data[name],
                                   streamed=name not in ("zones", "vendors"))
    for name, (_, sql) in queries.items():
        text = session.sql(sql).explain()
        lines = [line.strip()[len("errors: "):]
                 for line in text.splitlines()
                 if line.strip().startswith("errors: ")]
        assert lines == EXPLAIN[name], name
