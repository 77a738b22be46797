"""Predicate shapes beyond a lone ``certain θ f(slot)``, end to end.

These shapes once took a stricter fallback guard; now each uncertain
atom gets a decision guard on ``certain θ uncertain``, or is never
decided early.  They are ``=``, an ``OR`` with a certain disjunct, two
slots, and a row column on the uncertain side, over a scalar ``AVG``,
a keyed ``AVG`` and a ``MIN``/``MAX`` correlated on ``content_id``, plus
one atom (a slot times a row column) that is never decided.  A grouped
``MIN``/``MAX`` leaves +-inf in the trials that never sampled a group,
which must bound nothing (and warn nothing) on the way into the guards
or a window.

Each snapshot's point columns must equal classical delta maintenance's
snapshot at the same batch — the oracle that catches an unsound commit
rule — and each serial stream the one-worker pool's stream bit for bit,
at ε = 0 and the default ε.
"""

import numpy as np
import pytest

from repro import GolaConfig, GolaSession
from repro.baselines.cdm import ClassicalDeltaMaintenance
from repro.config import ParallelConfig
from repro.core.meta_plan import compile_meta_plan
from repro.qa.identity import snapshot_fingerprint
from repro.workloads import generate_conviva

TABLE = generate_conviva(8000, seed=3)

_MAX = ("(SELECT MAX(buffer_time) FROM conviva c "
        "WHERE c.content_id = conviva.content_id)")
_MIN = ("(SELECT MIN(play_time) FROM conviva d "
        "WHERE d.content_id = conviva.content_id)")
_AVG = "(SELECT AVG(buffer_time) FROM conviva)"
_AVG_C = ("(SELECT AVG(buffer_time) FROM conviva c "
          "WHERE c.content_id = conviva.content_id)")
_AVG_D = ("(SELECT AVG(play_time) FROM conviva d "
          "WHERE d.content_id = conviva.content_id)")

_KEYED = "decision on slot#0 by content_id"
_NEVER = "cached until the last batch"

#: shape -> (WHERE clause, the guard of each uncertain atom).
SHAPES = {
    "scalar-eq": ("content_id = (SELECT MAX(content_id) FROM conviva)",
                  ["decision on slot#0"]),
    "scalar-or": (f"buffer_time > {_AVG} OR geo = 'US'",
                  ["decision on slot#0"]),
    "scalar-two-slots": (
        f"buffer_time > {_AVG} + 0.001 * "
        "(SELECT AVG(play_time) FROM conviva)", ["decision on slot#0"]),
    "scalar-row-column": (f"buffer_time > 0.001 * play_time + {_AVG}",
                          ["decision on slot#0"]),
    "keyed-avg-or": (f"buffer_time > 1.5 * {_AVG_C} OR geo = 'US'",
                     [_KEYED]),
    "keyed-avg-two-slots": (
        f"buffer_time > 1.5 * {_AVG_C} + 0.001 * {_AVG_D}", [_KEYED]),
    "keyed-avg-row-column": (
        f"buffer_time > 0.001 * play_time + 1.5 * {_AVG_C}", [_KEYED]),
    "keyed-or": (f"buffer_time > 0.5 * {_MAX} OR geo = 'US'", [_KEYED]),
    "keyed-two-slots": (f"buffer_time > 0.3 * {_MAX} + 0.001 * {_MIN}",
                        [_KEYED]),
    "keyed-row-column": (
        f"buffer_time > 0.001 * play_time + 0.5 * {_MAX}", [_KEYED]),
    "never-decided": (f"buffer_time * {_AVG} > 0.5 * play_time", [_NEVER]),
}


def _session(epsilon, workers=0):
    options = {} if epsilon is None else {"epsilon_multiplier": epsilon}
    session = GolaSession(GolaConfig(
        num_batches=6, bootstrap_trials=16, seed=7,
        parallel=ParallelConfig(workers=workers, min_shard_rows=1),
        **options,
    ))
    session.register_table("conviva", TABLE)
    return session


@pytest.mark.parametrize("epsilon", [None, 0.0], ids=["eps-default",
                                                      "eps-0"])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_fallback_shape_is_exact_and_pool_identical(shape, epsilon):
    where, labels = SHAPES[shape]
    sql = ("SELECT COUNT(*) AS n, AVG(play_time) AS retention "
           f"FROM conviva WHERE {where}")
    session = _session(epsilon)
    query = session.sql(sql)
    plan = compile_meta_plan(query.query, {"conviva": TABLE},
                             {"conviva": True}, session.config)
    atoms = plan.main_runtime.guards.atoms
    assert [atom.label for atom in atoms] == labels

    serial = list(query.run_online())
    cdm = list(ClassicalDeltaMaintenance(
        query.query, session._tables(), session.config).run())
    assert len(cdm) == len(serial)
    for snap, oracle in zip(serial, cdm):
        for name in ("n", "retention"):
            np.testing.assert_allclose(snap.table.column(name),
                                       oracle.table.column(name),
                                       rtol=1e-9)
    exact = session.execute_batch(sql)
    for name in ("n", "retention"):
        np.testing.assert_allclose(serial[-1].table.column(name),
                                   exact.column(name), rtol=1e-9)
    pooled = list(_session(epsilon, workers=1).sql(sql).run_online())
    assert snapshot_fingerprint(pooled) == snapshot_fingerprint(serial)


def test_window_over_max_replicas_is_exact_and_quiet():
    """A window frame over a trial's +-inf MAX has no value (NaN), and
    computing it warns nothing."""
    sql = ("SELECT content_id, MAX(buffer_time) AS worst, AVG(worst) "
           "OVER (ORDER BY content_id ROWS 1 PRECEDING) AS rolling "
           "FROM conviva GROUP BY content_id ORDER BY content_id")
    session = _session(None)
    last = list(session.sql(sql).run_online())[-1].table
    exact = session.execute_batch(sql)
    for name in ("worst", "rolling"):
        np.testing.assert_allclose(last.column(name), exact.column(name),
                                   rtol=1e-9)


def test_explain_names_each_atoms_guard():
    sql = ("SELECT COUNT(*) FROM conviva "
           f"WHERE (buffer_time > 1.5 * {_AVG_C} OR geo = 'US') "
           f"AND buffer_time * {_AVG} > 0.5 * play_time "
           "AND content_id IN (SELECT content_id FROM conviva "
           "GROUP BY content_id HAVING COUNT(*) > 50)")
    text = _session(None).sql(sql).explain()
    main = text[text.index("main:"):]
    atoms = [line.strip() for line in main.splitlines()
             if line.strip().startswith("atom ")]
    assert [a.rsplit(": ", 1)[1] for a in atoms] == [
        "decision on slot#0 by content_id",
        "cached until the last batch",
        "set on slot#2",
    ], text


#: A keyed slot whose producer classifies its own rows against a scalar
#: slot: the producer's per-group point values move as its cached rows
#: reclassify, and the consumer rebuilds at most batches (EXPERIMENTS.md
#: probe D, known deviation) — the answers must still be exact.
NESTED_KEYED = (
    "SELECT COUNT(*) AS n, AVG(play_time) AS retention FROM conviva "
    "WHERE buffer_time > 1.2 * (SELECT AVG(buffer_time) FROM conviva c "
    "WHERE c.content_id = conviva.content_id AND c.play_time > "
    "(SELECT AVG(play_time) FROM conviva))"
)


@pytest.mark.parametrize("epsilon", [None, 0.0], ids=["eps-default",
                                                      "eps-0"])
def test_keyed_slot_over_an_uncertain_producer_is_exact(epsilon):
    options = {} if epsilon is None else {"epsilon_multiplier": epsilon}
    session = GolaSession(GolaConfig(num_batches=8, bootstrap_trials=16,
                                     seed=7, **options))
    session.register_table("conviva", TABLE)
    query = session.sql(NESTED_KEYED)
    serial = list(query.run_online())
    cdm = list(ClassicalDeltaMaintenance(
        query.query, session._tables(), session.config).run())
    assert len(serial) == len(cdm) == 8
    for snap, oracle in zip(serial, cdm):
        for name in ("n", "retention"):
            np.testing.assert_allclose(snap.table.column(name),
                                       oracle.table.column(name),
                                       rtol=1e-9)
