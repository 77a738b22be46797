"""The fallback guard strategy, end to end.

Every bundled query and every seeded fuzz sweep classifies its uncertain
predicates as decision or set guards.  These seven shapes take the
fallback: ``=``, an ``OR`` with a certain disjunct, two slots, and a row
column on the uncertain side, over a scalar slot (``_ScalarGuard``) and,
for the last three, over a ``MIN``/``MAX`` slot correlated on
``content_id`` (``_KeyedRangeGuard``).  A grouped ``MIN``/``MAX`` leaves
+-inf in the trials that never sampled a group, which must bound
nothing (and warn nothing) on the way into the guards or a window.

Each final snapshot must equal ``execute_batch``, and each serial stream
the one-worker pool's stream bit for bit, at ε = 0 and the default ε.
"""

import numpy as np
import pytest

from repro import GolaConfig, GolaSession
from repro.config import ParallelConfig
from repro.core.guards import _KeyedRangeGuard, _ScalarGuard
from repro.core.meta_plan import compile_meta_plan
from repro.qa.identity import snapshot_fingerprint
from repro.workloads import generate_conviva

TABLE = generate_conviva(8000, seed=3)

_MAX = ("(SELECT MAX(buffer_time) FROM conviva c "
        "WHERE c.content_id = conviva.content_id)")
_MIN = ("(SELECT MIN(play_time) FROM conviva d "
        "WHERE d.content_id = conviva.content_id)")
_AVG = "(SELECT AVG(buffer_time) FROM conviva)"

#: shape -> (WHERE clause, the guard its slots take).
SHAPES = {
    "scalar-eq": ("content_id = (SELECT MAX(content_id) FROM conviva)",
                  _ScalarGuard),
    "scalar-or": (f"buffer_time > {_AVG} OR geo = 'US'", _ScalarGuard),
    "scalar-two-slots": (
        f"buffer_time > {_AVG} + 0.001 * "
        "(SELECT AVG(play_time) FROM conviva)", _ScalarGuard),
    "scalar-row-column": (f"buffer_time > 0.001 * play_time + {_AVG}",
                          _ScalarGuard),
    "keyed-or": (f"buffer_time > 0.5 * {_MAX} OR geo = 'US'",
                 _KeyedRangeGuard),
    "keyed-two-slots": (f"buffer_time > 0.3 * {_MAX} + 0.001 * {_MIN}",
                        _KeyedRangeGuard),
    "keyed-row-column": (
        f"buffer_time > 0.001 * play_time + 0.5 * {_MAX}",
        _KeyedRangeGuard),
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
    where, guard_type = SHAPES[shape]
    sql = ("SELECT COUNT(*) AS n, AVG(play_time) AS retention "
           f"FROM conviva WHERE {where}")
    session = _session(epsilon)
    query = session.sql(sql)
    plan = compile_meta_plan(query.query, {"conviva": TABLE},
                             {"conviva": True}, session.config)
    guards = [g for _, g in plan.main_runtime.guards.guards]
    assert guards and all(isinstance(g, guard_type) for g in guards)

    serial = list(query.run_online())
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
