"""Unit tests for per-trial evaluation of the uncertain set.

Each bootstrap trial folds the uncertain tuples IT would keep under its
own inner-aggregate replica — capturing inner-selection uncertainty in
the error bars, like the paper's per-trial query recomputation.
"""

import dataclasses

import numpy as np
import pytest

from repro import GolaConfig, GolaSession, Table
from repro.core.delta import UncertainCache
from repro.core.uncertain import KeyedSlotState, ScalarSlotState
from repro.engine.aggregates import GroupIndex
from repro.expr import Environment, evaluate_mask
from repro.workloads import TAXI_QUERIES, generate_sessions, generate_taxi

SBI = (
    "SELECT AVG(play_time) FROM sessions "
    "WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)"
)
KEYED = (
    "SELECT AVG(play_time) FROM sessions WHERE buffer_time > "
    "(SELECT 1.2 * AVG(buffer_time) FROM sessions s "
    "WHERE s.session_id = sessions.session_id)"
)


def run(sql, n=4000, seed=3, batches=5):
    session = GolaSession(
        GolaConfig(num_batches=batches, bootstrap_trials=40, seed=seed)
    )
    table = generate_sessions(n, seed=11)
    # Coarsen session_id into a reusable group key for the keyed query.
    table = table.with_column(
        "session_id", (table["session_id"] % 50).astype(np.int64)
    )
    session.register_table("sessions", table)
    query = session.sql(sql)
    snaps = list(query.run_online())
    exact = session.execute_batch(query)
    return snaps, float(exact.column(exact.schema.names[0])[0])


class TestTrialAware:
    def test_final_still_exact(self):
        snaps, truth = run(SBI)
        assert snaps[-1].estimate == pytest.approx(truth, rel=1e-9)

    def test_keyed_query_supported(self):
        snaps, truth = run(KEYED)
        assert snaps[-1].estimate == pytest.approx(truth, rel=1e-9)
        assert snaps[0].interval.width > 0

    def test_coverage_not_degraded(self):
        hits = total = 0
        for seed in range(5):
            snaps, truth = run(SBI, seed=seed)
            for snap in snaps[:-1]:
                total += 1
                hits += snap.interval.contains(truth)
        assert hits / total >= 0.8

    def test_membership_query_falls_back_to_point(self):
        """Set slots use point membership per trial (documented)."""
        session = GolaSession(
            GolaConfig(num_batches=4, bootstrap_trials=16, seed=5)
        )
        rng = np.random.default_rng(0)
        n = 2000
        session.register_table("t", Table.from_columns({
            "k": rng.integers(0, 40, n).astype(np.int64),
            "x": rng.exponential(5.0, n),
        }))
        query = session.sql(
            "SELECT SUM(x) FROM t WHERE k IN "
            "(SELECT k FROM t GROUP BY k HAVING SUM(x) > 200)"
        )
        last = query.run_to_completion()
        exact = session.execute_batch(query)
        assert last.estimate == pytest.approx(
            float(exact.column(exact.schema.names[0])[0]), rel=1e-9
        )


# ---------------------------------------------------------------------
# The matrix evaluation against the per-trial loop it replaced
# ---------------------------------------------------------------------


def reference_trial_masks(cache, slot_states, penv):
    """``UncertainCache.trial_masks`` as it was before the matrix
    evaluation: one environment, one dict per keyed slot and one
    predicate evaluation over the whole cache per bootstrap trial."""
    m = cache.size
    out = np.empty((m, cache.trials), dtype=np.float64)
    consumed = [
        (slot, slot_states[slot]) for slot in sorted(cache.consumes)
    ]
    keyed_keys = {
        slot: state.index.keys()
        for slot, state in consumed if isinstance(state, KeyedSlotState)
    }
    for j in range(cache.trials):
        env = Environment(functions=penv.functions)
        for slot, state in consumed:
            if isinstance(state, ScalarSlotState):
                env.scalars[slot] = float(state.replicas[j])
            elif isinstance(state, KeyedSlotState):
                present = state._present()
                column = state.replicas[:, j]
                env.keyed[slot] = {
                    key: value
                    for key, value, ok in zip(
                        keyed_keys[slot], column.tolist(), present
                    )
                    if ok
                }
            else:
                env.key_sets[slot] = state.point_members
        mask = np.ones(m, dtype=bool)
        for predicate in cache.predicates:
            mask &= evaluate_mask(predicate, cache.rows.table, env)
        out[:, j] = mask
    return out


def sparser(state):
    """``state`` with its last five keys gone from the producer index
    and five of the remaining ones at zero presence."""
    keys = state.index.keys()
    keep = len(keys) - 5
    index = GroupIndex()
    ids = index.encode(np.array(keys[:keep]))

    def moved(values):
        out = np.empty_like(values[:keep])
        out[ids] = values[:keep]
        return out

    present = moved(state._present())
    present[ids[:5]] = False
    return dataclasses.replace(
        state, index=index, estimates=moved(state.estimates),
        replicas=moved(state.replicas), lows=moved(state.lows),
        highs=moved(state.highs), present=present,
    )


@pytest.fixture
def oracle(monkeypatch):
    """Check every ``trial_masks`` call of a run against the loop —
    also on an emptied cache and with sparser keyed slots — and record
    what the calls covered."""
    seen = {"calls": 0, "rows": 0, "mixed_rows": 0, "defaulted": 0}
    real = UncertainCache.trial_masks

    def same(cache, slot_states, penv):
        got = real(cache, slot_states, penv)
        want = reference_trial_masks(cache, slot_states, penv)
        assert got.shape == want.shape == (cache.size, cache.trials)
        assert np.array_equal(got, want)
        return want

    def checked(cache, slot_states, penv):
        want = same(cache, slot_states, penv)
        seen["calls"] += 1
        seen["rows"] += len(want)
        # Rows some trials keep and others drop: what trial-awareness is.
        seen["mixed_rows"] += int(
            (want.any(axis=1) & ~want.all(axis=1)).sum()
        )
        rows = cache.rows
        cache.rows = rows.take(np.zeros(rows.size, dtype=bool))
        try:
            assert same(cache, slot_states, penv).shape == (
                0, cache.trials)
        finally:
            cache.rows = rows
        keyed = {
            slot: sparser(state) for slot, state in slot_states.items()
            if isinstance(state, KeyedSlotState)
        }
        if keyed:
            sparse = same(cache, {**slot_states, **keyed}, penv)
            seen["defaulted"] += int((sparse != want).sum())
        return real(cache, slot_states, penv)

    monkeypatch.setattr(UncertainCache, "trial_masks", checked)
    return seen


def run_all(tables, sql, batches=5, trials=24, seed=3):
    session = GolaSession(
        GolaConfig(num_batches=batches, bootstrap_trials=trials, seed=seed)
    )
    for name, (table, streamed) in tables.items():
        session.register_table(name, table, streamed=streamed)
    return list(session.sql(sql).run_online())


def sessions_tables(n=4000):
    table = generate_sessions(n, seed=11)
    return {"sessions": (table.with_column(
        "session_id", (table["session_id"] % 50).astype(np.int64)
    ), True)}


def taxi_tables(n=4000):
    taxi = generate_taxi(n, seed=11)
    return {
        name: (table, name in ("trips", "surcharges"))
        for name, table in taxi.items()
    }


class TestMatrixEvaluationOracle:
    """``trial_masks`` equals the per-trial loop bit for bit."""

    def test_scalar_slot(self, oracle):
        run_all(sessions_tables(), SBI)
        assert oracle["calls"] >= 4 and oracle["mixed_rows"] > 0

    def test_keyed_slot_with_absent_and_zero_presence_keys(self, oracle):
        run_all(sessions_tables(), KEYED)
        assert oracle["mixed_rows"] > 0
        # The sparser states changed cells: the default was taken.
        assert oracle["defaulted"] > 0

    def test_arithmetic_around_the_subquery(self, oracle):
        run_all(sessions_tables(), (
            "SELECT AVG(play_time) FROM sessions WHERE buffer_time > "
            "1.2 * (SELECT AVG(buffer_time) FROM sessions) - 1"
        ))
        assert oracle["mixed_rows"] > 0

    def test_two_uncertain_conjuncts(self, oracle):
        run_all(sessions_tables(), (
            "SELECT COUNT(*) FROM sessions WHERE buffer_time > "
            "(SELECT AVG(buffer_time) FROM sessions) AND play_time < "
            "(SELECT 1.1 * AVG(play_time) FROM sessions)"
        ))
        assert oracle["mixed_rows"] > 0

    def test_set_slot_keeps_point_membership(self, oracle):
        rng = np.random.default_rng(0)
        n = 2000
        table = Table.from_columns({
            "k": rng.integers(0, 40, n).astype(np.int64),
            "x": rng.exponential(5.0, n),
        })
        run_all({"t": (table, True)}, (
            "SELECT SUM(x) FROM t WHERE k IN "
            "(SELECT k FROM t GROUP BY k HAVING SUM(x) > 200)"
        ), batches=4, trials=16, seed=5)
        # Point membership: every trial keeps the same rows.
        assert oracle["rows"] > 0 and oracle["mixed_rows"] == 0

    def test_nan_in_the_compared_column(self, oracle):
        tables = taxi_tables()
        assert np.isnan(tables["trips"][0]["tip"]).any()
        run_all(tables, TAXI_QUERIES["T8"])
        assert oracle["mixed_rows"] > 0

    def test_case_and_string_function_over_columns(self, oracle):
        """Certain sub-expressions see the cache's plain columns."""
        run_all(taxi_tables(), (
            "SELECT COUNT(*) FROM trips JOIN zones "
            "ON trips.zone_id = zones.zone_id WHERE "
            "CASE WHEN fare > 20 THEN length(borough) * 0.45 ELSE 0.0 END"
            " > (SELECT AVG(amount) FROM surcharges)"
        ))
        assert oracle["mixed_rows"] > 0
