"""Online execution across the whole aggregate family.

The paper lists COUNT, SUM, AVG, STDEV and QUANTILES as supported
standard aggregates; every one must refine online and land exactly on
the batch answer (QUANTILE lands within its reservoir tolerance).
"""

import numpy as np
import pytest

from repro import GolaConfig, GolaSession, Table
from repro.config import ParallelConfig


@pytest.fixture(scope="module")
def session():
    rng = np.random.default_rng(12)
    n = 6000
    s = GolaSession(GolaConfig(num_batches=5, bootstrap_trials=24, seed=4))
    s.register_table("t", Table.from_columns({
        "g": rng.integers(0, 8, n).astype(np.int64),
        "x": rng.normal(50.0, 12.0, n),
        "y": rng.exponential(4.0, n),
    }))
    return s


def final_and_exact(session, sql):
    query = session.sql(sql)
    last = query.run_to_completion()
    exact = session.execute_batch(query)
    return last, exact


class TestOnlineAggregates:
    @pytest.mark.parametrize("agg", [
        "COUNT(*)", "SUM(x)", "AVG(x)", "MIN(x)", "MAX(x)", "STDEV(x)",
        "VAR(x)",
    ])
    def test_global_exactness(self, session, agg):
        last, exact = final_and_exact(
            session, f"SELECT {agg} AS v FROM t WHERE y < 6"
        )
        assert last.estimate == pytest.approx(
            float(exact.column("v")[0]), rel=1e-9
        )

    @pytest.mark.parametrize("agg", ["SUM(x)", "AVG(x)", "STDEV(x)"])
    def test_grouped_exactness(self, session, agg):
        last, exact = final_and_exact(
            session, f"SELECT g, {agg} AS v FROM t GROUP BY g ORDER BY g"
        )
        np.testing.assert_allclose(
            last.table.column("v").astype(float),
            exact.column("v").astype(float), rtol=1e-9,
        )

    def test_quantile_online(self, session):
        last, exact = final_and_exact(
            session, "SELECT QUANTILE(x, 0.5) AS med FROM t"
        )
        # Reservoir-approximate on both paths; same ballpark as numpy.
        table = session.catalog.get("t")
        assert last.estimate == pytest.approx(
            float(np.median(table["x"])), abs=1.5
        )

    def test_nested_with_stdev(self, session):
        last, exact = final_and_exact(
            session,
            "SELECT STDEV(x) AS v FROM t WHERE y > "
            "(SELECT AVG(y) FROM t)",
        )
        assert last.estimate == pytest.approx(
            float(exact.column("v")[0]), rel=1e-9
        )

    def test_multiple_aggregates_one_query(self, session):
        last, exact = final_and_exact(
            session,
            "SELECT COUNT(*) AS n, SUM(x) AS s, AVG(x) AS m, "
            "MIN(x) AS lo, MAX(x) AS hi FROM t WHERE y < "
            "(SELECT 2.0 * AVG(y) FROM t)",
        )
        for col in ("n", "s", "m", "lo", "hi"):
            assert float(last.table.column(col)[0]) == pytest.approx(
                float(exact.column(col)[0]), rel=1e-9
            )

    def test_expression_over_aggregates(self, session):
        last, exact = final_and_exact(
            session,
            "SELECT SUM(x) / COUNT(*) AS ratio FROM t WHERE y > "
            "(SELECT AVG(y) FROM t)",
        )
        assert last.estimate == pytest.approx(
            float(exact.column("ratio")[0]), rel=1e-9
        )
        # The derived column still carries error bars (replica algebra).
        assert "ratio" in last.errors

    def test_intermediate_snapshots_have_error_bars(self, session):
        query = session.sql(
            "SELECT AVG(x) AS v FROM t WHERE y > (SELECT AVG(y) FROM t)"
        )
        for snap in query.run_online():
            assert snap.interval.width >= 0.0
            if not snap.is_final:
                assert snap.interval.width > 0.0
            break


class TestEmptyBatchRegressions:
    """Pinned reproducers found by ``repro fuzz --grammar deep``.

    Both bugs shared a root: code that assumed at least one surviving
    row per batch.  A predicate that filters a whole mini-batch to zero
    rows must still flow through joins (schema effects) and produce a
    zero-row grouped result, identically on every execution path.
    """

    def _session(self):
        rng = np.random.default_rng(3)
        n = 1200
        s = GolaSession(GolaConfig(num_batches=4, bootstrap_trials=8,
                                   seed=11))
        s.register_table("fact", Table.from_columns({
            "k": rng.integers(0, 6, n).astype(np.int64),
            "x": rng.normal(0.0, 1.0, n),
        }))
        s.register_table("dim", Table.from_columns({
            "dim_id": np.arange(6, dtype=np.int64),
            "cat": np.array(list("abcabc"), dtype=object),
        }), streamed=False)
        return s

    def test_join_survives_batch_filtered_to_empty(self):
        # The online delta path used to skip join steps once a filter
        # emptied the batch, losing the dimension columns the group-by
        # references (SchemaError: unknown column 'cat').
        s = self._session()
        sql = ("SELECT cat, SUM(x) AS v FROM fact "
               "INNER JOIN dim ON fact.k = dim.dim_id "
               "WHERE x > 1e9 GROUP BY cat")
        last = s.sql(sql).run_to_completion()
        exact = s.execute_batch(sql)
        assert last.table.num_rows == exact.num_rows == 0

    def test_grouped_distinct_over_empty_input_is_empty(self):
        # DistinctState/QuantileState emitted one phantom row for a
        # zero-group grouped input, making the output table ragged.
        s = self._session()
        sql = ("SELECT k, COUNT(DISTINCT x) AS v FROM fact "
               "WHERE x > 1e9 GROUP BY k")
        last = s.sql(sql).run_to_completion()
        exact = s.execute_batch(sql)
        assert last.table.num_rows == exact.num_rows == 0


class TestLeftJoinUnmatchedKeys:
    """An unmatched LEFT JOIN row fills like the batch engine's.

    The online pipeline once carried its own hash join, which handed
    unmatched fact rows dimension row 0's values where the batch engine
    fills NULLs (NaN for floats, 0 for ints), so every answer that read
    a dimension column drifted from ``execute_batch``.  Half the fact
    keys here have no dimension row.
    """

    JOIN = "FROM fact LEFT JOIN dim ON fact.k = dim.dk"
    NESTED = "v > (SELECT AVG(v) FROM fact)"

    @staticmethod
    def _session(parallel):
        rng = np.random.default_rng(5)
        n = 4000
        config = GolaConfig(num_batches=5, bootstrap_trials=12, seed=9)
        if parallel is not None:
            config = config.with_options(parallel=parallel)
        s = GolaSession(config)
        s.register_table("fact", Table.from_columns({
            "k": rng.integers(0, 40, n).astype(np.int64),
            "v": rng.normal(10.0, 3.0, n),
        }))
        s.register_table("dim", Table.from_columns({
            "dk": np.arange(20, dtype=np.int64),
            "w": np.linspace(5.0, 95.0, 20),
            "q": np.arange(1, 21, dtype=np.int64),
        }), streamed=False)
        return s

    @pytest.mark.parametrize("parallel", [
        None, ParallelConfig(workers=2, backend="thread"),
    ], ids=["serial", "thread2"])
    @pytest.mark.parametrize("select,where", [
        ("AVG(v) AS a", "w < 50"),
        ("SUM(q) AS s, COUNT(*) AS c", None),
        ("AVG(v) AS a, SUM(q) AS s", "w < 50 AND " + NESTED),
        ("SUM(q) AS s, COUNT(*) AS c", NESTED),
    ])
    def test_final_snapshot_equals_batch(self, parallel, select, where):
        s = self._session(parallel)
        sql = f"SELECT {select} {self.JOIN}"
        if where is not None:
            sql += f" WHERE {where}"
        last = s.sql(sql).run_to_completion()
        exact = s.execute_batch(sql)
        for name in exact.schema.names:
            np.testing.assert_allclose(
                last.table.column(name), exact.column(name), rtol=1e-9,
                err_msg=f"{sql} [{name}]",
            )
