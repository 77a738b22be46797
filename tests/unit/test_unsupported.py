"""The unsupported-query surface: clear, early, typed errors.

A production system's rejections matter as much as its acceptances;
every limitation documented in README/docs must fail with
UnsupportedQueryError (or a subclass-appropriate error) at bind or
compile time — never with an arbitrary crash mid-run.
"""

import numpy as np
import pytest

from repro import (
    GolaConfig,
    GolaSession,
    Table,
    UnsupportedQueryError,
)
from repro.errors import BindError, ExecutionError, ParseError


@pytest.fixture
def session():
    rng = np.random.default_rng(44)
    s = GolaSession(GolaConfig(num_batches=3, bootstrap_trials=8))
    s.register_table("t", Table.from_columns({
        "k": rng.integers(0, 5, 300).astype(np.int64),
        "x": rng.normal(size=300),
    }))
    return s


class TestBindTimeRejections:
    def test_select_distinct(self, session):
        with pytest.raises(UnsupportedQueryError, match="DISTINCT"):
            session.sql("SELECT DISTINCT x FROM t")

    def test_distinct_unsupported_aggregate(self, session):
        with pytest.raises(UnsupportedQueryError, match="DISTINCT"):
            session.sql("SELECT MIN(DISTINCT x) FROM t")

    def test_non_aggregate_scalar_subquery(self, session):
        with pytest.raises(UnsupportedQueryError, match="aggregate"):
            session.sql(
                "SELECT AVG(x) FROM t WHERE x > (SELECT x FROM t)"
            )

    def test_multi_column_scalar_subquery(self, session):
        with pytest.raises(UnsupportedQueryError):
            session.sql(
                "SELECT AVG(x) FROM t WHERE x > "
                "(SELECT AVG(x), AVG(x) FROM t)"
            )

    def test_group_by_in_scalar_subquery(self, session):
        with pytest.raises(UnsupportedQueryError, match="correlate"):
            session.sql(
                "SELECT AVG(x) FROM t WHERE x > "
                "(SELECT AVG(x) FROM t GROUP BY k)"
            )

    def test_join_inside_subquery(self, session):
        session.register_table("d", Table.from_columns({
            "k": np.arange(5, dtype=np.int64),
        }), streamed=False)
        with pytest.raises(UnsupportedQueryError, match="join"):
            session.sql(
                "SELECT AVG(x) FROM t WHERE x > "
                "(SELECT AVG(x) FROM t JOIN d ON t.k = d.k)"
            )

    def test_correlated_in_subquery(self, session):
        with pytest.raises(UnsupportedQueryError, match="correlated"):
            session.sql(
                "SELECT AVG(x) FROM t WHERE k IN "
                "(SELECT k FROM t u WHERE u.k = t.k)"
            )

    def test_in_list_with_expressions(self, session):
        with pytest.raises(UnsupportedQueryError, match="literal"):
            session.sql("SELECT AVG(x) FROM t WHERE k IN (x + 1, 2)")

    def test_having_without_aggregates(self, session):
        with pytest.raises(BindError, match="aggregate"):
            session.sql("SELECT x FROM t HAVING x > 1")


class TestCompileTimeRejections:
    def test_plain_select_online(self, session):
        query = session.sql("SELECT x FROM t")
        with pytest.raises(UnsupportedQueryError, match="aggregate"):
            list(query.run_online())

    def test_udaf_online_rejected_with_guidance(self, session):
        session.register_udaf(
            "ident",
            init=lambda: 0.0,
            update=lambda s, v, w: s + float(np.sum(v * w)),
            merge=lambda a, b: a + b,
            finalize=lambda s, scale: s * scale,
        )
        query = session.sql("SELECT ident(x) FROM t")
        # Exact path works; online path explains itself.
        assert session.execute_batch(query) is not None
        with pytest.raises(UnsupportedQueryError, match="execute_batch"):
            list(query.run_online())

    def test_no_streamed_relation(self, session):
        session.catalog.set_streamed("t", False)
        query = session.sql("SELECT AVG(x) FROM t")
        with pytest.raises(UnsupportedQueryError, match="streamed"):
            list(query.run_online())


class TestParseRejections:
    @pytest.mark.parametrize("sql", [
        "SELECT FROM t",
        "SELECT x FROM",
        "SELECT x FROM t WHERE",
        "SELECT x FROM t GROUP BY",
        "SELECT x FROM t LIMIT lots",
        "SELECT CASE END FROM t",
        "SELECT (1 + FROM t",
    ])
    def test_malformed_sql(self, session, sql):
        with pytest.raises(ParseError):
            session.sql(sql)


class TestStringAggregateArguments:
    """An aggregate over text fails with a typed error in both engines,
    never with numpy's bare ``ValueError`` from the float cast."""

    JOIN = "FROM trips t JOIN zones z ON t.zone_id = z.zone_id"

    @pytest.fixture
    def taxi_session(self):
        from repro.workloads.taxi import register_taxi

        s = GolaSession(GolaConfig(num_batches=3, bootstrap_trials=8))
        register_taxi(s, 600, seed=1)
        return s

    @pytest.mark.parametrize("agg", [
        "COUNT(z.borough)", "COUNT(DISTINCT z.borough)", "SUM(z.borough)",
    ])
    def test_bare_string_column_rejected_before_running(self, taxi_session,
                                                        agg):
        sql = f"SELECT {agg} {self.JOIN}"
        with pytest.raises(UnsupportedQueryError, match="borough"):
            taxi_session.sql(sql)
        with pytest.raises(UnsupportedQueryError, match="borough"):
            taxi_session.execute_batch(sql)

    @pytest.mark.parametrize("agg", [
        "SUM('abc')",
        "AVG(CASE WHEN fare > 10 THEN z.borough ELSE z.borough END)",
    ])
    def test_string_expression_fails_with_execution_error(self, taxi_session,
                                                          agg):
        query = taxi_session.sql(f"SELECT {agg} {self.JOIN}")
        func = agg.split("(")[0].lower()
        with pytest.raises(ExecutionError, match=rf"{func}\(.*not numeric"):
            taxi_session.execute_batch(query)
        with pytest.raises(ExecutionError, match=rf"{func}\(.*not numeric"):
            list(query.run_online())
