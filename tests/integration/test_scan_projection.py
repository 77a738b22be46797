"""Every scan reads only the columns its query uses.

One query per way a column is reached — a certain filter, a join key, a
dimension column after the join, an uncertain predicate, a correlated
slot key, a GROUP BY key, an aggregate argument, and no column at all —
run over in-memory tables and over colstore datasets (the fact streamed
from its partition files, the ``zones`` dimension materialized).  Each
must decode exactly its query's columns, stream bit for bit what the
in-memory run streams, and end on ``execute_batch``'s answer.  The
uncertain-predicate case runs at ε = 0 and rebuilds, so the rebuild's
re-read of batches ``1..i`` is checked at the same width.
"""

from collections import defaultdict
from pathlib import Path

import pytest

from repro import GolaConfig, GolaSession
from repro.core.controller import QueryController
from repro.qa.compare import compare_tables
from repro.qa.identity import snapshot_fingerprint
from repro.storage.colstore import PartitionReader, convert_table
from repro.workloads import TAXI_QUERIES, TPCH_QUERIES, generate_taxi, \
    generate_tpch

ROWS = 4000
CONFIG = GolaConfig(num_batches=8, bootstrap_trials=16, seed=3,
                    epsilon_multiplier=0.0)

#: name -> (SQL, {table: columns the scan must read})
CASES = {
    "certain_filter": (
        "SELECT COUNT(*) AS n FROM trips WHERE fare > 30.0",
        {"trips": ("fare",)}),
    "join_key": (
        "SELECT COUNT(*) AS n FROM trips t "
        "JOIN zones z ON t.zone_id = z.zone_id",
        {"trips": ("zone_id",), "zones": ("zone_id",)}),
    "dimension_column": (
        TAXI_QUERIES["T6"],
        {"trips": ("zone_id", "fare"), "zones": ("zone_id", "borough")}),
    "uncertain_predicate": (
        "SELECT AVG(fare) AS f FROM trips "
        "WHERE distance > (SELECT AVG(distance) FROM trips)",
        {"trips": ("distance", "fare")}),
    "correlated_slot_key": (
        TPCH_QUERIES["Q17"],
        {"tpch": ("l_partkey", "l_quantity", "l_extendedprice",
                  "container")}),
    "group_by": (
        "SELECT day, COUNT(*) AS n FROM trips GROUP BY day ORDER BY day",
        {"trips": ("day",)}),
    "aggregate_argument": (
        "SELECT SUM(passengers) AS p FROM trips",
        {"trips": ("passengers",)}),
    "no_column": (
        "SELECT COUNT(*) AS n FROM trips",
        {"trips": ()}),
}


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """The in-memory tables and their colstore conversions."""
    tmp = tmp_path_factory.mktemp("projection")
    taxi = generate_taxi(ROWS, seed=3)
    tables = {"trips": taxi["trips"], "zones": taxi["zones"],
              "tpch": generate_tpch(ROWS, seed=3)}
    paths = {}
    for name, table in tables.items():
        paths[name] = tmp / name
        convert_table(table, paths[name], num_batches=CONFIG.num_batches,
                      seed=CONFIG.seed)
    return tables, paths


def _sessions(sources):
    tables, paths = sources
    mem, col = GolaSession(CONFIG), GolaSession(CONFIG)
    for name in tables:
        streamed = name != "zones"
        mem.register_table(name, tables[name], streamed=streamed)
        col.register_colstore(name, paths[name], streamed=streamed)
    return mem, col


@pytest.fixture
def reads(monkeypatch):
    """Every batch a controller reads and every partition decode."""
    seen = {"batches": [], "decoded": defaultdict(set)}
    batch, read_table = QueryController._batch, PartitionReader.read_table

    def spy_batch(self, name, j):
        out = batch(self, name, j)
        seen["batches"].append((name, j, tuple(out.schema.names)))
        return out

    def spy_read_table(self, columns=None):
        out = read_table(self, columns)
        seen["decoded"][Path(self.path).parent.name].add(
            tuple(out.schema.names))
        return out

    monkeypatch.setattr(QueryController, "_batch", spy_batch)
    monkeypatch.setattr(PartitionReader, "read_table", spy_read_table)
    return seen


def _in_schema_order(tables, expected):
    return {name: tuple(n for n in tables[name].schema.names if n in cols)
            for name, cols in expected.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_scan_reads_only_its_columns(case, sources, reads):
    sql, expected = CASES[case]
    expected = _in_schema_order(sources[0], expected)
    mem, col = _sessions(sources)

    mem_snaps = list(mem.sql(sql).run_online())
    mem_batches = list(reads["batches"])
    assert reads["decoded"] == {}
    col_snaps = list(col.sql(sql).run_online())
    exact = col.execute_batch(sql)

    # Decoded: exactly the projected columns, online and exact.
    assert dict(reads["decoded"]) == {
        name: {cols} for name, cols in expected.items()}
    # Streamed batches are projected on both paths.
    for name, _, cols in reads["batches"]:
        assert cols == expected[name]
    assert reads["batches"][len(mem_batches):] == mem_batches
    # Colstore streams the in-memory stream bit for bit.
    assert snapshot_fingerprint(col_snaps) == snapshot_fingerprint(
        mem_snaps)
    # Both end on the exact answer; the exact engine projects too.
    assert compare_tables(exact, col_snaps[-1].table, rtol=1e-9) == []
    assert compare_tables(mem.execute_batch(sql), mem_snaps[-1].table,
                          rtol=1e-9) == []
    if case == "no_column":
        # Zero-column batches still carry their rows.
        assert exact.column("n")[0] == ROWS
        assert mem_snaps[-1].table.column("n")[0] == ROWS

    if case == "uncertain_predicate":
        # A guard rebuild re-read batches 1..i, at the same width.
        assert any(s.rebuilds for s in mem_snaps)
        firsts = {(name, j) for name, j, _ in mem_batches}
        assert len(mem_batches) > len(firsts)


@pytest.mark.parametrize("colstore", [False, True])
def test_column_free_uncertain_predicate_counts_every_row(colstore,
                                                          sources):
    """The main block classifies a predicate that reads no column of its
    rows, so its candidates' lineage is a zero-column table: it must
    keep the candidates' row count (it once classified none of them
    and streamed 0)."""
    sql = ("SELECT COUNT(*) AS n FROM trips "
           "WHERE (SELECT AVG(distance) FROM trips) > 0.0")
    session = _sessions(sources)[colstore]
    snaps = list(session.sql(sql).run_online())
    assert [s.table.column("n")[0] for s in snaps] == [ROWS] * len(snaps)
    assert session.execute_batch(sql).column("n")[0] == ROWS


def test_explain_names_each_scans_columns(sources):
    mem, _ = _sessions(sources)
    text = mem.sql(TAXI_QUERIES["T6"]).explain()
    assert "Scan(trips: zone_id, fare)" in text
    assert "Scan(zones: zone_id, borough)" in text
    text = mem.sql(TPCH_QUERIES["Q17"]).explain()
    assert text.count(
        "Scan(tpch: l_partkey, l_quantity, l_extendedprice, container)"
    ) == 2
    assert "Scan(trips: no columns)" in mem.sql(
        "SELECT COUNT(*) FROM trips").explain()
