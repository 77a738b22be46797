"""Unit tests for per-block delta maintenance (BlockRuntime internals)."""

import numpy as np
import pytest

from repro import GolaConfig
from repro.core.delta import BlockRuntime, CachedRows, parse_block
from repro.core.folds import _bump_counts
from repro.core.guards import BlockGuards
from repro.core.uncertain import ScalarSlotState
from repro.errors import UnsupportedQueryError
from repro.estimate import VariationRange
from repro.expr.expressions import Environment
from repro.plan import bind_statement, lineage_blocks
from repro.sql import parse_sql
from repro.storage import Catalog, Schema, Table


@pytest.fixture
def fact():
    rng = np.random.default_rng(1)
    n = 400
    return Table.from_columns(
        {
            "k": rng.integers(0, 10, n).astype(np.int64),
            "x": rng.normal(10.0, 3.0, n),
            "y": rng.exponential(5.0, n),
        }
    )


def build_runtime(sql, fact, **config_kwargs):
    cat = Catalog()
    cat.register("fact", fact, streamed=True)
    query = bind_statement(parse_sql(sql), cat)
    blocks = lineage_blocks(query)
    config = GolaConfig(num_batches=4, bootstrap_trials=16, seed=1,
                        **config_kwargs)
    runtimes = {}
    for block in blocks:
        spec = query.subqueries.get(block.produces) \
            if block.produces is not None else None
        runtimes[block.block_id] = BlockRuntime(block, spec, config, {})
    return query, blocks, runtimes, config


class TestParseBlock:
    def test_simple_chain(self, fact):
        query, blocks, runtimes, _ = build_runtime(
            "SELECT AVG(x) FROM fact WHERE y > 1", fact
        )
        pipe = runtimes["main"].pipeline
        assert pipe.scan.table_name == "fact"
        assert len(pipe.certain_steps) == 1
        assert not pipe.uncertain_predicates

    def test_uncertain_conjunct_split(self, fact):
        query, blocks, runtimes, _ = build_runtime(
            "SELECT AVG(x) FROM fact WHERE y > 1 AND x > "
            "(SELECT AVG(x) FROM fact)",
            fact,
        )
        pipe = runtimes["main"].pipeline
        assert len(pipe.certain_steps) == 1
        assert len(pipe.uncertain_predicates) == 1

    def test_non_aggregate_rejected(self, fact):
        cat = Catalog()
        cat.register("fact", fact)
        query = bind_statement(parse_sql("SELECT x FROM fact"), cat)
        with pytest.raises(UnsupportedQueryError, match="aggregate"):
            parse_block(query.plan)

    def test_lineage_columns_minimal(self, fact):
        query, blocks, runtimes, _ = build_runtime(
            "SELECT AVG(x) FROM fact WHERE y > "
            "(SELECT AVG(y) FROM fact)",
            fact,
        )
        # Only the predicate column (y) is lineage; x is precomputed.
        assert runtimes["main"]._needed_columns == ["y"]


class TestCachedRows:
    def test_size_survives_empty_schema(self):
        # No predicate lineage needed: a zero-column table of 3 rows.
        rows = CachedRows(
            table=Table(Schema([]), {}, num_rows=3),
            weights=np.ones((3, 2)),
            group_idx=np.zeros(3, dtype=np.int64),
            values={"a": np.arange(3.0)},
        )
        assert rows.size == 3
        taken = rows.take(np.array([True, False, True]))
        assert taken.size == taken.table.num_rows == 2
        both = CachedRows.concat([rows, taken])
        assert both.size == both.table.num_rows == 5

    def test_concat(self):
        base = CachedRows(
            table=Table.from_columns({"c": np.array([1.0, 2.0])}),
            weights=np.ones((2, 2)),
            group_idx=np.zeros(2, dtype=np.int64),
            values={"a": np.array([1.0, 2.0])},
        )
        out = CachedRows.concat([base, base])
        assert out.size == 4
        assert out.values["a"].tolist() == [1.0, 2.0, 1.0, 2.0]


def drive(runtimes, blocks, query, fact, config, num_batches=4):
    """Minimal controller loop for unit-level driving."""
    from repro.estimate import PoissonWeightSource
    from repro.storage import MiniBatchPartitioner

    partitioner = MiniBatchPartitioner(num_batches, seed=config.seed)
    weights_src = PoissonWeightSource(config.bootstrap_trials, config.seed)
    seen = []
    history = []
    for i, batch in enumerate(partitioner.partition(fact), start=1):
        weights = weights_src.weights_for(batch.num_rows)
        seen.append((batch, weights))
        scale = num_batches / i
        penv = Environment()
        slot_states = {}
        snapshot_stats = {}
        for block in blocks:
            runtime = runtimes[block.block_id]
            stats = runtime.process_batch(
                i, batch, weights, slot_states, penv, lambda: seen
            )
            snapshot_stats[block.block_id] = stats
            if block.produces is not None:
                state = runtime.publish(penv, slot_states, scale)
                slot_states[block.produces] = state
                state.bind_point(penv)
        history.append((snapshot_stats, dict(slot_states), penv, scale))
    return history


class TestBumpCounts:
    def test_matches_unbuffered_scatter(self):
        """Repeated indices count every occurrence; the array grows to
        the largest index and keeps what it held."""
        rng = np.random.default_rng(2)
        counts = np.array([3, 0, 7], dtype=np.int64)
        group_idx = rng.integers(0, 9, 200)
        want = np.concatenate([counts, np.zeros(6, dtype=np.int64)])
        np.add.at(want, group_idx, 1)
        got = _bump_counts(counts, group_idx)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want[: group_idx.max() + 1])
        # Indices below the current length leave the length alone.
        before = got.copy()
        again = _bump_counts(got, np.array([0, 0, 2]))
        np.testing.assert_array_equal(again[:3] - before[:3], [2, 0, 1])
        np.testing.assert_array_equal(again[3:], before[3:])
        assert _bump_counts(again, np.empty(0, dtype=np.int64)) is again


class TestBlockRuntimeMechanics:
    def test_uncertain_cache_bounded(self, fact):
        query, blocks, runtimes, config = build_runtime(
            "SELECT AVG(y) FROM fact WHERE x > (SELECT AVG(x) FROM fact)",
            fact,
        )
        history = drive(runtimes, blocks, query, fact, config)
        final_stats = history[-1][0]["main"]
        assert final_stats.uncertain_size < fact.num_rows * 0.5

    def test_candidates_are_delta_plus_cache(self, fact):
        query, blocks, runtimes, config = build_runtime(
            "SELECT AVG(y) FROM fact WHERE x > (SELECT AVG(x) FROM fact)",
            fact,
        )
        history = drive(runtimes, blocks, query, fact, config)
        for i in range(1, len(history)):
            stats = history[i][0]["main"]
            prev = history[i - 1][0]["main"]
            if not stats.rebuilt:
                assert stats.candidates == \
                    stats.rows_in + prev.uncertain_size

    def test_final_estimate_matches_exact(self, fact):
        query, blocks, runtimes, config = build_runtime(
            "SELECT AVG(y) FROM fact WHERE x > (SELECT AVG(x) FROM fact)",
            fact,
        )
        history = drive(runtimes, blocks, query, fact, config)
        _, slot_states, penv, scale = history[-1]
        table, _ = runtimes["main"].snapshot_output(penv, slot_states, 1.0)
        inner = fact["x"].mean()
        expected = fact["y"][fact["x"] > inner].mean()
        assert float(table.column(table.schema.names[0])[0]) == \
            pytest.approx(expected, rel=1e-9)

    def test_publish_scalar_state(self, fact):
        query, blocks, runtimes, config = build_runtime(
            "SELECT AVG(y) FROM fact WHERE x > (SELECT AVG(x) FROM fact)",
            fact,
        )
        history = drive(runtimes, blocks, query, fact, config)
        _, slot_states, _, _ = history[-1]
        state = slot_states[0]
        assert isinstance(state, ScalarSlotState)
        assert state.vrange.contains(state.estimate)
        assert state.vrange.contains_all(state.replicas)
        assert state.estimate == pytest.approx(fact["x"].mean(), rel=1e-9)

    def test_guard_violation_with_retained_rebuilds(self, fact,
                                                    monkeypatch):
        query, blocks, runtimes, config = build_runtime(
            "SELECT AVG(y) FROM fact WHERE x > (SELECT AVG(x) FROM fact)",
            fact,
        )
        main = runtimes["main"]
        monkeypatch.setattr(BlockGuards, "violation",
                            lambda guards, ienv: "forced")
        state = ScalarSlotState(
            slot=0, estimate=10.0, replicas=np.array([9.5, 10.5]),
            vrange=VariationRange(9.0, 11.0),
        )
        weights = np.ones((fact.num_rows, config.bootstrap_trials))
        stats = main.process_batch(
            1, fact, weights, {0: state}, Environment(),
            lambda: [(fact, weights)],
        )
        assert stats.rebuilt and stats.rebuild_rows == fact.num_rows
        assert main.recompute_count == 1

    def test_grouped_snapshot_only_present_groups(self, fact):
        query, blocks, runtimes, config = build_runtime(
            "SELECT k, COUNT(*) AS n FROM fact "
            "WHERE x > (SELECT AVG(x) FROM fact) GROUP BY k",
            fact,
        )
        history = drive(runtimes, blocks, query, fact, config)
        _, slot_states, penv, _ = history[-1]
        table, _ = runtimes["main"].snapshot_output(penv, slot_states, 1.0)
        inner = fact["x"].mean()
        mask = fact["x"] > inner
        expected_groups = set(np.unique(fact["k"][mask]).tolist())
        got = set(int(v) for v in table.column("k"))
        assert got == expected_groups

    def test_stats_history_recorded(self, fact):
        query, blocks, runtimes, config = build_runtime(
            "SELECT AVG(y) FROM fact WHERE x > (SELECT AVG(x) FROM fact)",
            fact,
        )
        drive(runtimes, blocks, query, fact, config)
        assert len(runtimes["main"].stats_history) == 4
        assert all(s.batch_index == i + 1
                   for i, s in enumerate(runtimes["main"].stats_history))
