"""The session's batch store: each streamed table planned and weighted once.

Every query of a session reads the same batch plan and the same uint8
weight rectangles of a streamed table.  The store keeps one entry per
table (its latest batch plan and weight set, no batch), drops it when
the table is re-registered, and shows what it holds on
``session.store_bytes``.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro import GolaConfig, GolaSession
from repro.core.store import BatchStore
from repro.estimate.bootstrap import BatchWeights, stream_label
from repro.obs import MetricsRegistry, Tracer
from repro.storage import convert_table
from repro.storage.colstore import ColstoreDataset
from repro.storage.table import table_bytes
from repro.workloads import (
    SBI_QUERY,
    TPCH_QUERIES,
    generate_conviva,
    generate_sessions,
    generate_tpch,
)

ROWS = 6000
CONFIG = GolaConfig(num_batches=4, bootstrap_trials=16, seed=5)


def _session(tracer=None):
    session = GolaSession(CONFIG, tracer=tracer)
    session.register_table("sessions", generate_sessions(ROWS, seed=7))
    session.register_table("conviva", generate_conviva(ROWS, seed=7))
    return session


def _config(**changes):
    return dataclasses.replace(CONFIG, **changes)


def _metered():
    return Tracer(metrics=MetricsRegistry(enabled=True))


def _plan_bytes(session, name):
    """A shuffled entry's plan: one int64 permutation slot per row."""
    return 8 * session.catalog.get(name).num_rows


class TestSessionSharing:
    def test_sequential_queries_share_partitions_and_weights(self):
        tracer = _metered()
        session = _session(tracer)
        seen = []
        # VAR keeps bootstrap replicas (a flat AVG would read no weight).
        for sql in (SBI_QUERY, "SELECT VAR(play_time) FROM sessions"):
            controller = session._make_controller(session.sql(sql).query,
                                                  session.config)
            controller.begin()
            seen.append(controller._exec["batches"]["sessions"])
            while controller.step() is not None:
                pass
            controller.release()
            if len(seen) == 1:
                drawn = tracer.metrics.snapshot().counters[
                    "bootstrap.columns_drawn"]
        assert seen[1] is seen[0]
        # The entry gathers from the registered table: no copy of it.
        assert seen[0].source is session.catalog.get("sessions")
        counters = tracer.metrics.snapshot().counters
        assert counters["bootstrap.columns_drawn"] == drawn
        assert session.batch_store.stats["misses"] == 1
        assert session.batch_store.stats["hits"] == 1

    def test_reregistering_empties_the_entry(self):
        tracer = _metered()
        session = GolaSession(CONFIG, tracer=tracer)
        session.register_table("sessions", generate_sessions(ROWS, seed=7))
        session.sql(SBI_QUERY).run_to_completion()
        assert session.batch_store.stats["entries"] == 1
        assert session.batch_store.nbytes > 0
        session.register_table("sessions", generate_sessions(ROWS, seed=8),
                               replace=True)
        assert session.batch_store.stats["entries"] == 0
        assert session.batch_store.nbytes == 0
        assert tracer.metrics.snapshot().gauges["session.store_bytes"] == 0

    def test_new_num_batches_replaces_the_entry(self):
        session = _session()
        sbi = session.sql(SBI_QUERY)
        sbi.run_to_completion()
        sbi.run_to_completion(_config(num_batches=6))
        store = session.batch_store
        assert store.stats["entries"] == 1
        assert store.stats["misses"] == 2
        assert store.nbytes == (_plan_bytes(session, "sessions")
                                + ROWS * CONFIG.bootstrap_trials)


class TestStoreBound:
    def test_gauge_holds_the_latest_weight_set_per_table(self):
        tracer = _metered()
        session = _session(tracer)
        store = session.batch_store

        def gauge():
            return tracer.metrics.snapshot().gauges["session.store_bytes"]

        sbi = session.sql(SBI_QUERY)
        for seed, trials in ((5, 16), (6, 16), (6, 24), (7, 12)):
            sbi.run_to_completion(_config(seed=seed,
                                          bootstrap_trials=trials))
        sessions_bytes = _plan_bytes(session, "sessions")
        assert gauge() == sessions_bytes + ROWS * 12 == store.nbytes
        # VAR keeps bootstrap replicas (a flat AVG would draw nothing).
        session.sql("SELECT VAR(play_time) FROM conviva") \
            .run_to_completion()
        conviva_bytes = _plan_bytes(session, "conviva")
        assert gauge() == (sessions_bytes + ROWS * 12
                           + conviva_bytes + ROWS * 16)

        session.register_table("sessions", generate_sessions(ROWS, seed=8),
                               replace=True)
        assert gauge() == conviva_bytes + ROWS * 16 == store.nbytes
        session.register_table("conviva", generate_conviva(ROWS, seed=8),
                               replace=True)
        assert gauge() == 0

    def test_stored_rectangles_are_read_only(self):
        store = BatchStore()
        rect = BatchWeights(4, 1, "w", 0, 100, store=store).dense()
        assert not rect.flags.writeable
        assert rect.flags["F_CONTIGUOUS"] and rect.shape == (100, 4)
        with pytest.raises(ValueError):
            rect[0, 0] = 3

    def test_concurrent_readers_draw_each_rectangle_once(self):
        """Sibling blocks read one batch's rectangle from several
        threads: exactly one of them draws it, all get the same one."""
        store = BatchStore()
        tracer = _metered()
        batches, trials, rows = 6, 8, 3000
        got = [[] for _ in range(batches)]
        start = threading.Barrier(4)

        def reader():
            start.wait()
            for step in range(3 * batches):
                b = step % batches
                handle = BatchWeights(trials, 4, "w", b, rows, store=store,
                                      metrics=tracer.metrics)
                got[b].append(handle.dense())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        counters = tracer.metrics.snapshot().counters
        assert counters["bootstrap.columns_drawn"] == batches * trials
        assert store.nbytes == batches * trials * rows
        for b, rects in enumerate(got):
            assert all(r is rects[0] for r in rects)
            assert np.array_equal(
                rects[0], BatchWeights(trials, 4, "w", b, rows).dense())

    def test_another_partitioning_restarts_the_set(self):
        store = BatchStore()
        table = generate_sessions(1000, seed=1)
        label = stream_label("t")
        four = store.partitions("t", table, _config(num_batches=4))
        for i in range(4):
            BatchWeights(4, 1, label, i, four.batch(i, []).num_rows,
                         store=store).dense()
        assert store.nbytes == 8 * 1000 + 4 * 1000
        two = store.partitions("t", table, _config(num_batches=2))
        assert two.plan.num_batches == 2
        assert store.nbytes == 8 * 1000
        assert store.stats == {"entries": 1, "hits": 0, "misses": 2,
                               "bytes": 8 * 1000}

    def test_a_rectangle_of_another_length_is_drawn_not_stored(self):
        store = BatchStore()
        kept = BatchWeights(4, 1, "w", 0, 100, store=store).dense()
        other = BatchWeights(4, 1, "w", 0, 150, store=store).dense()
        assert other.shape == (150, 4)
        assert np.array_equal(other, BatchWeights(4, 1, "w", 0, 150).dense())
        assert store.nbytes == 400
        assert BatchWeights(4, 1, "w", 0, 100, store=store).dense() is kept

    def test_racing_threads_get_one_list(self):
        store = BatchStore()
        table = generate_sessions(20_000, seed=3)
        start = threading.Barrier(8)
        got = []

        def cut():
            start.wait()
            got.append(store.partitions("sessions", table, CONFIG))

        threads = [threading.Thread(target=cut) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert len(got) == 8
        assert all(batches is got[0] for batches in got)
        assert store.stats["misses"] == 1 and store.stats["hits"] == 7


class TestColstore:
    def test_matching_dataset_streams_as_stored(self, tmp_path):
        table = generate_sessions(2000, seed=2)
        dataset = convert_table(table, tmp_path / "ds", CONFIG.num_batches,
                                seed=CONFIG.seed)
        store = BatchStore()
        assert store.partitions("sessions", dataset, CONFIG) is dataset
        assert store.stats == {"entries": 0, "hits": 0, "misses": 0,
                               "bytes": 0}

    def test_mismatched_dataset_is_cut_and_stored(self, tmp_path):
        table = generate_sessions(2000, seed=2)
        dataset = convert_table(table, tmp_path / "ds", 5, seed=CONFIG.seed)
        assert isinstance(dataset, ColstoreDataset)
        store = BatchStore()
        entry = store.partitions("sessions", dataset, CONFIG)
        assert entry.plan.num_batches == 4
        assert store.partitions("sessions", dataset, CONFIG) is entry
        assert store.stats["misses"] == 1 and store.stats["hits"] == 1
        # The store alone holds the materialized table, so it counts.
        assert store.nbytes == table_bytes(entry.source) + 8 * 2000


def _parent_partition(table, num_batches, seed, shuffle):
    """The partition list a store entry used to hold: the whole table
    gathered through the permutation once, then sliced."""
    rng = np.random.default_rng(seed)
    n = table.num_rows
    edges = np.linspace(0, n, num_batches + 1).astype(np.int64)
    bounds = [(int(edges[i]), int(edges[i + 1]))
              for i in range(num_batches)]
    if shuffle:
        shuffled = table.take(rng.permutation(n))
        return [shuffled.slice(lo, hi) for lo, hi in bounds]
    return [table.slice(*bounds[i]) for i in rng.permutation(num_batches)]


def _assert_bitwise(got, want):
    assert got.schema == want.schema and got.num_rows == want.num_rows
    for name in want.schema.names:
        a, b = got.column(name), want.column(name)
        assert a.dtype == b.dtype
        if a.dtype == object:
            assert all(x is y for x, y in zip(a, b))
        else:
            assert a.tobytes() == b.tobytes()


class TestGatheredBatches:
    """The entry holds a permutation, not a shuffled copy: each read
    gathers the query's columns, bit for bit the old partition's."""

    @pytest.mark.parametrize("shuffle", [True, False])
    def test_step_and_rebuild_read_the_parent_batches(self, shuffle):
        config = _config(num_batches=5, shuffle=shuffle)
        table = generate_tpch(3000, seed=4)
        session = GolaSession(config)
        session.register_table("tpch", table)
        query = session.sql(TPCH_QUERIES["Q17"]).query
        columns = query.scan_columns["tpch"]
        assert 0 < len(columns) < len(table.schema)
        want = [b.select(columns) for b in _parent_partition(
            table, 5, config.seed, shuffle)]
        controller = session._make_controller(query, config)
        read = []
        batch = controller._batch

        def spy(name, j):
            read.append((j, batch(name, j)))
            return read[-1][1]

        controller._batch = spy
        controller.begin()
        while controller.step() is not None:
            pass
        # Every step and every rebuild of the run reads through _batch.
        assert sorted(set(j for j, _ in read)) == list(range(5))
        for j, got in read:
            _assert_bitwise(got, want[j])
        # A forced rebuild re-reads batches 1..5 the same way.
        controller._batch = batch
        seen = controller._seen("tpch", 5)
        assert len(seen) == 5
        for (got, _), expected in zip(seen, want):
            _assert_bitwise(got, expected)
        if not shuffle:
            # Slice views of the registered columns: nothing copied.
            assert all(np.shares_memory(got.column(c), table.column(c))
                       for got, _ in seen for c in columns)
        controller.release()

    def test_wide_table_entry_holds_permutation_and_weights(self):
        tracer = _metered()
        session = GolaSession(CONFIG, tracer=tracer)
        table = generate_tpch(ROWS, seed=4)
        assert len(table.schema) == 13
        session.register_table("tpch", table)
        session.sql(TPCH_QUERIES["Q17"]).run_to_completion()
        want = 8 * ROWS + CONFIG.bootstrap_trials * ROWS
        assert session.batch_store.nbytes == want
        assert tracer.metrics.snapshot().gauges["session.store_bytes"] \
            == want
