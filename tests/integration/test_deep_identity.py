"""Deep query-surface acceptance over the taxi workload.

Every new construct — window functions, DISTINCT aggregates, quantile
CIs, multi-fact joins, NaN-heavy columns — runs the same identity
matrix the colstore PR established for the paper queries: the snapshot
stream from converted on-disk datasets must be **bit-identical** to the
in-memory path (footer zone maps as written and stripped —
``prune``/``noprune``, see ``_zones`` — serially and on a 4-worker pool),
and the serve scheduler's finished-run table must agree with a plain
serial run.  Multi-fact queries convert *both* streamed facts.
"""

import numpy as np
import pytest

from repro import GolaConfig, GolaSession
from repro.config import ParallelConfig
from repro.qa.identity import snapshot_fingerprint
from repro.storage.colstore import convert_table
from repro.workloads.taxi import QUERIES, generate_taxi

from ._zones import strip_zone_maps

ROWS = 4000  # <= quantile reservoir capacity: every path sees all rows
BATCHES = 4
SEED = 2015

QUERY_CASES = {
    "window_cum": QUERIES["T1"],
    "window_frame": QUERIES["T2"],
    "distinct_grouped": QUERIES["T3"],
    "distinct_filtered": QUERIES["T4"],
    "quantile_grouped": QUERIES["T5"],
    "quantile_join": QUERIES["T6"],
    "multifact_keyed": QUERIES["T7"],
    "multifact_scalar": QUERIES["T8"],
    "nullish_filter": QUERIES["T9"],
    "window_count": QUERIES["T10"],
}

STREAMED = ("trips", "surcharges")
STATIC = ("zones", "vendors")


@pytest.fixture(scope="module")
def taxi():
    return generate_taxi(ROWS, seed=SEED)


@pytest.fixture(scope="module")
def datasets(taxi, tmp_path_factory):
    """Both streamed facts converted once, shared by every case."""
    root = tmp_path_factory.mktemp("deep-identity")
    out = {}
    for name in STREAMED:
        path = root / name
        convert_table(taxi[name], path, num_batches=BATCHES, seed=SEED,
                      shuffle=True)
        out[name] = path
    return out


@pytest.fixture(scope="module")
def stripped(datasets, tmp_path_factory):
    """Both converted facts copied with no zone maps in their footers."""
    root = tmp_path_factory.mktemp("deep-identity-noprune")
    return {name: strip_zone_maps(path, root / name)
            for name, path in datasets.items()}


def _config(workers: int) -> GolaConfig:
    parallel = (ParallelConfig(workers=workers, min_shard_rows=64)
                if workers > 1 else ParallelConfig())
    return GolaConfig(
        num_batches=BATCHES, seed=SEED, bootstrap_trials=16,
        parallel=parallel,
    )


def _session(taxi, config, datasets=None) -> GolaSession:
    session = GolaSession(config)
    for name in STREAMED:
        if datasets is not None:
            session.register_colstore(name, datasets[name])
        else:
            session.register_table(name, taxi[name])
    for name in STATIC:
        session.register_table(name, taxi[name], streamed=False)
    return session


@pytest.mark.parametrize("name", sorted(QUERY_CASES))
@pytest.mark.parametrize("zone_maps", [True, False],
                         ids=["prune", "noprune"])
@pytest.mark.parametrize("workers", [1, 4], ids=["serial", "pool4"])
def test_snapshot_stream_bit_identity(taxi, datasets, stripped, name,
                                      zone_maps, workers):
    sql = QUERY_CASES[name]
    config = _config(workers)
    mem = _session(taxi, config)
    mem_fp = snapshot_fingerprint(mem.sql(sql).run_online())
    cs = _session(taxi, config,
                  datasets=datasets if zone_maps else stripped)
    cs_fp = snapshot_fingerprint(cs.sql(sql).run_online())
    assert cs_fp == mem_fp, (
        f"{name}: colstore stream diverged from in-memory "
        f"(zone_maps={zone_maps}, workers={workers})"
    )


def _assert_tables_close(a, b):
    assert a.schema.names == b.schema.names
    assert a.num_rows == b.num_rows
    for col in a.schema.names:
        x, y = a.column(col), b.column(col)
        if x.dtype == object:
            assert x.tolist() == y.tolist()
        else:
            np.testing.assert_allclose(
                x.astype(float), y.astype(float),
                rtol=1e-9, atol=1e-12, equal_nan=True,
            )


@pytest.mark.parametrize("name", sorted(QUERY_CASES))
def test_parallel_pool_matches_serial(taxi, name):
    sql = QUERY_CASES[name]
    serial = _session(taxi, _config(1))
    pooled = _session(taxi, _config(4))
    _assert_tables_close(
        serial.sql(sql).run_to_completion().table,
        pooled.sql(sql).run_to_completion().table,
    )


@pytest.mark.parametrize("name", sorted(QUERY_CASES))
def test_serve_final_table_matches_serial(taxi, name):
    from repro.serve import QueryScheduler

    sql = QUERY_CASES[name]
    serial = _session(taxi, _config(1))
    expected = serial.sql(sql).run_to_completion().table

    served = _session(taxi, _config(1))
    scheduler = QueryScheduler(served)
    try:
        run = scheduler.submit(sql, config=served.config)
        scheduler.wait(run.id, timeout=120.0)
        assert run.state == "done" and run.last_snapshot is not None, (
            f"serve run ended {run.state!r}: {run.error}"
        )
        _assert_tables_close(expected, run.last_snapshot.table)
    finally:
        scheduler.close()
