"""Colstore acceptance: converted datasets are invisible in the answers.

For every paper query the snapshot stream from a converted on-disk
dataset must be **bit-identical** to the in-memory path, serially and
on a 4-worker pool, with the footer zone maps as written and stripped
(``prune``/``noprune``, see ``_zones``): decoding a stored partition
may never change a mask, a weight draw or an estimate.
"""

import dataclasses

import numpy as np
import pytest

from repro import GolaConfig, GolaSession
from repro.config import ParallelConfig
from repro.qa.identity import snapshot_fingerprint
from repro.storage.colstore import convert_table
from repro import workloads

from ._zones import strip_zone_maps

ROWS = 6000
BATCHES = 5
SEED = 2015

QUERY_CASES = {
    "sbi": ("sessions", workloads.generate_sessions,
            workloads.SBI_QUERY),
    "c3": ("conviva", workloads.generate_conviva,
           workloads.CONVIVA_QUERIES["C3"]),
    "q17": ("tpch", workloads.generate_tpch,
            workloads.TPCH_QUERIES["Q17"]),
    "q20": ("tpch", workloads.generate_tpch,
            workloads.TPCH_QUERIES["Q20"]),
}


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """One converted dataset per workload table, shared by all cases."""
    root = tmp_path_factory.mktemp("colstore-identity")
    out = {}
    for table_name, generate, _ in QUERY_CASES.values():
        if table_name in out:
            continue
        table = generate(ROWS, seed=SEED)
        path = root / table_name
        convert_table(table, path, num_batches=BATCHES, seed=SEED,
                      shuffle=True)
        out[table_name] = (table, path)
    return out


@pytest.fixture(scope="module")
def stripped(datasets, tmp_path_factory):
    """Each dataset's copy with no zone maps in its footers."""
    root = tmp_path_factory.mktemp("colstore-identity-noprune")
    return {name: strip_zone_maps(path, root / name)
            for name, (_, path) in datasets.items()}


def _config(workers: int) -> GolaConfig:
    parallel = (ParallelConfig(workers=workers, min_shard_rows=64)
                if workers > 1 else ParallelConfig())
    return GolaConfig(
        num_batches=BATCHES, seed=SEED, bootstrap_trials=24,
        parallel=parallel,
    )


def _stream_fp(config, table_name, source, sql, colstore: bool):
    session = GolaSession(config)
    if colstore:
        session.register_colstore(table_name, source)
    else:
        session.register_table(table_name, source)
    return snapshot_fingerprint(session.sql(sql).run_online())


@pytest.mark.parametrize("name", sorted(QUERY_CASES))
@pytest.mark.parametrize("zone_maps", [True, False],
                         ids=["prune", "noprune"])
@pytest.mark.parametrize("workers", [1, 4], ids=["serial", "pool4"])
def test_snapshot_stream_bit_identity(datasets, stripped, name, zone_maps,
                                      workers):
    table_name, _, sql = QUERY_CASES[name]
    table, path = datasets[table_name]
    if not zone_maps:
        path = stripped[table_name]
    config = _config(workers)
    mem_fp = _stream_fp(config, table_name, table, sql, colstore=False)
    cs_fp = _stream_fp(config, table_name, path, sql, colstore=True)
    assert cs_fp == mem_fp, (
        f"{name}: colstore stream diverged from in-memory "
        f"(zone_maps={zone_maps}, workers={workers})"
    )


def test_batch_engine_matches_source_table(datasets):
    """to_table() inverts the stored permutation: batch results match."""
    table_name, _, sql = QUERY_CASES["c3"]
    table, path = datasets[table_name]
    config = _config(1)

    mem = GolaSession(config)
    mem.register_table(table_name, table)
    expected = mem.execute_batch(sql)

    cs = GolaSession(config)
    cs.register_colstore(table_name, path)
    got = cs.execute_batch(sql)
    assert got.schema.names == expected.schema.names
    for col in expected.schema.names:
        a, b = expected.column(col), got.column(col)
        if a.dtype == object:
            assert a.tolist() == b.tolist()
        else:
            np.testing.assert_array_equal(a, b)


def test_mismatched_config_falls_back_to_repartition(datasets):
    """A dataset stored under other knobs still answers correctly."""
    table_name, _, sql = QUERY_CASES["sbi"]
    table, path = datasets[table_name]
    config = dataclasses.replace(_config(1), num_batches=4)
    mem_fp = _stream_fp(config, table_name, table, sql, colstore=False)
    cs_fp = _stream_fp(config, table_name, path, sql, colstore=True)
    assert cs_fp == mem_fp
