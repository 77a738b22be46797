"""Unit tests for the colstore partition format and dataset layer."""

import json

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage import Table
from repro.storage.colstore import (
    ColstoreDataset,
    PartitionReader,
    convert_table,
    open_dataset,
    write_partition,
)
from repro.storage.colstore.codecs import CODECS, decode_column, encode_column
from repro.storage.colstore.dataset import is_dataset_dir
from repro.faults.quarantine import RowQuarantine
from repro.storage.table import ColumnType


def sample_table(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    return Table.from_columns({
        "i": rng.integers(-500, 500, n).astype(np.int64),
        "f": rng.normal(0.0, 10.0, n),
        "b": rng.random(n) < 0.5,
        "s": np.array([f"cat_{v}" for v in rng.integers(0, 7, n)],
                      dtype=object),
    })


def assert_tables_equal(a: Table, b: Table):
    assert a.schema.names == b.schema.names
    for name in a.schema.names:
        x, y = a.column(name), b.column(name)
        assert x.dtype == y.dtype, name
        if x.dtype == object:
            assert x.tolist() == y.tolist(), name
        else:
            np.testing.assert_array_equal(
                x.view(np.uint8), y.view(np.uint8), err_msg=name
            )


class TestPartitionFile:
    @pytest.mark.parametrize("codec", ("auto",) + CODECS)
    def test_round_trip_all_codecs(self, tmp_path, codec):
        table = sample_table()
        path = tmp_path / "p.gcp"
        write_partition(path, table, codec=codec, chunk_rows=128)
        assert_tables_equal(table, PartitionReader(path).read_table())

    def test_segments_are_64_byte_aligned(self, tmp_path):
        path = tmp_path / "p.gcp"
        footer = write_partition(path, sample_table(), chunk_rows=128)
        offsets = [seg["offset"] for col in footer["columns"]
                   for seg in col["segments"]]
        assert offsets, "expected at least one segment"
        assert all(off % 64 == 0 for off in offsets)

    def test_nan_payloads_survive(self, tmp_path):
        f = np.array([1.5, np.nan, np.nan, -0.0, 2.5] * 50)
        table = Table.from_columns({"f": f})
        path = tmp_path / "p.gcp"
        write_partition(path, table, chunk_rows=16)
        out = PartitionReader(path).read_table()
        np.testing.assert_array_equal(
            out.column("f").view(np.uint8), f.view(np.uint8)
        )

    def test_zone_maps_in_footer(self, tmp_path):
        table = Table.from_columns({
            "x": np.arange(100, dtype=np.int64),
        })
        path = tmp_path / "p.gcp"
        write_partition(path, table, chunk_rows=32)
        footer = PartitionReader(path).footer
        assert footer["chunk_rows"] == 32
        (column,) = footer["columns"]
        zones = column["zones"]
        assert [z["lo"] for z in zones] == [0, 32, 64, 96]
        assert [z["hi"] for z in zones] == [31, 63, 95, 99]
        assert [z["nulls"] for z in zones] == [0, 0, 0, 0]
        assert [z["distinct"] for z in zones] == [32, 32, 32, 4]

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "p.gcp"
        write_partition(path, sample_table(64))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StorageError):
            PartitionReader(path)

    def test_corrupt_magic_raises(self, tmp_path):
        path = tmp_path / "p.gcp"
        write_partition(path, sample_table(64))
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            PartitionReader(path)

    def test_mmap_columns_are_readonly_views(self, tmp_path):
        table = Table.from_columns({
            "i": np.arange(4096, dtype=np.int64),
        })
        path = tmp_path / "p.gcp"
        write_partition(path, table, codec="plain")
        out = PartitionReader(path).read_table()
        arr = out.column("i")
        assert not arr.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            arr[0] = 99


class TestCodecs:
    def test_delta_falls_back_on_wide_span(self):
        arr = np.array([-(2 ** 62), 2 ** 62, 0], dtype=np.int64)
        enc = encode_column(arr, ColumnType.INT64, "delta")
        assert enc.codec == "plain"

    def test_unknown_codec_raises(self):
        with pytest.raises(StorageError):
            encode_column(np.arange(3, dtype=np.int64),
                          ColumnType.INT64, "zstd")
        with pytest.raises(StorageError):
            decode_column("zstd", [], {}, ColumnType.INT64, 3)

    def test_meta_is_json_safe(self):
        table = sample_table(256)
        for name in table.schema.names:
            enc = encode_column(table.column(name),
                                table.schema.type_of(name), "auto")
            json.loads(json.dumps(enc.meta))


class TestDataset:
    def test_convert_and_reopen(self, tmp_path):
        table = sample_table(2000)
        out = tmp_path / "ds"
        convert_table(table, out, num_batches=5, seed=7, shuffle=True)
        assert is_dataset_dir(out)
        ds = open_dataset(out)
        assert isinstance(ds, ColstoreDataset)
        assert ds.num_rows == 2000
        assert ds.num_batches == 5
        assert len(ds.manifest["partitions"]) == 5
        assert sum(r["rows"] for r in ds.manifest["partitions"]) == 2000

    def test_to_table_inverts_shuffle(self, tmp_path):
        table = sample_table(1500)
        for shuffle in (True, False):
            path = tmp_path / f"ds-{shuffle}"
            ds = open_dataset(convert_table(
                table, path, num_batches=4, seed=3, shuffle=shuffle,
            ) and path)
            assert_tables_equal(table, ds.to_table())
            assert_tables_equal(table.select(["f"]), ds.to_table(["f"]))

    def test_batches_match_partitioner(self, tmp_path):
        from repro.storage.partition import MiniBatchPartitioner

        table = sample_table(1200)
        ds = open_dataset(convert_table(
            table, tmp_path / "ds", num_batches=3, seed=11, shuffle=True,
        ) and (tmp_path / "ds"))
        expected = MiniBatchPartitioner(3, seed=11,
                                        shuffle=True).partition(table)
        got = [ds.batch(i) for i in range(ds.num_batches)]
        assert len(got) == len(expected)
        for e, g in zip(expected, got):
            assert_tables_equal(e, g)

    def test_quarantine_round_trip(self, tmp_path):
        table = sample_table(400)
        quarantine = RowQuarantine(error_budget=0.1, label="unit")
        quarantine.add(3, "i", "x", "bad int")
        quarantine.add(9, "f", "oops", "bad float")
        quarantine.total_seen = 402
        convert_table(table, tmp_path / "ds", num_batches=2, seed=1,
                      shuffle=False, quarantine=quarantine)
        ds = open_dataset(tmp_path / "ds")
        rows = ds.quarantined_rows
        assert [r.line_number for r in rows] == [3, 9]
        assert rows[0].reason == "bad int"
        manifest = json.loads(
            (tmp_path / "ds" / "manifest.json").read_text()
        )
        assert manifest["quarantine"]["error_budget"] == 0.1
        assert manifest["quarantine"]["total_seen"] == 402

    def test_config_matches(self, tmp_path):
        from repro.config import GolaConfig

        ds = open_dataset(convert_table(
            sample_table(300), tmp_path / "ds", num_batches=4, seed=5,
            shuffle=True,
        ) and (tmp_path / "ds"))
        assert ds.config_matches(
            GolaConfig(num_batches=4, seed=5, shuffle=True)
        )
        assert not ds.config_matches(
            GolaConfig(num_batches=3, seed=5, shuffle=True)
        )
        assert not ds.config_matches(
            GolaConfig(num_batches=4, seed=6, shuffle=True)
        )

    def test_corrupted_partition_detected(self, tmp_path):
        convert_table(sample_table(500), tmp_path / "ds", num_batches=2,
                      seed=1, shuffle=False)
        ds = open_dataset(tmp_path / "ds")
        part = tmp_path / "ds" / ds.manifest["partitions"][0]["file"]
        data = bytearray(part.read_bytes())
        data[len(data) // 2] ^= 0xFF
        part.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            ds.verify()

    def test_batch_reads_on_demand(self, tmp_path, monkeypatch):
        convert_table(sample_table(900), tmp_path / "ds", num_batches=3,
                      seed=2, shuffle=False)
        ds = open_dataset(tmp_path / "ds")
        opened = []
        original = ds.reader

        def spy(index):
            opened.append(index)
            return original(index)

        monkeypatch.setattr(ds, "reader", spy)
        assert opened == []
        ds.batch(1)
        assert opened == [1]

    def test_batch_decodes_only_its_columns(self, tmp_path, monkeypatch):
        table = sample_table(900)
        convert_table(table, tmp_path / "ds", num_batches=3, seed=2,
                      shuffle=False)
        ds = open_dataset(tmp_path / "ds")
        full = ds.batch(2)
        mapped = []
        original = PartitionReader._segment

        def spy(reader, desc):
            mapped.append(desc["offset"])
            return original(reader, desc)

        monkeypatch.setattr(PartitionReader, "_segment", spy)
        out = ds.batch(2, ["s", "f"])
        assert out.schema.names == ["s", "f"]
        assert_tables_equal(full.select(["s", "f"]), out)
        wanted = [d["offset"] for c in ds.reader(2).footer["columns"]
                  if c["name"] in ("s", "f") for d in c["segments"]]
        assert sorted(mapped) == sorted(wanted)
        bare = ds.batch(2, [])
        assert bare.schema.names == [] and bare.num_rows == full.num_rows
        with pytest.raises(StorageError, match="no column"):
            ds.batch(2, ["nope"])
        projected = ds.to_table(["f"])
        assert_tables_equal(table.select(["f"]), projected)
        assert ds.select([]).num_rows == table.num_rows
