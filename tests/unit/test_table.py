"""Unit tests for the columnar Table/Schema substrate."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.storage import Column, ColumnType, Schema, Table


class TestColumnType:
    def test_infer_int(self):
        assert ColumnType.infer(np.array([1, 2])) is ColumnType.INT64

    def test_infer_float(self):
        assert ColumnType.infer(np.array([1.5])) is ColumnType.FLOAT64

    def test_infer_bool(self):
        assert ColumnType.infer(np.array([True])) is ColumnType.BOOL

    def test_infer_string(self):
        assert ColumnType.infer(np.array(["a"], dtype=object)) \
            is ColumnType.STRING

    def test_is_numeric(self):
        assert ColumnType.INT64.is_numeric
        assert ColumnType.FLOAT64.is_numeric
        assert not ColumnType.STRING.is_numeric
        assert not ColumnType.BOOL.is_numeric


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([Column("a", ColumnType.INT64),
                    Column("a", ColumnType.FLOAT64)])

    def test_field_lookup(self):
        s = Schema([Column("a", ColumnType.INT64)])
        assert s.field("a").ctype is ColumnType.INT64
        with pytest.raises(SchemaError, match="unknown column"):
            s.field("b")

    def test_select_preserves_order(self):
        s = Schema([Column("a", ColumnType.INT64),
                    Column("b", ColumnType.FLOAT64),
                    Column("c", ColumnType.STRING)])
        assert s.select(["c", "a"]).names == ["c", "a"]

    def test_contains_and_iter(self):
        s = Schema([Column("a", ColumnType.INT64)])
        assert "a" in s and "b" not in s
        assert [c.name for c in s] == ["a"]

    def test_empty_column_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", ColumnType.INT64)


class TestTableConstruction:
    def test_from_columns_infers(self, small_table):
        assert small_table.schema.type_of("id") is ColumnType.INT64
        assert small_table.schema.type_of("grp") is ColumnType.STRING
        assert small_table.schema.type_of("x") is ColumnType.FLOAT64
        assert small_table.schema.type_of("flag") is ColumnType.BOOL
        assert small_table.num_rows == 6

    def test_from_rows(self):
        schema = Schema([Column("a", ColumnType.INT64),
                         Column("b", ColumnType.STRING)])
        t = Table.from_rows([(1, "x"), (2, "y")], schema)
        assert t.num_rows == 2
        assert t.column("b").tolist() == ["x", "y"]

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError, match="ragged"):
            Table.from_columns({"a": np.array([1]), "b": np.array([1, 2])})

    def test_unicode_arrays_become_object(self):
        t = Table.from_columns({"s": np.array(["ab", "cd"])})
        assert t.column("s").dtype == object

    def test_empty(self):
        schema = Schema([Column("a", ColumnType.FLOAT64)])
        t = Table.empty(schema)
        assert t.num_rows == 0 and len(t) == 0

    def test_schema_mismatch_rejected(self):
        schema = Schema([Column("a", ColumnType.INT64)])
        with pytest.raises(SchemaError):
            Table(schema, {"b": np.array([1])})


class TestTableOps:
    def test_take_mask(self, small_table):
        out = small_table.take(small_table.column("x") > 3)
        assert out.column("id").tolist() == [4, 5, 6]

    def test_take_mask_length_checked(self, small_table):
        with pytest.raises(SchemaError):
            small_table.take(np.array([True, False]))

    def test_take_indices(self, small_table):
        out = small_table.take(np.array([5, 0]))
        assert out.column("id").tolist() == [6, 1]

    def test_slice_is_view(self, small_table):
        out = small_table.slice(1, 3)
        assert out.column("id").tolist() == [2, 3]
        assert out.column("x").base is not None  # zero-copy view

    def test_select_and_drop(self, small_table):
        assert small_table.select(["x", "id"]).schema.names == ["x", "id"]
        assert small_table.drop(["grp", "flag"]).schema.names == ["id", "x"]

    def test_rename(self, small_table):
        out = small_table.rename({"x": "value"})
        assert "value" in out.schema and "x" not in out.schema
        assert out.column("value").tolist() == small_table.column("x").tolist()

    def test_with_column_add_and_replace(self, small_table):
        added = small_table.with_column("y", np.arange(6))
        assert added.schema.names[-1] == "y"
        replaced = small_table.with_column("x", np.zeros(6))
        assert replaced.column("x").sum() == 0.0
        assert replaced.schema.names == small_table.schema.names

    def test_concat(self, small_table):
        out = Table.concat([small_table, small_table])
        assert out.num_rows == 12
        assert out.column("id").tolist() == [1, 2, 3, 4, 5, 6] * 2

    def test_concat_schema_mismatch(self, small_table):
        other = small_table.rename({"x": "y"})
        with pytest.raises(SchemaError, match="mismatch"):
            Table.concat([small_table, other])

    def test_concat_empty_list(self):
        with pytest.raises(SchemaError):
            Table.concat([])

    def test_sort_single_key(self, small_table):
        out = small_table.sort_by(["x"], [True])
        assert out.column("x").tolist() == [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]

    def test_sort_multi_key_stable(self, small_table):
        out = small_table.sort_by(["grp", "x"], [False, True])
        assert out.column("grp").tolist() == ["a", "a", "a", "b", "b", "c"]
        assert out.column("x").tolist()[:3] == [5.0, 3.0, 1.0]

    def test_sort_null_strings_first(self):
        # A LEFT JOIN's unmatched string keys are None beside values.
        t = Table.from_columns({
            "s": np.array(["b", None, "a", None], dtype=object),
            "i": np.arange(4),
        })
        out = t.sort_by(["s", "i"])
        assert out.column("s").tolist() == [None, None, "a", "b"]
        assert out.column("i").tolist() == [1, 3, 2, 0]
        assert t.sort_by(["s"], [True]).column("s").tolist() == \
            ["b", "a", None, None]

    def test_row_and_iter_rows(self, small_table):
        assert small_table.row(0) == (1, "a", 1.0, True)
        assert len(list(small_table.iter_rows())) == 6

    def test_to_pylist(self, small_table):
        rows = small_table.to_pylist()
        assert rows[0]["grp"] == "a" and rows[0]["x"] == 1.0

    def test_head_str_mentions_overflow(self, small_table):
        text = small_table.head_str(2)
        assert "(6 rows)" in text

    def test_getitem(self, small_table):
        assert small_table["id"].tolist() == [1, 2, 3, 4, 5, 6]
