"""Storage substrate: columnar tables, partitioning, catalog, I/O."""

from .catalog import Catalog
from .io import read_csv, read_jsonl, write_csv, write_jsonl
from .partition import (
    BatchPlan,
    MiniBatchPartitioner,
    batch_sizes,
    random_sample,
    shuffle_table,
)
from .table import Column, ColumnType, Schema, Table
from .colstore import (
    ColstoreDataset,
    convert_table,
    open_dataset,
)

__all__ = [
    "BatchPlan",
    "Catalog",
    "ColstoreDataset",
    "Column",
    "ColumnType",
    "MiniBatchPartitioner",
    "Schema",
    "Table",
    "batch_sizes",
    "convert_table",
    "open_dataset",
    "random_sample",
    "read_csv",
    "read_jsonl",
    "shuffle_table",
    "write_csv",
    "write_jsonl",
]
