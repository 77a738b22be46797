"""Compressed, memory-mapped columnar partition storage.

One ``.gcp`` file per shuffled mini-batch (64-byte-aligned column
segments behind a JSON footer that also records per-chunk zone-map
statistics for ``repro inspect``).  See ``docs/storage.md`` for the
format and semantics.
"""

from .codecs import CODECS, EncodedColumn, decode_column, encode_column
from .dataset import (
    ColstoreDataset,
    convert_table,
    is_dataset_dir,
    open_dataset,
)
from .format import (
    DEFAULT_CHUNK_ROWS,
    PartitionReader,
    compute_zones,
    write_partition,
)

__all__ = [
    "CODECS",
    "ColstoreDataset",
    "DEFAULT_CHUNK_ROWS",
    "EncodedColumn",
    "PartitionReader",
    "compute_zones",
    "convert_table",
    "decode_column",
    "encode_column",
    "is_dataset_dir",
    "open_dataset",
    "write_partition",
]
