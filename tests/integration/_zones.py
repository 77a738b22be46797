"""A colstore dataset copy whose partition footers carry no zone maps.

The identity matrices stream each dataset twice: as written (``prune``
— footer zone maps a chunk-skipping reader could use) and as this copy
(``noprune`` — nothing to skip with).  Both must match the in-memory
stream bit for bit: zone maps are ``repro inspect`` statistics, never
an input to an answer.
"""

import json
import shutil
import struct
from pathlib import Path

from repro.storage.colstore import PartitionReader
from repro.storage.colstore.format import MAGIC

_TRAILER = struct.Struct("<Q")


def strip_zone_maps(src, dst) -> Path:
    """Copy dataset ``src`` to ``dst``, dropping every footer's zones.

    Column segments and their offsets are untouched: only the footer
    JSON (and its length trailer) at the end of each file is rewritten.
    """
    dst = Path(dst)
    shutil.copytree(src, dst)
    for path in sorted(dst.glob("*.gcp")):
        data = path.read_bytes()
        tail = _TRAILER.size + len(MAGIC)
        (footer_len,) = _TRAILER.unpack_from(data, len(data) - tail)
        footer = json.loads(data[len(data) - tail - footer_len:-tail])
        for col in footer["columns"]:
            del col["zones"]
        blob = json.dumps(footer).encode("utf-8")
        path.write_bytes(data[:len(data) - tail - footer_len] + blob
                         + _TRAILER.pack(len(blob)) + MAGIC)
        assert all("zones" not in col
                   for col in PartitionReader(path).footer["columns"])
    return dst
