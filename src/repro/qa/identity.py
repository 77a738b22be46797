"""Stream fingerprints of the bundled queries, checked into the repo.

Every bundled query runs online over a small seeded dataset in each
execution mode (serial, and one- and two-worker process pools) and from
each store (in-memory tables, and colstore datasets converted from them).
Each stream is hashed three ways — point columns, error bounds, and
uncertain-set sizes plus rebuilds — and once more whole with the
benchmark ledger's ``snapshot_digest`` definition (copied here, so the
benchmark never imports the program's notion of "the same stream").

:func:`snapshot_fingerprint` is the one whole-stream digest the rest of
the program compares (the chaos harness, the fuzzer's colstore path,
the tests): two streams with equal fingerprints cannot be told apart.

``tests/fingerprints.json`` holds the recorded matrix.  A change that
means no bit to move shows an unchanged file; one that moves a stream
re-records it and its diff names exactly which streams, and which of
their parts, moved::

    PYTHONPATH=src python -m repro.qa.identity --write tests/fingerprints.json
    PYTHONPATH=src python -m repro.qa.identity --check tests/fingerprints.json

Digests are numpy-version specific (a different numpy may sum or sort
in another order), so the file records the version it was taken with.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..config import GolaConfig, ParallelConfig
from ..core.session import GolaSession
from ..storage.colstore import convert_table

ROWS = 4000
BATCHES = 4
TRIALS = 16
SEED = 2015
#: Small enough that a pool shards every batch of a query that folds
#: bootstrap states at all.
MIN_SHARD_ROWS = 256

#: mode -> worker processes (0 = serial).
MODES = {"serial": 0, "process1": 1, "process2": 2}
STORES = ("memory", "colstore")


@functools.lru_cache(maxsize=None)
def bundled_queries() -> Dict[str, Tuple[str, str]]:
    """query name -> (dataset, SQL).  AVGP, GEO and MM1 are the
    benchmark ledger's own queries, repeated here verbatim."""
    from ..workloads import (
        C1_QUERY, C2_QUERY, C3_QUERY, Q11_QUERY, Q17_QUERY, Q18_QUERY,
        Q20_QUERY, SBI_QUERY, TAXI_QUERIES,
    )
    queries = {
        "SBI": ("sessions", SBI_QUERY),
        "AVGP": ("sessions", "SELECT AVG(play_time) FROM sessions"),
        "C1": ("conviva", C1_QUERY),
        "C2": ("conviva", C2_QUERY),
        "C3": ("conviva", C3_QUERY),
        "GEO": ("conviva", "SELECT geo, COUNT(*), AVG(buffer_time) "
                           "FROM conviva GROUP BY geo"),
        "MM1": ("conviva",
                "SELECT content_id, MIN(buffer_time), MAX(play_time), "
                "COUNT(*) FROM conviva WHERE buffer_time > "
                "(SELECT AVG(buffer_time) FROM conviva) "
                "GROUP BY content_id"),
        "Q11": ("tpch", Q11_QUERY),
        "Q17": ("tpch", Q17_QUERY),
        "Q18": ("tpch", Q18_QUERY),
        "Q20": ("tpch", Q20_QUERY),
    }
    for name, sql in TAXI_QUERIES.items():
        queries[name] = ("taxi", sql)
    return queries


def _datasets() -> Dict[str, Dict[str, Tuple[object, bool]]]:
    """dataset -> {table name: (table, streamed)}."""
    from ..workloads import (
        generate_conviva, generate_sessions, generate_taxi, generate_tpch,
    )
    taxi = generate_taxi(ROWS, seed=SEED)
    return {
        "sessions": {"sessions": (generate_sessions(ROWS, seed=SEED), True)},
        "conviva": {"conviva": (generate_conviva(ROWS, seed=SEED), True)},
        "tpch": {"tpch": (generate_tpch(ROWS, seed=SEED), True)},
        "taxi": {
            "trips": (taxi["trips"], True),
            "surcharges": (taxi["surcharges"], True),
            "zones": (taxi["zones"], False),
            "vendors": (taxi["vendors"], False),
        },
    }


# -- digests ---------------------------------------------------------------


def _update_array(digest, arr: np.ndarray) -> None:
    if arr.dtype == object:
        # tobytes() of an object array is its pointers.
        for value in arr:
            encoded = str(value).encode()
            digest.update(len(encoded).to_bytes(4, "little"))
            digest.update(encoded)
    else:
        digest.update(str(arr.dtype).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())


def snapshot_digest(snapshot) -> str:
    """sha256 over what a user sees of one ``OnlineSnapshot``: column
    bytes, confidence bounds, uncertain-set sizes and rebuilds.

    The benchmark ledger's definition, bit for bit.
    """
    digest = hashlib.sha256()
    digest.update(f"{snapshot.batch_index}/{snapshot.num_batches}".encode())
    for name in snapshot.table.schema.names:
        digest.update(name.encode())
        _update_array(digest, snapshot.table.column(name))
    for name in sorted(snapshot.errors):
        err = snapshot.errors[name]
        digest.update(name.encode())
        _update_array(digest, np.asarray(err.lows))
        _update_array(digest, np.asarray(err.highs))
    for block in sorted(snapshot.uncertain_sizes):
        digest.update(f"U:{block}={snapshot.uncertain_sizes[block]}".encode())
    digest.update(("R:" + ",".join(snapshot.rebuilds)).encode())
    return digest.hexdigest()


def snapshot_fingerprint(snapshots: Iterable) -> Tuple[str, int]:
    """(sha256 hex, count) over everything user-visible in a stream.

    Bitwise: column payloads, CI bounds, uncertain-set sizes, row
    accounting and rebuilds all enter the digest, so "identical
    fingerprints" means "the user could not tell the runs apart".
    """
    digest = hashlib.sha256()
    count = 0
    for s in snapshots:
        count += 1
        digest.update(str(s.batch_index).encode())
        for name in s.table.schema.names:
            digest.update(name.encode())
            _update_array(digest, s.table.column(name))
        for name in sorted(s.errors):
            err = s.errors[name]
            digest.update(name.encode())
            _update_array(digest, np.asarray(err.lows))
            _update_array(digest, np.asarray(err.highs))
        digest.update(repr((
            sorted(s.uncertain_sizes.items()),
            sorted(s.rows_processed.items()),
            tuple(s.rebuilds),
        )).encode())
    return digest.hexdigest(), count


def stream_fingerprint(snapshots: Iterable) -> Dict[str, str]:
    """One stream's digests: ``stream`` (the ledger's per-snapshot
    digests, chained), and its ``points``, ``errors`` and ``uncertain``
    parts separately, so a diff says which part moved."""
    parts = {key: hashlib.sha256()
             for key in ("stream", "points", "errors", "uncertain")}
    for snap in snapshots:
        parts["stream"].update(snapshot_digest(snap).encode())
        for name in snap.table.schema.names:
            parts["points"].update(name.encode())
            _update_array(parts["points"], snap.table.column(name))
        for name in sorted(snap.errors):
            err = snap.errors[name]
            parts["errors"].update(name.encode())
            _update_array(parts["errors"], np.asarray(err.lows))
            _update_array(parts["errors"], np.asarray(err.highs))
        parts["uncertain"].update(
            (repr(sorted(snap.uncertain_sizes.items()))
             + "R:" + ",".join(snap.rebuilds)).encode()
        )
    return {key: h.hexdigest() for key, h in parts.items()}


# -- the matrix --------------------------------------------------------------


def stream_id(query: str, mode: str, store: str) -> str:
    return f"{query}/{mode}/{store}"


def all_stream_ids() -> List[str]:
    return [stream_id(q, m, s) for q in bundled_queries() for m in MODES
            for s in STORES]


def _config(mode: str) -> GolaConfig:
    parallel = ParallelConfig(workers=MODES[mode],
                              min_shard_rows=MIN_SHARD_ROWS)
    return GolaConfig(num_batches=BATCHES, bootstrap_trials=TRIALS,
                      seed=SEED, parallel=parallel)


def fingerprints(ids: Optional[Iterable[str]] = None,
                 workdir: Optional[str] = None) -> Dict[str, Dict[str, str]]:
    """Run the named streams (all of them by default): id -> digests.

    Every stream runs in a fresh session.  Colstore streams read each
    streamed table converted once under the run's partition knobs, into
    ``workdir`` (a temporary directory by default).
    """
    ids = list(all_stream_ids() if ids is None else ids)
    queries = bundled_queries()
    datasets = _datasets()
    converted: Dict[str, Path] = {}
    out: Dict[str, Dict[str, str]] = {}
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for sid in ids:
            query, mode, store = sid.split("/")
            dataset, sql = queries[query]
            session = GolaSession(_config(mode))
            for name, (table, streamed) in datasets[dataset].items():
                if store == "colstore" and streamed:
                    if name not in converted:
                        converted[name] = Path(tmp) / name
                        convert_table(table, converted[name],
                                      num_batches=BATCHES, seed=SEED,
                                      shuffle=True)
                    session.register_colstore(name, converted[name])
                else:
                    session.register_table(name, table, streamed=streamed)
            out[sid] = stream_fingerprint(session.sql(sql).run_online())
    return out


def record() -> dict:
    """The whole matrix with the numpy version it was taken under."""
    return {"numpy": np.__version__, "rows": ROWS, "batches": BATCHES,
            "trials": TRIALS, "seed": SEED,
            "streams": fingerprints()}


def diff(recorded: Dict[str, Dict[str, str]],
         current: Dict[str, Dict[str, str]]) -> List[str]:
    """``"<stream id>: <part>, ..."`` for every stream whose parts differ."""
    moved = []
    for sid, digests in current.items():
        parts = [key for key in ("points", "errors", "uncertain")
                 if recorded.get(sid, {}).get(key) != digests[key]]
        if parts or recorded.get(sid, {}).get("stream") != digests["stream"]:
            moved.append(f"{sid}: {', '.join(parts) or 'stream'}")
    return moved


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.qa.identity",
        description="Record or check the bundled queries' stream "
                    "fingerprints.",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="PATH")
    group.add_argument("--check", metavar="PATH")
    args = parser.parse_args(argv)
    if args.write:
        Path(args.write).write_text(
            json.dumps(record(), indent=1, sort_keys=True) + "\n"
        )
        return 0
    recorded = json.loads(Path(args.check).read_text())
    if recorded["numpy"] != np.__version__:
        print(f"recorded under numpy {recorded['numpy']}, "
              f"running {np.__version__}: digests are not comparable")
        return 2
    moved = diff(recorded["streams"], fingerprints())
    for line in moved:
        print(line)
    print(f"{len(moved)} stream(s) moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
