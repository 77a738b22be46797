"""Snapshot streams against the fingerprints checked into the repo.

``tests/fingerprints.json`` is the whole matrix (every bundled query ×
serial / one- and two-worker process pools × memory / colstore); this
test runs a slice of it.  The slice's pooled streams are queries whose
folds reach the pool at these sizes: flat SUM/COUNT/AVG queries take
closed-form errors and never shard.  Re-record with
``PYTHONPATH=src python -m repro.qa.identity --write tests/fingerprints.json``
when a change moves a stream on purpose, and name the moved streams.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.qa import identity

RECORDED = json.loads(
    (Path(__file__).resolve().parent.parent / "fingerprints.json").read_text()
)

SLICE = (
    [identity.stream_id(q, "serial", "memory")
     for q in identity.bundled_queries()]
    + [identity.stream_id(q, mode, "memory")
       for mode in ("process1", "process2")
       for q in ("SBI", "C3", "Q17", "T7", "T8")]
    + [identity.stream_id(q, "serial", "colstore")
       for q in ("SBI", "Q17", "T1", "T8")]
)


def test_the_file_covers_the_whole_matrix():
    assert sorted(RECORDED["streams"]) == sorted(identity.all_stream_ids())
    assert (RECORDED["rows"], RECORDED["batches"], RECORDED["trials"]) == (
        identity.ROWS, identity.BATCHES, identity.TRIALS)


def test_every_pooled_stream_equals_its_serial_stream():
    # Pure JSON: parallel execution is a throughput knob only, so the
    # recorded pooled streams must be the serial ones, digest for digest.
    streams = RECORDED["streams"]
    pooled = [sid for sid in streams
              if sid.split("/")[1].startswith("process")]
    assert pooled
    for sid in pooled:
        query, _, store = sid.split("/")
        assert streams[sid] == streams[
            identity.stream_id(query, "serial", store)], sid


def test_slice_matches_the_recorded_fingerprints(tmp_path):
    if RECORDED["numpy"] != np.__version__:
        pytest.skip(
            f"fingerprints were recorded under numpy {RECORDED['numpy']}; "
            f"this is numpy {np.__version__}, whose sums and sorts may "
            "round differently"
        )
    assert len(SLICE) == 35
    current = identity.fingerprints(SLICE, workdir=str(tmp_path))
    assert identity.diff(RECORDED["streams"], current) == []
