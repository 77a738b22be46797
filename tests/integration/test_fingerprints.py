"""Snapshot streams against the fingerprints checked into the repo.

``tests/fingerprints.json`` is the whole matrix (every bundled query ×
serial / one-worker process pool × memory / colstore); this test runs a
slice of it.  Re-record with
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
    + [identity.stream_id(q, "process1", "memory")
       for q in ("T1", "T2", "T8", "T9", "T10")]
    + [identity.stream_id(q, "serial", "colstore")
       for q in ("SBI", "Q17", "T1", "T8")]
)


def test_the_file_covers_the_whole_matrix():
    assert sorted(RECORDED["streams"]) == sorted(identity.all_stream_ids())
    assert (RECORDED["rows"], RECORDED["batches"], RECORDED["trials"]) == (
        identity.ROWS, identity.BATCHES, identity.TRIALS)


def test_slice_matches_the_recorded_fingerprints(tmp_path):
    if RECORDED["numpy"] != np.__version__:
        pytest.skip(
            f"fingerprints were recorded under numpy {RECORDED['numpy']}; "
            f"this is numpy {np.__version__}, whose sums and sorts may "
            "round differently"
        )
    assert len(SLICE) == 30
    current = identity.fingerprints(SLICE, workdir=str(tmp_path))
    assert identity.diff(RECORDED["streams"], current) == []
