"""Warm starts over a shuffled colstore dataset.

The persisted partial aggregates of a run are a ``RunCheckpoint``: a
cold run auto-checkpoints every two batches (``FaultsConfig``'s
``checkpoint_every``/``checkpoint_path``) and a fresh session over the
same dataset resumes from one with ``run_online(resume_from=...)``.
Warm-starting changes latency, never answers: the resumed stream is a
bit-identical suffix of the cold stream and ends on the in-memory
table's final answer.

``test_fault_tolerance.py::TestCheckpointResume`` pins the same two
properties for the sessions workload over an unshuffled conversion;
these tests cover a dataset converted with ``shuffle=True`` and a
high-dispersion ``AVG``.
"""

import numpy as np
import pytest

from repro import FaultsConfig, GolaConfig, GolaSession
from repro.faults import RunCheckpoint
from repro.qa.identity import snapshot_fingerprint
from repro.storage.colstore import convert_table
from repro.storage.table import Table

ROWS = 40_000
BATCHES = 10
SEED = 2015
RESUME_AFTER = 4
SQL = "SELECT AVG(y) FROM fact"


def make_table():
    rng = np.random.default_rng(7)
    return Table.from_columns({
        "y": rng.normal(20.0, 60.0, ROWS),
        "g": rng.integers(0, 3, ROWS).astype(np.int64),
    })


def make_config() -> GolaConfig:
    return GolaConfig(num_batches=BATCHES, seed=SEED, bootstrap_trials=32)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The cold colstore stream and the stream resumed after batch 4."""
    tmp_path = tmp_path_factory.mktemp("warm")
    dataset = tmp_path / "ds"
    convert_table(make_table(), dataset, num_batches=BATCHES, seed=SEED,
                  shuffle=True)
    path = tmp_path / "auto.ck"
    checkpointing = make_config().with_options(faults=FaultsConfig(
        checkpoint_every=2, checkpoint_path=str(path)))

    def colstore_session():
        session = GolaSession(checkpointing)
        session.register_colstore("fact", dataset)
        return session

    cold = []
    saved = None
    for snapshot in colstore_session().sql(SQL).run_online():
        cold.append(snapshot)
        if snapshot.batch_index == RESUME_AFTER:
            saved = RunCheckpoint.load(path)
    assert len(cold) == BATCHES
    assert saved is not None and saved.batch_index == RESUME_AFTER

    warm = list(colstore_session().sql(SQL).run_online(resume_from=saved))
    return cold, warm


class TestControllerWarmStart:
    def test_warm_run_is_bitwise_suffix_of_cold(self, runs):
        cold, warm = runs
        assert [s.batch_index for s in warm] == \
            list(range(RESUME_AFTER + 1, BATCHES + 1))
        assert snapshot_fingerprint(warm) == \
            snapshot_fingerprint(cold[RESUME_AFTER:])

    def test_final_answer_matches_in_memory(self, runs):
        _, warm = runs
        memory = GolaSession(make_config())
        memory.register_table("fact", make_table())
        final = list(memory.sql(SQL).run_online())[-1]
        assert snapshot_fingerprint(warm[-1:]) == \
            snapshot_fingerprint([final])
