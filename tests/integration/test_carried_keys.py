"""Keyed-slot indices travel with the cached rows.

A consumer of a keyed slot (C3: each session against its content's
average) encodes a row's correlation key into the producer's
``GroupIndex`` once, when the row arrives, and carries the dense index
with the row while it stays cached.  These tests count the keys the
consumer encodes per batch, force the producer to rebuild (which
replaces its index) and restore a checkpoint (whose copied cache is
tied to no live index), and check that each time the carried indices
are dropped and re-encoded, and that the stream is the one a run that
re-encodes every key on every read gives, bit for bit.  The consumer's
decision guard, whose per-group extremes the producer's index numbers
too, remaps them by key across a producer rebuild.
"""

import numpy as np
import pytest

from repro import GolaConfig, GolaSession
from repro.baselines.cdm import ClassicalDeltaMaintenance
from repro.core.delta import BlockRuntime, UncertainCache
from repro.core.uncertain import KeyedSlotState
from repro.qa.identity import snapshot_fingerprint
from repro.workloads import C3_QUERY, generate_conviva

TABLE = generate_conviva(8000, seed=3)
#: The producer rebuilds here; the consumer does not (it rebuilds at
#: batch 4 on its own, with or without the forced rebuild).
FORCED_BATCH = 2
RESTORED_AFTER = 4

#: The forced-rebuild stream's fingerprint under this numpy, recorded
#: before cached rows carried their indices (every read re-encoded
#: every key then).
RECORDED_NUMPY = "2.4.6"
RECORDED_FORCED = (
    "fc498f9b28a64c0390799088adebeb5b996366803384441d790e3695f6b7ffa8", 8)


def _session(table=TABLE):
    session = GolaSession(GolaConfig(num_batches=8, bootstrap_trials=16,
                                     seed=7))
    session.register_table("conviva", table)
    return session


@pytest.fixture
def encoded(monkeypatch):
    """Correlation keys the consumer encodes, per call."""
    calls = []
    real = KeyedSlotState.encode

    def counting(self, keys):
        calls.append(np.asarray(keys).size)
        return real(self, keys)

    monkeypatch.setattr(KeyedSlotState, "encode", counting)
    return calls


def _force_producer_rebuild(monkeypatch, batch):
    """The producer's guards fail before ``batch``, so it resets (a new
    ``GroupIndex``) and re-folds every batch seen."""
    real = BlockRuntime.process_batch

    def process_batch(self, batch_index, *args):
        if self.spec is None or batch_index != batch:
            return real(self, batch_index, *args)
        self.guards.violation = lambda ienv: "guard failed: forced"
        try:
            return real(self, batch_index, *args)
        finally:
            del self.guards.violation

    monkeypatch.setattr(BlockRuntime, "process_batch", process_batch)


@pytest.fixture
def forced_producer_rebuild(monkeypatch):
    _force_producer_rebuild(monkeypatch, FORCED_BATCH)


def _run_counting(session, encoded, resume_from=None):
    """C3's snapshots plus, per batch, the consumer's cached rows before
    the batch, its candidates (cached plus incoming rows, or every
    re-read row when it rebuilt) and the keys it encoded."""
    query = session.sql(C3_QUERY)
    snaps, per_batch = [], []
    it = query.run_online(resume_from=resume_from)
    cached = None
    for snap in it:
        main = query._controller.runtimes["main"]
        stats = main.stats_history[-1]
        if cached is None:  # the first batch of this run
            cached = (0 if resume_from is None
                      else main.stats_history[-2].uncertain_size)
        per_batch.append((cached, stats.candidates, stats.rebuilt,
                          sum(encoded)))
        del encoded[:]
        cached = stats.uncertain_size
        snaps.append(snap)
    return snaps, per_batch


def _reference_fingerprint(monkeypatch):
    """The run whose every read re-encodes every cached key: the tie is
    dropped before each refresh."""
    real = UncertainCache._refresh

    def untied(self, slot_states):
        self._tied = {}
        return real(self, slot_states)

    with monkeypatch.context() as m:
        m.setattr(UncertainCache, "_refresh", untied)
        return snapshot_fingerprint(_session().sql(C3_QUERY).run_online())


def _new_rows_only(per_batch, everything_at=()):
    """Each batch encodes only its incoming rows, or every candidate in
    a batch that rebuilt the consumer or is in ``everything_at``."""
    for batch, (cached, candidates, rebuilt, keys) in per_batch:
        want = (candidates if rebuilt or batch in everything_at
                else candidates - cached)
        assert keys == want, (batch, cached, candidates, rebuilt, keys)


def test_a_known_key_is_encoded_once(encoded, monkeypatch):
    """Every C3 key is known to the producer, which folds the batch
    first, so a row's key is encoded when it arrives and never again
    while it stays cached."""
    snaps, per_batch = _run_counting(_session(), encoded)
    assert len(snaps) == 8
    assert sum(cached for cached, _, rebuilt, _ in per_batch
               if not rebuilt) > 0
    _new_rows_only(enumerate(per_batch, start=1))
    assert snapshot_fingerprint(snaps) == _reference_fingerprint(
        monkeypatch)


def test_producer_rebuild_drops_the_carried_indices(
        encoded, forced_producer_rebuild, monkeypatch):
    snaps, per_batch = _run_counting(_session(), encoded)
    assert snaps[FORCED_BATCH - 1].rebuilds == ["sub#0"]
    cached, _, rebuilt, _ = per_batch[FORCED_BATCH - 1]
    assert cached > 0 and not rebuilt
    # The producer's new index numbers the keys afresh: every cached
    # row is encoded again.
    _new_rows_only(enumerate(per_batch, start=1),
                   everything_at=(FORCED_BATCH,))
    fingerprint = snapshot_fingerprint(snaps)
    assert fingerprint == _reference_fingerprint(monkeypatch)
    if np.__version__ == RECORDED_NUMPY:
        assert fingerprint == RECORDED_FORCED


def test_restored_checkpoint_drops_the_carried_indices(encoded,
                                                       monkeypatch):
    query = _session().sql(C3_QUERY)
    it = query.run_online()
    prefix = [next(it) for _ in range(RESTORED_AFTER)]
    checkpoint = query.checkpoint()
    it.close()
    # What the run resumes from carries indices but no tie to an index.
    cache = checkpoint.copy_block_states()["main"]["cache"]
    assert cache.size > 0 and cache._tied == {}
    assert len(cache.rows.slot_idx[0]) == cache.size

    del encoded[:]
    rest, per_batch = _run_counting(_session(), encoded,
                                    resume_from=checkpoint)
    assert [s.batch_index for s in rest] == list(
        range(RESTORED_AFTER + 1, 9))
    assert per_batch[0][0] > 0
    _new_rows_only(enumerate(per_batch, start=RESTORED_AFTER + 1),
                   everything_at=(RESTORED_AFTER + 1,))
    assert snapshot_fingerprint(prefix + rest) == _reference_fingerprint(
        monkeypatch)


def test_producer_rebuild_keeps_the_consumer_decisions(monkeypatch):
    """The producer's new index numbers the content keys afresh, so
    over this data some positions hold other keys after a rebuild at
    batch 4.  Extremes left in the old numbering compared a group's
    folds with another group's point value and failed ``decision on
    slot#0 by content_id``, rebuilding ``main`` from every batch seen;
    remapped by key, the consumer keeps its decisions, and every
    snapshot equals classical delta maintenance's."""
    session = _session(generate_conviva(8000, seed=7))
    query = session.sql(C3_QUERY)
    assert not any(s.rebuilds for s in query.run_online())
    _force_producer_rebuild(monkeypatch, 4)
    snaps = list(query.run_online())
    assert [s.rebuilds for s in snaps] == [[]] * 3 + [["sub#0"]] + [[]] * 4
    cdm = list(ClassicalDeltaMaintenance(
        query.query, session._tables(), session.config).run())
    assert len(cdm) == len(snaps) == 8
    for snap, oracle in zip(snaps, cdm):
        np.testing.assert_allclose(snap.table.column("retention"),
                                   oracle.table.column("retention"),
                                   rtol=1e-9)
