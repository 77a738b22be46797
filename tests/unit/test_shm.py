"""Unit coverage for ``repro.parallel.shm``.

The contract under test: the coordinator publishes each batch's arrays
into its run's one reused segment, workers resolve tiny specs into
read-only zero-copy views, and the close protocol guarantees no segment
ever outlives its run — whatever the failure path — and no process
keeps an unlinked segment mapped past its next new attach.
"""

import multiprocessing
import os
import pickle
import threading
import time

import numpy as np
import pytest

from repro.parallel.shm import (
    _ALIGN,
    ShmRegistry,
    attached_segments,
    detach_all,
    resolve,
    segment_exists,
)


@pytest.fixture(autouse=True)
def _clean_attachments():
    """Drop this process's attach cache after every test."""
    yield
    detach_all()


def _sample_arrays():
    rng = np.random.default_rng(0)
    return {
        "group_idx": rng.integers(0, 9, 1000),
        "value:x": rng.normal(size=1000),
        "row_idx": np.arange(0, 1000, 3, dtype=np.int64),
    }


class TestPublishResolve:
    def test_roundtrip_is_bit_identical(self):
        arrays = _sample_arrays()
        with ShmRegistry() as registry:
            lease = registry.publish(arrays)
            assert lease is not None
            assert set(lease.specs) == set(arrays)
            for name, arr in arrays.items():
                view = resolve(lease.specs[name])
                assert view.dtype == arr.dtype
                assert np.array_equal(view, arr)

    def test_views_are_read_only(self):
        with ShmRegistry() as registry:
            lease = registry.publish({"x": np.ones(16)})
            view = resolve(lease.specs["x"])
            with pytest.raises(ValueError):
                view[0] = 2.0

    def test_arrays_share_one_aligned_segment(self):
        arrays = _sample_arrays()
        with ShmRegistry() as registry:
            lease = registry.publish(arrays)
            specs = list(lease.specs.values())
            assert len({s.segment for s in specs}) == 1
            assert all(s.offset % _ALIGN == 0 for s in specs)
            # packed back to back: no two arrays overlap
            spans = sorted((s.offset, s.offset + s.nbytes) for s in specs)
            for (_, a_hi), (b_lo, _) in zip(spans, spans[1:]):
                assert a_hi <= b_lo

    def test_attach_cache_reuses_the_segment(self):
        with ShmRegistry() as registry:
            lease = registry.publish(_sample_arrays())
            for spec in lease.specs.values():
                resolve(spec)
            assert attached_segments() == [lease.segment]
        # Unlinking the segment also closes this process's attachment.
        assert attached_segments() == []

    def test_resolve_passes_non_specs_through(self):
        arr = np.arange(4.0)
        assert resolve(arr) is arr
        assert resolve(None) is None

    def test_spec_is_pickle_small(self):
        with ShmRegistry() as registry:
            lease = registry.publish(
                {"w": np.zeros((50_000, 96))}  # ~38 MB array
            )
            spec = lease.specs["w"]
            payload = pickle.dumps(spec)
            assert len(payload) < 200  # specs ship, bytes don't
            assert pickle.loads(payload) == spec

    def test_empty_publish_returns_none(self):
        with ShmRegistry() as registry:
            assert registry.publish({}) is None
            assert registry.publish({"x": np.empty(0)}) is None
            assert registry.created == []


class TestLifecycle:
    def test_close_unlinks_the_run_segment(self):
        registry = ShmRegistry()
        lease = registry.publish({"x": np.ones(32)})
        name = lease.segment
        assert registry.live_segments() == [name]
        assert segment_exists(name)
        registry.close()
        registry.close()  # idempotent
        assert registry.live_segments() == []
        assert not segment_exists(name)
        assert registry.created == [name]  # probing names survive unlink

    def test_publishes_reuse_one_segment_until_outgrown(self):
        with ShmRegistry() as registry:
            first = registry.publish({"x": np.arange(100.0)})
            # A smaller and an equal publish overwrite the same region.
            small = registry.publish({"x": np.arange(10.0) + 7})
            again = registry.publish({"x": np.arange(100.0) * 2})
            assert first.segment == small.segment == again.segment
            assert np.array_equal(resolve(again.specs["x"]),
                                  np.arange(100.0) * 2)
            # Outgrowing it replaces it; the old one is unlinked at once.
            grown = registry.publish({"x": np.arange(1000.0)})
            assert grown.segment != first.segment
            assert registry.live_segments() == [grown.segment]
            assert registry.created == [first.segment, grown.segment]
            assert not segment_exists(first.segment)
            assert np.array_equal(resolve(grown.specs["x"]),
                                  np.arange(1000.0))
        assert not segment_exists(grown.segment)

    def test_close_force_unlinks_everything(self):
        registry = ShmRegistry()
        names = [
            registry.publish({"x": np.ones(8 * (i + 1))}).segment
            for i in range(3)
        ]
        registry.close()
        assert registry.live_segments() == []
        assert not any(segment_exists(n) for n in names)
        registry.close()  # idempotent

    def test_dropped_registry_finalizer_unlinks(self):
        registry = ShmRegistry()
        name = registry.publish({"x": np.ones(8)}).segment
        assert segment_exists(name)
        registry._finalizer()  # what gc would run on a leaked registry
        assert not segment_exists(name)

    def test_failed_creation_degrades_permanently(self, monkeypatch):
        from repro.parallel import shm as shm_mod

        registry = ShmRegistry()

        def exploding(*args, **kwargs):
            raise OSError("no /dev/shm")

        monkeypatch.setattr(shm_mod, "SharedMemory", exploding)
        assert registry.publish({"x": np.ones(8)}) is None
        monkeypatch.undo()
        # degradation sticks even once shared memory "works" again:
        # publishing is an optimization, flapping is not.
        assert not registry.available
        assert registry.publish({"x": np.ones(8)}) is None

    def test_segment_exists_probe(self):
        assert not segment_exists("repro-never-created")

    def test_new_attach_drops_unlinked_attachments(self):
        # What a worker sees: the coordinator unlinks a finished run's
        # segment in another process, and the worker's cache drops it
        # on its next attach of a segment it does not hold.
        from multiprocessing.shared_memory import SharedMemory

        from repro.parallel.shm import ArraySpec

        def spec(segment):
            return ArraySpec(segment.name, "<f8", (4,), 0)

        old = SharedMemory(create=True, size=64)
        new = SharedMemory(create=True, size=64)
        try:
            resolve(spec(old))
            assert attached_segments() == [old.name]
            old.unlink()
            resolve(spec(new))
            assert attached_segments() == [new.name]
        finally:
            for segment in (old, new):
                segment.close()
            new.unlink()


def _count_inherited_mappings(name, conn):
    with open(f"/proc/{os.getpid()}/maps") as maps:
        conn.send(sum(name in line for line in maps))
    conn.close()


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="needs /proc")
def test_forked_child_closes_inherited_segments():
    """A pool worker forked while a run's segment is live (and attached
    here) must not keep mapping it: it would pin the segment's memory
    for the worker's whole life."""
    context = multiprocessing.get_context("fork")
    with ShmRegistry() as registry:
        lease = registry.publish({"x": np.ones(1024)})
        resolve(lease.specs["x"])
        parent, child = context.Pipe()
        proc = context.Process(target=_count_inherited_mappings,
                               args=(lease.segment, child))
        proc.start()
        mappings = parent.recv()
        proc.join(timeout=30.0)
        parent.close()
        child.close()
    assert proc.exitcode == 0
    assert mappings == 0


def _exit_with_tracker_lock_state():
    from multiprocessing.resource_tracker import _resource_tracker
    os._exit(0 if _resource_tracker._lock.acquire(timeout=5.0) else 1)


@pytest.mark.skipif(not hasattr(os, "register_at_fork"),
                    reason="no fork")
def test_fork_never_inherits_the_tracker_lock_held():
    """A worker forked while another thread registers a segment must
    start with the resource tracker's lock free, or its first attach
    blocks until the supervisor's deadline kills it."""
    from multiprocessing.resource_tracker import _resource_tracker

    held = threading.Event()

    def register_slowly():
        with _resource_tracker._lock:
            held.set()
            time.sleep(0.2)

    holder = threading.Thread(target=register_slowly)
    holder.start()
    held.wait()
    child = multiprocessing.get_context("fork").Process(
        target=_exit_with_tracker_lock_state)
    child.start()
    child.join(timeout=30.0)
    holder.join()
    assert child.exitcode == 0
