"""Zero-copy shared-memory column publishing for shard workers.

The pre-shm shard path re-pickled every mini-batch column into every
shard payload: with ``W`` workers the coordinator serialized the batch
``W`` times per fold and each worker deserialized its private copy.
This module replaces that with PF-OLA-style shared state: the
coordinator publishes a batch's arrays **once** into a
:mod:`multiprocessing.shared_memory` segment and ships only tiny
:class:`ArraySpec` descriptors (segment name, dtype, shape, offset);
workers attach the segment and read the columns zero-copy.

Lifecycle is the hard part, so it is owned in one place:

* **Coordinator** — :class:`ShmRegistry` creates segments and hands out
  :class:`ShmLease` handles.  A lease covers one published batch; the
  executor holds it until every shard of that batch has returned (or
  failed for good), then :meth:`ShmLease.release` decrements the
  segment's refcount and the registry ``close()``\\ s and ``unlink()``\\ s
  it at zero.  :meth:`ShmRegistry.close` force-unlinks everything still
  live (run teardown, supervisor-driven rebuilds, crashes), and a
  ``weakref.finalize`` backstop does the same if a registry is dropped
  without ``close()`` — segments must never outlive the run.
* **Worker** — :func:`resolve` attaches a spec's segment and returns a
  read-only ndarray view over the shared buffer.  Attached segments are
  kept in a small per-process LRU cache so a persistent worker folding
  many shards of the same batch (and the next batch, and the next
  query) attaches each segment exactly once — the "warm cache" that
  makes persistent workers cheap.

On the :mod:`multiprocessing.resource_tracker`: pool workers (fork and
spawn alike) inherit the coordinator's tracker fd, so there is exactly
one tracker whose name cache is a *set* — the worker-side attach
re-registering a name is a no-op, and ``unlink()`` unregisters it once.
That single shared tracker is also the last-resort leak net: a segment
somehow surviving this module's cleanup is still unlinked (with a
warning) when the tracker exits.  Do **not** add the much-cited
"unregister after attach" workaround here — that protocol is for
*independent* processes with private trackers; under a shared tracker
it deletes the coordinator's own registration.

Crash safety: a SIGKILLed worker's mappings are reclaimed by the
kernel; the coordinator-side refcount never depended on the worker, so
the supervisor's rebuild path re-dispatches lost shards against the
still-live segment and the lease is released exactly once, after the
shards return.  Nothing in this module affects results — specs resolve to
bit-identical arrays — so every path stays bit-identical to serial.
"""

from __future__ import annotations

import logging
import os
import secrets
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing.shared_memory import SharedMemory
from typing import Dict, List, Optional, Tuple

import numpy as np

logger = logging.getLogger("repro.parallel")

# Hold the resource tracker's lock across every fork.  A pool worker
# forked while another thread sits in ``SharedMemory()`` -> ``register``
# would otherwise inherit the lock held and block on its first attach
# until the round deadline kills it.
try:
    from multiprocessing.resource_tracker import _resource_tracker

    _tracker_lock = _resource_tracker._lock
    os.register_at_fork(before=_tracker_lock.acquire,
                        after_in_parent=_tracker_lock.release,
                        after_in_child=_tracker_lock.release)
except (ImportError, AttributeError):  # pragma: no cover - no fork/tracker
    pass

#: Segment offsets are aligned so every published array starts on a
#: cache-line boundary (also satisfies any dtype's alignment).
_ALIGN = 64

#: Attached segments kept warm per worker process; evicting closes the
#: mapping.  Sized for a few in-flight batches across a few queries —
#: far above what one fold needs, far below any memory concern (closing
#: a mapping does not free the segment; only the coordinator unlinks).
_ATTACH_CACHE_CAP = 32


@dataclass(frozen=True)
class ArraySpec:
    """Where one published ndarray lives inside a shared segment.

    A few primitives instead of the array's bytes: this is the whole
    payload that crosses the process boundary (pickle-small, so the
    ``spawn`` start method works as well as ``fork``).
    """

    segment: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class ShmLease:
    """One published batch worth of arrays; release after the merge.

    ``specs`` maps the published name (e.g. ``"group_idx"``,
    ``"value:total"``) to its :class:`ArraySpec`.  ``release`` is
    idempotent; the registry unlinks the backing segment once every
    lease on it has been released.
    """

    __slots__ = ("specs", "segment", "nbytes", "_registry", "_released")

    def __init__(self, registry: "ShmRegistry", segment: str,
                 specs: Dict[str, ArraySpec], nbytes: int):
        self.specs = specs
        self.segment = segment
        self.nbytes = nbytes
        self._registry = registry
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._registry._decref(self.segment)


class ShmRegistry:
    """Coordinator-side segment registry: create, refcount, unlink.

    Thread-safe: publish, release and the ``weakref.finalize`` backstop
    may run on different threads.
    ``close()`` unlinks every live segment regardless of refcounts —
    it is the teardown/crash backstop, and a ``weakref.finalize`` calls
    it if the registry is garbage-collected while segments live.
    """

    def __init__(self, metrics=None):
        self.metrics = metrics
        self._lock = threading.Lock()
        #: name -> (SharedMemory, refcount)
        self._segments: Dict[str, List] = {}
        #: Every name this registry ever created (leak probing in tests).
        self.created: List[str] = []
        self._unavailable = False
        self._finalizer = weakref.finalize(
            self, _close_segments, self._segments, self._lock
        )

    @property
    def available(self) -> bool:
        return not self._unavailable

    def publish(self, arrays: Dict[str, np.ndarray]) -> Optional[ShmLease]:
        """Copy ``arrays`` into one fresh segment; None when unavailable.

        Arrays are packed back to back at :data:`_ALIGN`-byte offsets.
        A failed creation (no /dev/shm, size limits) logs one warning
        and permanently degrades this registry to the inline-payload
        path — publishing is an optimization, never a requirement.
        """
        if self._unavailable or not arrays:
            return None
        layout: List[Tuple[str, np.ndarray, int]] = []
        offset = 0
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            offset = _align(offset)
            layout.append((name, arr, offset))
            offset += arr.nbytes
        if offset == 0:
            return None
        try:
            segment = SharedMemory(
                create=True, size=offset,
                name=f"repro-{secrets.token_hex(8)}",
            )
        except (OSError, ValueError) as exc:
            logger.warning(
                "shared-memory publish unavailable (%s: %s); falling "
                "back to inline shard payloads", type(exc).__name__, exc,
            )
            self._unavailable = True
            return None
        specs: Dict[str, ArraySpec] = {}
        for name, arr, off in layout:
            dst = np.ndarray(arr.shape, dtype=arr.dtype,
                             buffer=segment.buf, offset=off)
            dst[...] = arr
            specs[name] = ArraySpec(
                segment=segment.name, dtype=arr.dtype.str,
                shape=tuple(arr.shape), offset=off,
            )
        with self._lock:
            self._segments[segment.name] = [segment, 1]
            self.created.append(segment.name)
            live = len(self._segments)
        if self.metrics is not None and self.metrics.enabled:
            self.metrics.counter("parallel.shm_bytes").inc(offset)
            self.metrics.counter("parallel.shm_segments_created").inc()
            self.metrics.gauge("parallel.shm_segments").set(live)
        return ShmLease(self, segment.name, specs, offset)

    def retain(self, name: str) -> None:
        with self._lock:
            entry = self._segments.get(name)
            if entry is not None:
                entry[1] += 1

    def _decref(self, name: str) -> None:
        with self._lock:
            entry = self._segments.get(name)
            if entry is None:
                return
            entry[1] -= 1
            if entry[1] > 0:
                return
            del self._segments[name]
            live = len(self._segments)
        _destroy_segment(entry[0])
        if self.metrics is not None and self.metrics.enabled:
            self.metrics.gauge("parallel.shm_segments").set(live)

    def live_segments(self) -> List[str]:
        with self._lock:
            return list(self._segments)

    def close(self) -> None:
        """Unlink every live segment now (idempotent)."""
        with self._lock:
            segments = [entry[0] for entry in self._segments.values()]
            self._segments.clear()
        for segment in segments:
            _destroy_segment(segment)
        if segments and self.metrics is not None and self.metrics.enabled:
            self.metrics.gauge("parallel.shm_segments").set(0)

    def __enter__(self) -> "ShmRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _destroy_segment(segment) -> None:
    try:
        segment.close()
    except (OSError, BufferError):  # pragma: no cover - exported views
        pass
    try:
        segment.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover
        pass  # already unlinked (e.g. close() after an external cleanup)


def _close_segments(segments: Dict[str, List], lock) -> None:
    """Module-level finalize target (must not capture the registry)."""
    with lock:
        leaked = [entry[0] for entry in segments.values()]
        segments.clear()
    for segment in leaked:
        _destroy_segment(segment)


# -- worker side --------------------------------------------------------

_attach_lock = threading.Lock()
_attach_cache: "OrderedDict[str, object]" = OrderedDict()


def _attach_segment(name: str):
    """Attach (or reuse) one named segment in this process.

    The LRU cache is what keeps persistent workers warm: folding shard
    after shard of the same batch touches the segment map exactly once.
    (Attaching re-registers the name with the shared resource tracker —
    a set-add no-op; see the module docstring for why workers must not
    unregister.)
    """
    with _attach_lock:
        segment = _attach_cache.get(name)
        if segment is not None:
            _attach_cache.move_to_end(name)
            return segment
        segment = SharedMemory(name=name)
        _attach_cache[name] = segment
        while len(_attach_cache) > _ATTACH_CACHE_CAP:
            _, old = _attach_cache.popitem(last=False)
            try:
                old.close()
            except (OSError, BufferError):  # pragma: no cover
                pass
        return segment


def resolve(obj):
    """An :class:`ArraySpec` becomes a read-only zero-copy view; any
    other object (inline ndarray fallback, None) passes through."""
    if not isinstance(obj, ArraySpec):
        return obj
    segment = _attach_segment(obj.segment)
    view = np.ndarray(obj.shape, dtype=np.dtype(obj.dtype),
                      buffer=segment.buf, offset=obj.offset)
    view.flags.writeable = False
    return view


#: Per-process memo of dense-group counts per published group_idx
#: array, keyed by (segment, offset).  Shared group codes are
#: immutable once published, so a persistent worker folding several
#: shards (or retries) of the same batch scans for the max group index
#: exactly once.
_group_count_cache: "OrderedDict[Tuple[str, int], int]" = OrderedDict()
_GROUP_COUNT_CACHE_CAP = 64


def cached_group_count(spec, group_idx: np.ndarray) -> int:
    """``group_idx.max() + 1``, memoized per published segment+offset."""
    if not isinstance(spec, ArraySpec) or len(group_idx) == 0:
        return int(group_idx.max()) + 1 if len(group_idx) else 0
    key = (spec.segment, spec.offset)
    with _attach_lock:
        groups = _group_count_cache.get(key)
        if groups is not None:
            _group_count_cache.move_to_end(key)
            return groups
    groups = int(group_idx.max()) + 1
    with _attach_lock:
        _group_count_cache[key] = groups
        while len(_group_count_cache) > _GROUP_COUNT_CACHE_CAP:
            _group_count_cache.popitem(last=False)
    return groups


def detach_all() -> None:
    """Close every cached attachment in this process (tests/teardown)."""
    with _attach_lock:
        segments = list(_attach_cache.values())
        _attach_cache.clear()
        _group_count_cache.clear()
    for segment in segments:
        try:
            segment.close()
        except (OSError, BufferError):  # pragma: no cover
            pass


def attached_segments() -> List[str]:
    """Names currently warm in this process's attach cache."""
    with _attach_lock:
        return list(_attach_cache)


def segment_exists(name: str) -> bool:
    """Probe whether a named segment still exists system-wide.

    Used by the lifecycle tests to assert no ``/dev/shm`` leaks after
    release / cancel / SIGKILL-induced pool rebuilds.
    """
    try:
        probe = SharedMemory(name=name)
    except FileNotFoundError:
        return False
    probe.close()
    return True
