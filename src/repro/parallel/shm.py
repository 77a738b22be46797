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

* **Coordinator** — one :class:`ShmRegistry` per run owns the run's
  segment.  Each :meth:`ShmRegistry.publish` writes the fold's arrays
  from offset 0 of that one segment and returns a :class:`ShmLease`: the
  specs of a region that stays valid until the run's next publish.
  Folds are eager and sequential within a run, so every shard of a
  fold, and every serial fallback of one, reads the fold's own bytes.
  A publish that outgrows the segment replaces it (the old one is
  unlinked at once); :meth:`ShmRegistry.close` unlinks the run's
  segment when the run finishes, stops or fails, and a
  ``weakref.finalize`` backstop does the same if a registry is dropped
  without ``close()`` — segments must never outlive the run.
* **Worker** — :func:`resolve` attaches a spec's segment and returns a
  read-only ndarray view over the shared buffer.  Attached segments are
  kept in a small per-process cache, so a persistent worker folding
  every batch of a run attaches the run's segment once — the "warm
  cache" that makes persistent workers cheap.  Attaching a segment the
  cache does not hold first closes every cached segment that has been
  unlinked since: a worker keeps a finished run's segment mapped only
  until it next attaches another one.  A forked worker also closes its
  copies of the parent's mappings at once.

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
kernel; the run's segment never depended on the worker, so the
supervisor's serial fallback runs lost shards against the still-live
region before the run publishes again.  Nothing in this module
affects results — specs resolve to bit-identical arrays — so every
path stays bit-identical to serial.
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

#: The attach cache's lock, defined before the fork hooks that hold it.
_attach_lock = threading.Lock()
_attach_cache: "OrderedDict[str, object]" = OrderedDict()

# Hold the attach cache's lock, then the resource tracker's, across
# every fork (the order ``_attach_segment`` nests them in; ``before``
# hooks run in reverse registration order).  A pool worker forked while
# another thread sits in ``_attach_segment`` or in ``SharedMemory()`` ->
# ``register`` would otherwise inherit a lock held and block on its
# first attach until the task deadline kills it.
try:
    from multiprocessing.resource_tracker import _resource_tracker

    _tracker_lock = _resource_tracker._lock
    os.register_at_fork(before=_tracker_lock.acquire,
                        after_in_parent=_tracker_lock.release,
                        after_in_child=_tracker_lock.release)
except (ImportError, AttributeError):  # pragma: no cover - no fork/tracker
    pass

#: Segments this process created and still maps, held weakly.
_published: "weakref.WeakSet" = weakref.WeakSet()


def _close_inherited() -> None:
    """In a forked child: close the copies of every mapping the parent
    held (its runs' segments, its attach cache).  A worker only reads
    segments it attaches by name, and an inherited mapping would pin a
    segment's memory for the worker's life, long after the run that
    owned it has unlinked it."""
    inherited = list(_published) + list(_attach_cache.values())
    _published.clear()
    _attach_cache.clear()
    for segment in inherited:
        try:
            segment.close()
        except (OSError, BufferError):  # pragma: no cover - live views
            pass


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_attach_lock.acquire,
                        after_in_parent=_attach_lock.release,
                        after_in_child=_attach_lock.release)
    os.register_at_fork(after_in_child=_close_inherited)

#: Segment offsets are aligned so every published array starts on a
#: cache-line boundary (also satisfies any dtype's alignment).
_ALIGN = 64

#: Attached segments kept warm per process; evicting closes the mapping.
#: Each live run has one segment and a finished run's is dropped on the
#: next new attach, so this only bounds many runs live at once.
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


@dataclass(frozen=True)
class ShmLease:
    """One publish: where each array of it lives in the run's segment.

    ``specs`` maps the published name (e.g. ``"group_idx"``,
    ``"value:total"``) to its :class:`ArraySpec`.  The region is valid
    until the registry's next publish, which writes over it, or its
    ``close()``, which unlinks it.
    """

    specs: Dict[str, ArraySpec]
    segment: str
    nbytes: int


class ShmRegistry:
    """Coordinator-side owner of one run's segment: create, reuse,
    unlink.

    Thread-safe: publish, close and the ``weakref.finalize`` backstop
    may run on different threads.  ``close()`` unlinks the segment — it
    is the run's teardown and crash backstop, and a ``weakref.finalize``
    calls it if the registry is garbage-collected while the segment
    lives.
    """

    def __init__(self, metrics=None):
        self.metrics = metrics
        self._lock = threading.Lock()
        #: name -> the live SharedMemory segment (at most one)
        self._segments: Dict[str, SharedMemory] = {}
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
        """Copy ``arrays`` into the run's segment; None when unavailable.

        Arrays are packed back to back at :data:`_ALIGN`-byte offsets
        from offset 0, over whatever the previous publish wrote.  A
        publish that does not fit replaces the segment with one a
        quarter larger than it needs, so batches whose sizes wobble do
        not replace it again.  A failed creation (no /dev/shm, size
        limits) logs one warning and permanently disables this
        registry: every later publish returns None and the executor
        folds inline, bit-identical to the pooled fold.
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
        with self._lock:
            segment = next(iter(self._segments.values()), None)
            if segment is None or segment.size < offset:
                try:
                    fresh = SharedMemory(
                        create=True, size=offset + offset // 4,
                        name=f"repro-{secrets.token_hex(8)}",
                    )
                except (OSError, ValueError) as exc:
                    logger.warning(
                        "shared-memory publish unavailable (%s: %s); "
                        "folding inline", type(exc).__name__, exc,
                    )
                    self._unavailable = True
                    return None
                if segment is not None:
                    del self._segments[segment.name]
                    _destroy_segment(segment)
                segment = fresh
                _published.add(segment)
                self._segments[segment.name] = segment
                self.created.append(segment.name)
                if self.metrics is not None and self.metrics.enabled:
                    self.metrics.counter(
                        "parallel.shm_segments_created").inc()
            specs: Dict[str, ArraySpec] = {}
            for name, arr, off in layout:
                dst = np.ndarray(arr.shape, dtype=arr.dtype,
                                 buffer=segment.buf, offset=off)
                dst[...] = arr
                specs[name] = ArraySpec(
                    segment=segment.name, dtype=arr.dtype.str,
                    shape=tuple(arr.shape), offset=off,
                )
        if self.metrics is not None and self.metrics.enabled:
            self.metrics.counter("parallel.shm_bytes").inc(offset)
        return ShmLease(specs, segment.name, offset)

    def live_segments(self) -> List[str]:
        with self._lock:
            return list(self._segments)

    def close(self) -> None:
        """Unlink the run's segment now (idempotent)."""
        _close_segments(self._segments, self._lock)

    def __enter__(self) -> "ShmRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _destroy_segment(segment) -> None:
    """Unlink ``segment`` and close this process's mappings of it."""
    try:
        segment.close()
    except (OSError, BufferError):  # pragma: no cover - exported views
        pass
    try:
        segment.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover
        pass  # already unlinked (e.g. close() after an external cleanup)
    # A serial fallback on this process attached it too.
    with _attach_lock:
        _close_attached([segment.name])


def _close_segments(segments: Dict[str, SharedMemory], lock) -> None:
    """Module-level finalize target (must not capture the registry)."""
    with lock:
        leaked = list(segments.values())
        segments.clear()
    for segment in leaked:
        _destroy_segment(segment)


# -- worker side --------------------------------------------------------


def _unlinked(segment) -> bool:
    """Whether an attached segment's name is gone from the system (its
    open descriptor then has no links left)."""
    fd = getattr(segment, "_fd", -1)
    if fd < 0:  # pragma: no cover - a platform without shm descriptors
        return False
    try:
        return os.fstat(fd).st_nlink == 0
    except OSError:  # pragma: no cover
        return True


def _close_attached(names) -> None:
    """Close and forget these cached attachments (``_attach_lock``
    held).  One with views still exported stays cached; a later close,
    eviction or :func:`detach_all` retries it."""
    for name in names:
        segment = _attach_cache.get(name)
        if segment is None:
            continue
        try:
            segment.close()
        except (OSError, BufferError):  # pragma: no cover - live views
            continue
        del _attach_cache[name]


def _attach_segment(name: str):
    """Attach (or reuse) one named segment in this process.

    The cache is what keeps persistent workers warm: folding batch
    after batch of a run touches the segment map exactly once.  A miss
    means a new run (or a grown segment), so it first drops every
    cached segment that has been unlinked since: a worker never pins a
    finished run's ``/dev/shm`` memory past its next new attach.
    (Attaching re-registers the name with the shared resource tracker —
    a set-add no-op; see the module docstring for why workers must not
    unregister.)
    """
    with _attach_lock:
        segment = _attach_cache.get(name)
        if segment is not None:
            _attach_cache.move_to_end(name)
            return segment
        _close_attached([cached for cached, held in _attach_cache.items()
                         if _unlinked(held)])
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
    other object (None, or an ndarray a direct caller passed) passes
    through."""
    if not isinstance(obj, ArraySpec):
        return obj
    segment = _attach_segment(obj.segment)
    view = np.ndarray(obj.shape, dtype=np.dtype(obj.dtype),
                      buffer=segment.buf, offset=obj.offset)
    view.flags.writeable = False
    return view


def detach_all() -> None:
    """Close every cached attachment in this process (tests/teardown)."""
    with _attach_lock:
        segments = list(_attach_cache.values())
        _attach_cache.clear()
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
    a run ends, stops or fails, and after SIGKILL-induced pool rebuilds.
    """
    try:
        probe = SharedMemory(name=name)
    except FileNotFoundError:
        return False
    probe.close()
    return True
