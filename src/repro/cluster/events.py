"""A minimal discrete-event simulation kernel.

Generic priority-queue event loop used by the cluster simulator: events
are (time, action) pairs; actions may schedule further events.  Kept
independent of cluster semantics so tests can exercise it directly and
other substrates could reuse it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Tuple


class EventLoop:
    """Priority-queue driven simulated clock."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callable]] = []
        self._counter = itertools.count()  # FIFO tie-break at equal times
        self.now = 0.0

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` ``delay`` simulated seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(
            self._queue, (self.now + delay, next(self._counter), action)
        )

    def schedule_at(self, when: float, action: Callable[[], None]) -> None:
        """Run ``action`` at absolute simulated time ``when``.

        ``when`` is often computed by accumulating float durations, so it
        can land a few ULPs before ``now``; such deltas in ``[-1e-9, 0)``
        are clamped to "immediately" rather than rejected.
        """
        delta = when - self.now
        if -1e-9 <= delta < 0.0:
            delta = 0.0
        self.schedule(delta, action)

    def run(self) -> float:
        """Drain all events; returns the final simulated time."""
        while self._queue:
            when, _, action = heapq.heappop(self._queue)
            self.now = when
            action()
        return self.now

    def __len__(self) -> int:
        return len(self._queue)


class SlotHeap:
    """Greedy earliest-available-worker task placement.

    Models a homogeneous executor pool: ``submit`` places a task of the
    given duration on the worker that frees up first and returns its
    completion time.  ``makespan`` is when the last task finishes.

    Workers live in a ``(free_at, worker_id)`` heap so each submit is
    O(log W) — a linear min-scan made large simulated pools quadratic in
    the task count.  The ``worker_id`` tie-break preserves the old
    lowest-index-first placement exactly.
    """

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self._heap: List[Tuple[float, int]] = [
            (0.0, wid) for wid in range(num_workers)
        ]
        self._makespan = 0.0

    def submit(self, duration: float, not_before: float = 0.0) -> float:
        free_at, worker = heapq.heappop(self._heap)
        start = max(free_at, not_before)
        finish = start + duration
        heapq.heappush(self._heap, (finish, worker))
        if finish > self._makespan:
            self._makespan = finish
        return finish

    def submit_all(self, durations, not_before: float = 0.0) -> float:
        """Submit many tasks (longest-first for a tighter makespan)."""
        finish = not_before
        for duration in sorted(durations, reverse=True):
            finish = max(finish, self.submit(duration, not_before))
        return finish

    @property
    def makespan(self) -> float:
        return self._makespan

    def reset(self) -> None:
        self._heap = [(0.0, wid) for wid in range(self.num_workers)]
        self._makespan = 0.0
