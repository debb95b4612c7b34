"""The event queue: a binary heap of plain tuple entries."""

from __future__ import annotations

import heapq
from typing import Callable

from repro.errors import SimulationError
from repro.sim.event import EventHandle


class EventQueue:
    """Priority queue ordered by ``(time_ns, delta, sequence)``.

    Heap entries are ``(time_ns, delta, sequence, callback)`` tuples: the
    unique, monotonically increasing sequence number breaks every tie, so
    heap comparisons resolve entirely inside the C tuple comparison and
    never reach the callback.  The simulator's dispatch loop pops the
    heap directly.

    Every queued event passes through :meth:`push`.  Cancellation removes
    the entry from the heap (:meth:`remove`), so the heap holds exactly
    the live events and ``len`` is their count.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int, Callable[[], None]]] = []
        self._sequence = 0

    def __len__(self) -> int:
        """Number of live (uncancelled, unfired) events."""
        return len(self._heap)

    def push(self, time_ns: int, delta: int,
             callback: Callable[[], None]) -> tuple:
        """Schedule ``callback`` at absolute time ``time_ns``, delta
        ``delta``; returns the heap entry."""
        if time_ns < 0:
            raise SimulationError(f"cannot schedule at negative time {time_ns}")
        self._sequence += 1
        entry = (time_ns, delta, self._sequence, callback)
        heapq.heappush(self._heap, entry)
        return entry

    def push_cancellable(self, time_ns: int, delta: int,
                         callback: Callable[[], None]) -> EventHandle:
        """:meth:`push` ``callback`` behind a handle that can cancel it."""
        handle = EventHandle(self, time_ns, callback)
        handle._entry = self.push(time_ns, delta, handle)
        return handle

    def remove(self, entry: tuple) -> None:
        """Take ``entry`` out of the heap (a cancellation) by a linear
        search and a re-heapify.  Cancels are rare and the heap is short:
        perfbench's piconet_creation, dense_interference and low_power
        workloads (seed 0) cancel 674, 251 and 4,660 of 1,217,159,
        988,755 and 512,341 queued events, with at most 60 entries in
        the heap at a cancel."""
        heap = self._heap
        index = heap.index(entry)
        last = heap.pop()
        if index < len(heap):
            heap[index] = last
            heapq.heapify(heap)
