"""Scheduled-event bookkeeping for the kernel.

The queue holds plain ``(time_ns, delta, sequence, callback)`` tuples
(see :class:`~repro.sim.scheduler.EventQueue`), so scheduling an event
allocates one tuple and nothing else.  ``delta`` implements SystemC-style
delta cycles: signal writes commit in the update phase that ends the
writing delta (see :class:`~repro.sim.simulator.Simulator`), so
same-timestamp communication between modules is deterministic and
race-free.  ``sequence`` makes the ordering total and FIFO among equals.

An event that may have to be taken back is scheduled through
:meth:`~repro.sim.simulator.Simulator.schedule_cancellable`, which queues
an :class:`EventHandle` as the entry's callback.  Only the few call sites
that cancel pay for one.
"""

from __future__ import annotations

from typing import Callable, Optional


class EventHandle:
    """Cancellation handle of one queued event, queued as its callback.

    Cancelling takes the entry out of the heap at once, so a cancelled
    event never counts among the simulator's pending or dispatched
    events.  Cancelling an event that already fired (or cancelling twice)
    is a no-op returning False.  A fired or cancelled handle drops its
    callback, so a handle its owner keeps does not keep the callback's
    object graph alive.
    """

    __slots__ = ("time_ns", "callback", "_queue", "_entry")

    def __init__(self, queue, time_ns: int, callback: Callable[[], None]):
        self.time_ns = time_ns
        self.callback = callback
        self._queue = queue
        #: the heap entry while the event is queued, else None
        self._entry: Optional[tuple] = None

    def __call__(self) -> None:
        self._entry = None
        callback = self.callback
        self.callback = None
        callback()

    def cancel(self) -> bool:
        """Prevent the event from firing. Returns True if it was pending."""
        entry = self._entry
        if entry is None:
            return False
        self._entry = None
        self.callback = None
        self._queue.remove(entry)
        return True

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled."""
        return self._entry is not None
