"""Scheduled-event bookkeeping for the kernel.

Events are callbacks ordered by a ``(time_ns, delta, sequence)`` key.
``delta`` implements SystemC-style delta cycles: signal writes commit in
the update phase that ends the writing delta (see
:class:`~repro.sim.simulator.Simulator`), so same-timestamp communication
between modules is deterministic and race-free. ``sequence`` makes the ordering total and FIFO
among equals.
"""

from __future__ import annotations

from typing import Callable


class ScheduledEvent:
    """One scheduled callback; doubles as its own cancellation handle.

    Events carry no ordering of their own: the queue orders C-comparable
    ``(time_ns, delta, sequence)`` tuple keys, so heap sifting never calls
    back into Python (the dataclass-generated ``__lt__`` this replaces was
    the hottest function of bit-accurate Monte-Carlo runs).

    The scheduling entry points hand the event straight back to the caller
    as the cancellation token — a separate wrapper object per scheduled
    event (the previous ``EventHandle``) cost one allocation on the
    kernel's hottest path.  Cancellation stays cheap and safe: cancelling
    an event that already fired (or cancelling twice) is a no-op returning
    False.
    """

    __slots__ = ("time_ns", "delta", "sequence", "callback", "cancelled")

    def __init__(self, time_ns: int, delta: int, sequence: int,
                 callback: Callable[[], None]):
        self.time_ns = time_ns
        self.delta = delta
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> bool:
        """Prevent the event from firing. Returns True if it was pending."""
        if self.cancelled or self.callback is _FIRED:
            return False
        self.cancelled = True
        return True

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled."""
        return not self.cancelled and self.callback is not _FIRED


#: Back-compat alias: the scheduling API used to return a wrapper class of
#: this name; the event object itself now implements the same interface
#: (``cancel()``, ``pending``, ``time_ns``).
EventHandle = ScheduledEvent


def _FIRED() -> None:  # sentinel callback installed after dispatch
    raise AssertionError("fired sentinel must never be called")
