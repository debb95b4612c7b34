"""Small timer utility wrapping kernel event handles."""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.event import EventHandle
from repro.sim.simulator import Simulator


class Timer:
    """A restartable one-shot timer.

    Procedures use these for the spec timeouts (pagerespTO, inquiry/page
    timeouts, newconnectionTO, backoff...). Re-arming cancels the previous
    schedule.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None]):
        self._sim = sim
        self._callback = callback
        self._handle: Optional[EventHandle] = None

    def arm(self, delay_ns: int) -> None:
        """(Re)start the timer to fire after ``delay_ns``."""
        self.arm_abs(self._sim.now + delay_ns)

    def arm_abs(self, time_ns: int) -> None:
        """(Re)start the timer to fire at absolute ``time_ns``."""
        self.cancel()
        self._handle = self._sim.schedule_cancellable(time_ns, self._callback)

    def cancel(self) -> None:
        """Stop the timer if pending."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def pending(self) -> bool:
        """True while armed."""
        return self._handle is not None and self._handle.pending
