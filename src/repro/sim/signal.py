"""Signals with delta-delayed writes and change notification.

A :class:`Signal` mimics ``sc_signal``: ``write()`` does not change the
visible value immediately.  The simulator's update phase commits it once
the writing delta is over (see :class:`~repro.sim.simulator.Simulator`),
and notifies subscribers with ``delta`` advanced by one.  Multiple writes
within the same delta collapse to the last one (last-write-wins, like
SystemC's request/update semantics).  A write schedules no event: the
kernel keeps one list of written signals and commits them all together.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

from repro.sim.simulator import Simulator

T = TypeVar("T")

_NO_WRITE = object()


class Signal(Generic[T]):
    """A single-driver signal carrying values of type ``T``.

    Attributes:
        name: hierarchical name (used by tracers).
    """

    __slots__ = ("_sim", "name", "_value", "_pending", "_update_scheduled",
                 "_subscribers", "_last_change_ns")

    def __init__(self, sim: Simulator, name: str, initial: T):
        self._sim = sim
        self.name = name
        self._value: T = initial
        self._pending: object = _NO_WRITE
        self._update_scheduled = False
        self._subscribers: list[Callable[[T, T], None]] = []
        self._last_change_ns: int = 0

    # -- value access ---------------------------------------------------

    def read(self) -> T:
        """Current committed value."""
        return self._value

    @property
    def value(self) -> T:
        """Alias for :meth:`read`, convenient in expressions."""
        return self._value

    def write(self, value: T) -> None:
        """Request the signal to take ``value`` one delta cycle from now.

        Writing the committed value again while no write is pending is a
        no-op: the commit would compare-equal and change neither the
        value, ``last_change_ns`` nor any subscriber's view, so a
        re-assert stays out of the update phase.
        """
        if not self._update_scheduled:
            if value == self._value:
                return
            self._update_scheduled = True
            self._sim._updates.append(self)
        self._pending = value

    def write_now(self, value: T) -> None:
        """Commit ``value`` immediately (bypasses the delta delay).

        Use only from contexts that are not racing other readers, e.g.
        initialisation before the simulation starts.
        """
        self._pending = value
        self._update_scheduled = False
        self._commit()

    # -- subscription -----------------------------------------------------

    def subscribe(self, callback: Callable[[T, T], None]) -> None:
        """Call ``callback(old, new)`` after every committed change."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[T, T], None]) -> None:
        """Remove a previously subscribed callback."""
        self._subscribers.remove(callback)

    @property
    def last_change_ns(self) -> int:
        """Simulation time of the most recent committed change."""
        return self._last_change_ns

    # -- internals --------------------------------------------------------

    def _commit(self) -> None:
        """Make the pending write visible (the simulator's update phase
        and :meth:`write_now` call this)."""
        self._update_scheduled = False
        pending = self._pending
        if pending is _NO_WRITE:
            return
        self._pending = _NO_WRITE
        old = self._value
        new = pending  # type: ignore[assignment]
        if new == old:
            return
        self._value = new
        self._last_change_ns = self._sim.now
        for callback in list(self._subscribers):
            callback(old, new)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name}={self._value!r})"
