"""The simulation kernel: advances time, fires events, hosts processes."""

from __future__ import annotations

from heapq import heappop
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.sim.event import EventHandle
from repro.sim.scheduler import EventQueue


class Simulator:
    """A discrete-event simulator with SystemC-style delta cycles.

    Typical use::

        sim = Simulator()
        sim.schedule(1_000, lambda: print("at 1us"))
        sim.run(until_ns=1_000_000)

    Signal writes take effect in an **update phase**, as in SystemC: the
    kernel keeps the signals written in the current delta and commits
    them, notifying their subscribers with ``delta`` advanced by one,
    before it dispatches the first event of a later ``(time, delta)``
    and before :meth:`run` returns after draining or reaching
    ``until_ns``.  After the commits the update phase runs the hooks
    registered in the ending delta, in registration order: the channel
    runs each transmission's listener scan there, with no event of its
    own.  A run ended by :meth:`stop` or ``max_events``
    leaves the writes and hooks pending for the next run, as a queued
    commit would be.

    The queue holds plain tuples and the dispatch loop pops them itself;
    only :meth:`schedule_cancellable` hands back a handle.

    Attributes:
        now: current simulation time in nanoseconds.
        delta: current delta cycle within ``now`` (0 for ordinary events).
    """

    def __init__(self) -> None:
        self.now: int = 0
        self.delta: int = 0
        self._queue = EventQueue()
        self._push = self._queue.push
        self._stopped = False
        self._events_dispatched = 0
        self._end_callbacks: list[Callable[[], None]] = []
        #: signals written since the last update phase, in first-write
        #: order (Signal.write appends; _update commits)
        self._updates: list = []
        #: callbacks the next update phase runs after its commits
        #: (Channel.transmit registers its listener scans)
        self._update_hooks: list[Callable[[], None]] = []
        #: the delta those writes and hooks belong to; None until the
        #: dispatch loop first sees them pending
        self._update_delta: Optional[int] = None
        #: runs that returned after draining or at their bound: each ends
        #: the current delta even when no update phase had work to do
        #: (an unobserved radio's receiver-write record reads it)
        self._run_ends = 0
        #: True once a run() without ``until_ns`` has emptied the queue:
        #: every event the world scheduled has fired
        self._ran_dry = False
        #: the slot engine a Session attaches (repro.sim.soa.SlotEngine):
        #: every bounded run offers it the window first
        self._slot_engine = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay_ns: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay_ns`` nanoseconds (>= 0)."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        self._push(self.now + delay_ns, 0, callback)

    def schedule_abs(self, time_ns: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute time ``time_ns`` (>= now)."""
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns, already at {self.now} ns"
            )
        self._push(time_ns, 0, callback)

    def schedule_delta(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the current time, one delta cycle later.

        Every event of the current delta runs before it, and it sees the
        signal writes of the current delta committed (the update phase
        between the two deltas commits them).
        """
        self._push(self.now, self.delta + 1, callback)

    def schedule_cancellable(self, time_ns: int,
                             callback: Callable[[], None]) -> EventHandle:
        """:meth:`schedule_abs`, returning a handle that can cancel the
        event (the only scheduling call that builds one)."""
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns, already at {self.now} ns"
            )
        return self._queue.push_cancellable(time_ns, 0, callback)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        until_ns: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Dispatch events until the queue drains, ``until_ns`` is reached,
        ``max_events`` have fired, or :meth:`stop` is called.

        Events scheduled exactly at ``until_ns`` are *not* executed; time is
        left at ``until_ns`` in that case (mirrors SystemC's sc_start).

        A run with ``until_ns`` and no ``max_events`` first offers its
        window to the attached slot engine, which steps it itself when the
        world is in the steady connection state, with the same outcome;
        otherwise the engine declines and the events are dispatched here.

        Returns the number of events dispatched by this call.
        """
        self._stopped = False
        self._ran_dry = False
        engine = self._slot_engine
        if engine is not None and until_ns is not None and max_events is None:
            before = self._events_dispatched
            if engine.run(until_ns):
                return self._events_dispatched - before
        dispatched = 0
        heap = self._queue._heap
        updates = self._updates
        hooks = self._update_hooks
        while not self._stopped:
            if max_events is not None and dispatched >= max_events:
                break
            if updates or hooks:
                # update phase: commit once the writing delta is over
                if self._update_delta is None:
                    self._update_delta = self.delta
                if not heap or heap[0][0] != self.now \
                        or heap[0][1] > self._update_delta \
                        or (until_ns is not None and heap[0][0] >= until_ns):
                    self._update()
                    continue
            if not heap:
                if until_ns is not None:
                    if until_ns > self.now:
                        self.delta = 0
                        self.now = until_ns
                else:
                    self._ran_dry = True
                self._run_ends += 1
                break
            time_ns, delta, _, callback = heap[0]
            if until_ns is not None and time_ns >= until_ns:
                # time moves to the bound; a stop by the bound (not by
                # exhaustion) also starts the delta count afresh
                self.delta = 0
                self.now = max(self.now, until_ns)
                self._run_ends += 1
                break
            heappop(heap)
            self.now = time_ns
            self.delta = delta
            callback()
            dispatched += 1
        self._events_dispatched += dispatched
        return dispatched

    def _update(self) -> None:
        """The update phase: commit every pending signal write in
        first-write order, with ``delta`` advanced past the writing delta,
        then run the hooks registered in that delta.  Writes and hooks
        made while it runs belong to the new delta and wait for the next
        update phase."""
        batch = self._updates[:]
        self._updates.clear()
        hooks = self._update_hooks[:]
        self._update_hooks.clear()
        stamp = self._update_delta
        self.delta = (self.delta if stamp is None else stamp) + 1
        self._update_delta = None
        for signal in batch:
            signal._commit()
        for hook in hooks:
            hook()

    def stop(self) -> None:
        """Stop the current :meth:`run` after the event being dispatched."""
        self._stopped = True

    def finish(self) -> None:
        """Invoke registered end-of-simulation callbacks (tracers, reports)."""
        for callback in self._end_callbacks:
            callback()
        self._end_callbacks.clear()

    def at_end(self, callback: Callable[[], None]) -> None:
        """Register a callback to run when :meth:`finish` is called."""
        self._end_callbacks.append(callback)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Number of live (uncancelled, unfired) events in the queue."""
        return len(self._queue)

    @property
    def events_dispatched(self) -> int:
        """Total events dispatched over the simulator's lifetime."""
        return self._events_dispatched
