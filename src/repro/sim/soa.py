"""Slot engine: whole-window stepping of the steady connection state.

The object kernel dispatches one Python event per active device per
slot, each through the general-purpose kernel loop (update phase,
cancellable handles, one callback object per event).  Bluetooth is
slot-synchronous, so in the steady connection state the same handful of
event shapes recurs every 1250 µs.  :class:`SlotEngine` steps such a
window ``[now, until)`` for every piconet at once:

* the window's hop selections for **all** masters are prefilled in
  :func:`~repro.baseband.hop.connection_windows_many` array passes, one
  per :data:`FILL_SLOTS` slots of the window (each slave shares its
  master's per-address memo row, so it is filled once);
* the pending event queue is **absorbed** into a micro-heap of plain
  ``(time, delta, seq, kind, a, b)`` tuples, and a single loop pops each
  micro event and calls the one function that handles its kind.

There is one copy of each handler.  The functions the loop calls are the
ones the object kernel's events call: the connection handlers'
``serve_pair``, ``open_reply_window``, ``listen``, ``_reply`` and
``_rx_close`` (:mod:`repro.link.connection`), the saturated source's
``_refill`` (:mod:`repro.link.traffic`) and the channel's ``scan``,
``sync``, ``header`` and ``end`` stages (:mod:`repro.phy.channel`).  Each
acts and returns what follows it (the master's ``serve_pair`` also
returns the listen and close events of the slaves its packet wakes from a
doze); the object kernel queues that on the simulator and this loop on
its micro-heap.  The loop keeps the
simulator's clock at each event's time, so the handlers read it as they
do under the object kernel.  A transmission's listener scan runs, as in
the object kernel's update phase, once the transmitting delta is over.  Both kernels therefore dispatch the
same events in the same order, with the same outcomes, RNG draws and
:class:`~repro.sim.capture.TimelineCapture` records; the golden digests
(``tests/sim/test_soa_equivalence.py``, ``tests/experiment_goldens.py``)
and ``tests/sim/test_kernel_agreement.py`` pin this.

Every :class:`~repro.api.Session` attaches one to its simulator, and
:meth:`Simulator.run <repro.sim.simulator.Simulator.run>` offers it the
window of every bounded run before dispatching a single event.

**Fallback boundary.**  The engine only absorbs worlds in the steady
connection state: active masters/slaves under the default round-robin
policy, saturated traffic, optional static interferers and manual AFH
maps.  Anything rarer — inquiry/page bring-up, LMP traffic, sniff/hold/
park, AFH controllers, frequency-following receivers, probe/trace
subscribers — fails the eligibility gate or the event classification and
the engine declines the window, which the object kernel then dispatches.
"""

from __future__ import annotations

import heapq
from functools import partial

from repro import units
from repro.baseband.hop import HopSelector, connection_windows_many
from repro.baseband.packets import PacketType
from repro.link.connection import ConnectionMaster, ConnectionSlave
from repro.link.polling import RoundRobinPolicy
from repro.link.states import ConnectionMode
from repro.link.traffic import SaturatedTraffic
from repro.phy.channel import Channel
from repro.sim.event import EventHandle

# micro event kinds
K_MASTER_EVEN = 0
K_MASTER_RX = 1
K_RX_CLOSE = 2
K_SLAVE_LISTEN = 3
K_SLAVE_REPLY = 4
K_REFILL = 5
K_SYNC = 6
K_HEADER = 7
K_END = 8

#: The object kernel's callback of each kind: a method of the event's
#: owner (a connection handler or a saturated source) ...
_OWNER_METHODS = {K_MASTER_EVEN: "_even_slot", K_MASTER_RX: "_rx_slot",
                  K_RX_CLOSE: "_rx_close", K_SLAVE_LISTEN: "_master_slot",
                  K_SLAVE_REPLY: "_reply", K_REFILL: "_refill"}
#: ... or a channel stage bound to its transmission and listener(s).
_STAGE_METHODS = {K_SYNC: "_sync_batch", K_HEADER: "_header_stage",
                  K_END: "_end_stage"}

_OWNER_KINDS = {getattr(cls, name): kind
                for cls in (ConnectionMaster, ConnectionSlave,
                            SaturatedTraffic)
                for kind, name in _OWNER_METHODS.items()
                if hasattr(cls, name)}
_STAGE_KINDS = {getattr(Channel, name): kind
                for kind, name in _STAGE_METHODS.items()}

#: Slots of hop frequencies the window prefill fills: half a connection
#: memo, so the memo bound holds (a prefill of a whole long window would
#: put every one of its slots in each memo).
FILL_SLOTS = HopSelector._MEMO_MAX // 2


def _classify(callback, channel: Channel) -> tuple | None:
    """The micro ``(kind, a, b)`` of an object-kernel callback, or None
    for one the engine does not run."""
    func = getattr(callback, "__func__", None)
    if func is not None:
        kind = _OWNER_KINDS.get(func)
        return None if kind is None else (kind, callback.__self__, None)
    if type(callback) is partial \
            and getattr(callback.func, "__self__", None) is channel:
        kind = _STAGE_KINDS.get(callback.func.__func__)
        if kind is not None:
            tx, listeners = callback.args
            return kind, tx, listeners
    return None


class SlotEngine:
    """Slot-synchronous engine for one Session's world.

    ``run(until_ns)`` returns True when the window was executed here
    (byte-identically to the object kernel); False means the world is not
    absorbable right now and ``Simulator.run`` dispatches the window
    itself.  Construction is cheap; all binding happens per window.
    """

    def __init__(self, session):
        self.session = session
        self.windows_absorbed = 0
        self.windows_declined = 0
        self.micro_events = 0

    # -- public entry ---------------------------------------------------

    def run(self, until_ns: int) -> bool:
        sim = self.session.sim
        if until_ns <= sim.now:
            return False
        absorbed = self._try_absorb()
        if absorbed is None:
            self.windows_declined += 1
            return False
        self.windows_absorbed += 1
        heap, masters, slaves = absorbed
        start = sim.now
        while start < until_ns:
            # a prefill covers the lookups of every event before `end`
            end = min(until_ns, start + (FILL_SLOTS - 8) * units.SLOT_NS)
            self._prefill_hops(masters, slaves, start, end)
            self._micro_loop(heap, end)
            start = end
        self._handback(heap, until_ns)
        return True

    # -- eligibility ----------------------------------------------------

    def _eligible(self):
        """Gate the world: return (masters, slaves) or None.

        Only the steady connection state qualifies: every excluded
        feature queues events the engine does not classify, or writes
        signals that need the object kernel's update phase.
        """
        session = self.session
        if not session.config.rf.carrier_sense:
            return None
        channel = session.channel
        if channel._following:
            return None
        topology = channel._topology
        if topology is not None and topology.mobility is not None:
            # positions move on the mobility cadence's own events
            return None
        masters: list[ConnectionMaster] = []
        slaves: list[ConnectionSlave] = []
        for device in session.devices:
            rf = device.rf
            if rf.enable_tx._subscribers or rf.enable_rx._subscribers \
                    or device.sig_state._subscribers:
                return None  # probes / tracers watch the radio's writes
            h = device.active_handler
            if h is None:
                if rf.rx_open or rf.locked_tx is not None:
                    return None  # scanning procedure without a handler
                continue
            if type(h) is ConnectionMaster:
                if type(h.policy) is not RoundRobinPolicy:
                    return None
                if h.afh is not None or h._beacon_interval_pairs is not None:
                    return None
                if h.hold_schedules or h._resync_needed or h.piconet._parked:
                    return None
                for link in h.piconet.slaves.values():
                    if link.mode is not ConnectionMode.ACTIVE \
                            or link.sniff is not None or link.hold is not None:
                        return None
                masters.append(h)
            elif type(h) is ConnectionSlave:
                if h.mode is not ConnectionMode.ACTIVE or h._resyncing:
                    return None
                slaves.append(h)
            else:
                return None
            for buffer in device.tx_buffers.values():
                if buffer._lmp:
                    return None  # LMP is control plane: object kernel only
        return masters, slaves

    # -- absorb ---------------------------------------------------------

    def _try_absorb(self):
        """Classify the pending event queue into micro tuples; returns
        the micro-heap and the world's masters and slaves, or None.

        Two-phase: nothing is mutated until every entry has classified.
        Unknown callbacks (procedures, timers, non-saturated traffic, …)
        abort the absorb and leave the queue untouched.
        """
        states = self._eligible()
        if states is None:
            return None
        masters, slaves = states
        sim = self.session.sim
        channel = self.session.channel
        for signal in sim._updates:
            if signal._subscribers:
                return None  # a pending write someone observes
        if sim._update_hooks:
            return None  # listener scans of the current delta are pending
        handlers = {id(h) for h in masters} | {id(h) for h in slaves}
        radios = {id(h.device.rf) for h in masters} \
            | {id(h.device.rf) for h in slaves}

        def framed(tx) -> bool:
            packet = tx.packet
            return packet.ptype not in (PacketType.ID, PacketType.FHS) \
                and packet.llid != 3

        micro: list[tuple] = []
        handles: list[EventHandle] = []
        for t, delta, seq, cb in sim._queue._heap:
            if type(cb) is EventHandle:
                handles.append(cb)
                cb = cb.callback
            event = _classify(cb, channel)
            if event is None:
                return None
            kind, a, b = event
            if kind == K_RX_CLOSE:
                b = a.device.rf
            if kind == K_REFILL:
                if type(a) is not SaturatedTraffic:
                    return None
            elif kind < K_SYNC:
                if id(a) not in handlers:
                    return None
            elif not framed(a) or not radios.issuperset(
                    map(id, b if kind == K_SYNC else (b,))):
                return None
            micro.append((t, delta, seq, kind, a, b))

        # classification succeeded — commit the absorb; the pending
        # writes nobody subscribes to go through the update phase first
        if sim._updates:
            sim._update()
        for handle in handles:
            handle._entry = None  # the micro loop owns the event now
        sim._queue._heap.clear()
        heapq.heapify(micro)
        return micro, masters, slaves

    def _prefill_hops(self, masters, slaves, now: int, until_ns: int) -> None:
        """One batched hop pass covering every piconet from ``now`` to
        ``until_ns`` (at most :data:`FILL_SLOTS` slots), so the handlers
        resolve each slot with a memo hit.

        A slave's selector shares its master's memo (both are bound to
        the master's address in the world's HopRegistry), so the master's
        row serves both sides and a slave whose memo and start clock match
        a master's is not filled again; the slaves a master's row does not
        cover are filled in a second pass.
        """
        window = min(int(until_ns - now) // units.SLOT_NS + 8, FILL_SLOTS)
        filled = set()
        if masters:
            selectors = [h.device.hop_selector for h in masters]
            # even-parity CLK at the window start: the slot grid's hop clock
            starts = [h.device.clock.clk(now) & ~1 for h in masters]
            connection_windows_many(selectors, starts, window)
            filled = {(id(selector._connection_memo), start)
                      for selector, start in zip(selectors, starts)}
        selectors, starts = [], []
        for h in slaves:
            start = h.clock.clk(now) & ~1
            key = (id(h.selector._connection_memo), start)
            if key not in filled:
                filled.add(key)
                selectors.append(h.selector)
                starts.append(start)
        if selectors:
            connection_windows_many(selectors, starts, window)

    # -- the micro loop -------------------------------------------------

    def _micro_loop(self, heap: list, until_ns: int) -> None:
        """Dispatch the absorbed window: pop each micro event, call the
        handler of its kind and queue what it returns.

        An event's last follow-up is held back and pushed by the
        ``heappushpop`` that takes the next event, one heap pass instead
        of two.  Every follow-up lies later than its event, so holding it
        back never hides an event of the current delta."""
        sim = self.session.sim
        channel = self.session.channel
        scan, sync, header, end = \
            channel.scan, channel.sync, channel.header, channel.end
        sync_offset = channel._sync_offset
        header_offset = channel._header_offset
        end_delay = channel._end_delay
        unscanned = channel._unscanned
        hooks = sim._update_hooks
        push = heapq.heappush
        pop = heapq.heappop
        pushpop = heapq.heappushpop
        seq = sim._queue._sequence
        dispatched = 0
        owner_kinds = _OWNER_KINDS
        # the kinds as locals: the loop compares them for every event
        k_sync, k_header, k_end, k_rx_close = \
            K_SYNC, K_HEADER, K_END, K_RX_CLOSE
        k_master_even, k_master_rx, k_slave_listen, k_slave_reply = \
            K_MASTER_EVEN, K_MASTER_RX, K_SLAVE_LISTEN, K_SLAVE_REPLY
        held = None
        while True:
            if held is None:
                if not heap or heap[0][0] >= until_ns:
                    break
                event = pop(heap)
            else:
                event = pushpop(heap, held)
                held = None
                if event[0] >= until_ns:
                    push(heap, event)
                    break
            t, delta, _seq, kind, a, b = event
            sim.now = t
            sim.delta = delta
            dispatched += 1
            if kind == k_sync:
                for listener in sync(a, b):
                    if held is not None:
                        push(heap, held)
                    seq += 1
                    held = (a.start_ns + header_offset, 0, seq, k_header, a,
                            listener)
            elif kind == k_header:
                if header(a, b):
                    seq += 1
                    held = (a.start_ns + a.duration_ns + end_delay, 0, seq,
                            k_end, a, b)
            elif kind == k_end:
                follow = end(a, b)
                if follow:
                    # a reply or a refill: a handler's or source's method
                    for time_ns, callback in follow:
                        if held is not None:
                            push(heap, held)
                        seq += 1
                        held = (time_ns, 0, seq, owner_kinds[callback.__func__],
                                callback.__self__, None)
            elif kind == k_rx_close:
                b.rx_close()  # the handler's _rx_close
            elif kind == k_master_even:
                wake_ns, reply_ns, woken = a.serve_pair()
                if wake_ns is not None:
                    seq += 1
                    held = (wake_ns, 0, seq, k_master_even, a, None)
                if reply_ns is not None:
                    if held is not None:
                        push(heap, held)
                    seq += 1
                    held = (reply_ns, 0, seq, k_master_rx, a, None)
                # the listen and close events of the slaves the packet
                # woke from a doze
                for time_ns, callback in woken:
                    if held is not None:
                        push(heap, held)
                    seq += 1
                    slave = callback.__self__
                    woken_kind = owner_kinds[callback.__func__]
                    held = (time_ns, 0, seq, woken_kind, slave,
                            slave.device.rf if woken_kind == k_rx_close
                            else None)
            elif kind == k_master_rx:
                close_ns = a.open_reply_window()
                if close_ns is not None:
                    seq += 1
                    held = (close_ns, 0, seq, k_rx_close, a, a.device.rf)
            elif kind == k_slave_listen:
                next_ns, close_ns = a.listen()
                if next_ns is not None:
                    seq += 1
                    held = (next_ns, 0, seq, k_slave_listen, a, None)
                if close_ns is not None:
                    if held is not None:
                        push(heap, held)
                    seq += 1
                    held = (close_ns, 0, seq, k_rx_close, a, a.device.rf)
            elif kind == k_slave_reply:
                a._reply()
            else:  # K_REFILL
                a._refill()
            if unscanned and not (heap and heap[0][0] == t
                                   and heap[0][1] == delta):
                # the delta is over: scan for the listeners of its
                # transmissions, as the object kernel's update phase does
                for tx in unscanned:
                    receivers = scan(tx)
                    if receivers:
                        seq += 1
                        push(heap, (tx.start_ns + sync_offset, 0, seq,
                                    k_sync, tx, receivers))
                unscanned.clear()
                hooks.clear()
        sim._queue._sequence = seq
        self.micro_events += dispatched
        sim._events_dispatched += dispatched

    # -- handback -------------------------------------------------------

    def _handback(self, heap: list, until_ns: int) -> None:
        """Re-materialise the remaining micro events as kernel events,
        leaving the world exactly where the object kernel's run would
        have.  The enable signals need no reconciling: the handlers keep
        the radios' transmit and receiver-write records, which they
        settle from."""
        sim = self.session.sim
        channel = self.session.channel
        queue = sim._queue
        if queue._heap:
            raise RuntimeError("object events scheduled during micro window")
        sim.now = until_ns
        sim.delta = 0  # the kernel's rule when time moves forward
        sim._run_ends += 1  # and a run returning at its bound ends a delta
        for t, delta, _seq, kind, a, b in sorted(heap):
            name = _OWNER_METHODS.get(kind)
            if name is None:
                queue.push(t, delta,
                           partial(getattr(channel, _STAGE_METHODS[kind]),
                                   a, b))
            elif kind == K_MASTER_EVEN:
                # the handle ConnectionMaster.wake cancels to re-arm
                a._wake_event = queue.push_cancellable(t, delta, a._even_slot)
            else:
                queue.push(t, delta, getattr(a, name))
