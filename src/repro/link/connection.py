"""Connection state: master polling loop and slave listening loop.

Master side (:class:`ConnectionMaster`): at an even (master TX) slot a
polling policy picks one action — beacon for parked slaves, eager poll for
a slave returning from hold, data or keep-alive poll — the packet goes out
on the channel hopping sequence, and the reply window opens one slot later.
After a pair with nothing to do the master sleeps until the pair its policy
names as the next one that can act (:meth:`PollingPolicy.next_due`); a
queued payload or a sniff, hold or park change wakes it at the next pair
boundary (:meth:`ConnectionMaster.wake`).

Slave side (:class:`ConnectionSlave`): in **active** mode the slave opens a
short uncertainty window (default 32.5 µs) at every master slot start and
extends it only when a carrier appears; it drops out of packets addressed
to other slaves after the header (paper Fig. 5). In **sniff** mode it
listens with wide-open windows only at anchor points (Fig. 9/11); in
**hold** it powers the radio down entirely and re-acquires the channel by
continuous listening at expiry (Fig. 12); in **park** it wakes only at
beacon instants.

**Dozing through the windows nothing can reach.**  While the master's
loop sleeps, no packet can reach an active slave's windows: only the
master transmits unprompted.  So an active slave whose master sleeps past
its next pair, that nobody observes (no subscriber to either enable
signal, no timeline capture) and whose world holds only its master and
fellow slaves, none of them with a reply still due, *dozes*: it queues
no listen or close events and enters the skipped windows in its radio's
receiver-write record in closed form (each opens at its pair boundary and
closes ``active_listen_ns`` later), from which ``enable_rx`` settles.  Outcomes, counters and settled signals are
what the awake loop would produce (``tests/link/test_slave_doze.py``
compares worlds with observed twins, in which nothing dozes).  A slave
wakes where its loop would be:

* the master, about to transmit, serves the dozing slaves' windows due at
  its pair and returns their next events with its own (``serve_pair``);
* another radio transmitting, an inquiry or page train starting (a
  sleeping train enters IDs without transmitting them), a first
  subscriber to an enable signal of the slave's radio, a mode change,
  ``stop()`` and the device's ``stop_procedure`` resume it and queue its
  events on the simulator;
* a read of either enable signal settles the record and lets it doze on.

A doze outlives a change of the conditions it began under (a radio
attaching, the master suspending its loop), since only a packet or an
observer can tell a dozed window from a listened one.  While no slave
dozes, each hook costs one attribute test.

The 1-bit ARQ (SEQN/ARQN) runs per link in both directions.

Both kernels run the same handlers.  Each slot-loop step and each reception
acts and then returns the events that follow it (``serve_pair``,
``open_reply_window``, ``listen``, ``on_reception``); the object kernel's
event callbacks (``_even_slot``, ``_rx_slot``, ``_master_slot``, the
channel's end stage) queue them on the simulator, and the slot engine
(:mod:`repro.sim.soa`) on its own heap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro import units
from repro.baseband.address import BdAddr
from repro.baseband.clock import BtClock
from repro.baseband.hop import HopSelector
from repro.baseband.packets import Packet, PacketType
from repro.errors import ProtocolError
from repro.link.afh import AfhController
from repro.link.arq import LinkArq
from repro.link.buffers import InboundData, TxBuffer
from repro.link.hold import HoldSchedule, schedule_hold
from repro.link.piconet import HoldParams, ParkParams, Piconet, SniffParams
from repro.link.polling import PollingPolicy, RoundRobinPolicy, SlotAction
from repro.link.sniff import (
    in_attempt_window, next_attempt_slot, validate as validate_sniff)
from repro.link.park import next_beacon_slot, validate as validate_park
from repro.link.states import ConnectionMode, DeviceState
from repro.phy.rf import RxExpect
from repro.phy.transmission import Transmission, TxMeta
from repro.sim.event import EventHandle

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.channel import Reception
    from repro.link.device import BluetoothDevice

#: Events a reception calls for, as ``(time_ns, callback)`` pairs.
FollowUps = Optional[tuple]

#: The transmission tags, one shared object per purpose.
_META = {purpose: TxMeta(purpose=purpose)
         for purpose in ("beacon", "data", "poll", "slave_reply")}

_CLK_MASK = units.CLKN_WRAP - 1
_SLOT_NS = units.SLOT_NS
_PAIR_NS = units.SLOT_PAIR_NS

# Enum members the slot handlers test at every pair, as module constants:
# the interpreter does not cache attribute lookups on an Enum class.
_ACTIVE, _SNIFF, _HOLD, _PARK = (ConnectionMode.ACTIVE, ConnectionMode.SNIFF,
                                 ConnectionMode.HOLD, ConnectionMode.PARK)
_NULL, _POLL = PacketType.NULL, PacketType.POLL

#: Slots a packet occupies, by its header's type code (ID and NULL share
#: code 0, and both take one slot).
_SLOTS_OF_TYPE = {ptype.info.code: ptype.info.slots for ptype in PacketType}


def _pairs(slots: int) -> int:
    """Convert a parameter given in time slots to master-slot pairs."""
    return max(1, slots // 2)


def _pop_acked(buffer: TxBuffer, now_ns: int) -> FollowUps:
    """Drop the acknowledged head of ``buffer``; returns the refill its
    saturated source then calls for, if any."""
    buffer.pop()
    source = buffer.refill
    if source is not None:
        due = source.arm(now_ns)
        if due is not None:
            return ((due, source._refill),)
    return None


class ConnectionMaster:
    """Master-side connection logic for one piconet."""

    def __init__(self, device: "BluetoothDevice", piconet: Piconet,
                 policy: Optional[PollingPolicy] = None):
        self.device = device
        self.piconet = piconet
        self.policy = policy or RoundRobinPolicy()
        self.arq: dict[int, LinkArq] = {}
        self.hold_schedules: dict[int, HoldSchedule] = {}
        self._resync_needed: set[int] = set()
        self._last_resync_poll: dict[int, int] = {}
        self._running = False
        #: the pending slot-loop event and its time (None while the loop
        #: sleeps until woken), and the last pair the loop served
        self._wake_event: Optional[EventHandle] = None
        self._wake_ns: Optional[int] = None
        self._served_pair = -1
        #: when the reply window of the last transmission opens
        self._reply_ns = 0
        self._expect = RxExpect(device.addr.lap, uap=device.addr.uap)
        self._listen_ns = device.cfg.link.active_listen_ns
        self._beacon_interval_pairs: Optional[int] = None
        self.stats_tx_packets = 0
        self.stats_rx_packets = 0
        # AFH (extension, off by default): the master classifies channels
        # from its reply outcomes and adapts the piconet's hop set
        self.afh: Optional[AfhController] = \
            AfhController(piconet, device.cfg.afh, channel=device.channel) \
            if device.cfg.afh.enabled else None

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin (or resume) the polling loop."""
        if self._running:
            return
        self._running = True
        self.device.set_state(DeviceState.CONNECTION)
        self.device.active_handler = self
        for am_addr in self.piconet.slaves:
            self.arq.setdefault(am_addr, LinkArq())
        self._arm(self.pair_index() + 1)

    def suspend(self) -> None:
        """Pause the loop (e.g. while paging an additional slave)."""
        self._running = False
        self._wake_ns = None
        if self._wake_event is not None:
            self._wake_event.cancel()

    def add_slave(self, am_addr: int) -> None:
        """Register ARQ state for a freshly connected slave."""
        self.arq.setdefault(am_addr, LinkArq())
        self.wake()

    def wake(self) -> None:
        """Serve the first pair boundary at or after now that the loop has
        not served yet: something changed that can make the policy act
        before the pair the loop sleeps until."""
        if not self._running:
            return
        now = self.device.sim.now
        wake_ns = self._wake_ns
        if wake_ns is not None and wake_ns < now + _PAIR_NS:
            return  # the loop runs at the next boundary already
        # the first boundary at or after now, and after the last one served
        pair = max(self.pair_index(now - 1), self._served_pair) + 1
        if wake_ns is not None:
            if wake_ns <= self.device.clock.time_at_tick(4 * pair):
                return
            self._wake_event.cancel()
        self._arm(pair)

    def _arm(self, pair: int) -> None:
        wake_ns = self._wake_ns = self.device.clock.time_at_tick(4 * pair)
        self._wake_event = self.device.sim.schedule_cancellable(
            wake_ns, self._even_slot)

    # -- clock helpers ------------------------------------------------------

    def pair_index(self, now_ns: Optional[int] = None) -> int:
        """Index of the current master-slot pair (one per 1250 µs)."""
        if now_ns is None:
            now_ns = self.device.sim.now
        return self.device.clock.ticks(now_ns) // 4

    # -- scheduling hooks used by the policy ---------------------------------

    def next_beacon(self, pair: int) -> Optional[int]:
        """First pair at or after ``pair`` at which parked slaves expect a
        beacon; None when no slave is parked."""
        if self._beacon_interval_pairs is None:
            return None
        return pair + -pair % self._beacon_interval_pairs

    def needs_resync(self, am_addr: int) -> bool:
        """Has this slave's hold expired without contact yet?"""
        return am_addr in self._resync_needed

    def next_resync_poll(self, pair: int) -> int:
        """First resync-poll pair at or after ``pair``.

        Resync polls ride the master's free-running schedule: one poll per
        ``hold_resync_poll_slots``, *not* anchored at the hold expiry. The
        returning slave therefore waits uniformly in [0, interval) — the
        resynchronisation cost that produces the paper's Fig. 12 crossover
        (see DESIGN.md calibration notes)."""
        interval = _pairs(self.device.cfg.link.hold_resync_poll_slots)
        return pair + -pair % interval

    # -- the slot loop -------------------------------------------------------

    def _even_slot(self) -> None:
        """The slot-loop event: serve the pair, queue what follows."""
        wake_ns, reply_ns, woken = self.serve_pair()
        sim = self.device.sim
        if wake_ns is not None:
            self._wake_event = sim.schedule_cancellable(wake_ns,
                                                        self._even_slot)
        if reply_ns is not None:
            sim.schedule_abs(reply_ns, self._rx_slot)
        for time_ns, callback in woken:
            sim.schedule_abs(time_ns, callback)

    def serve_pair(self) -> tuple[Optional[int], Optional[int], tuple]:
        """Serve the master-slot pair that starts now: pick the policy's
        action and send it.  Returns ``(wake_ns, reply_ns, woken)``: when
        the slot loop runs next (None: asleep until :meth:`wake`), when
        the reply window opens (None: nothing was sent), and the events of
        the dozing slaves that the packet wakes, as ``(time_ns,
        callback)`` pairs."""
        if not self._running:
            self._wake_ns = None
            return None, None, ()
        device = self.device
        now = device.sim.now
        ticks = device.clock.ticks(now)
        pair = self._served_pair = ticks // 4
        # the loop runs on its pair boundaries: the next is a pair later
        wake_ns = self._wake_ns = now + _PAIR_NS
        rf = device.rf
        if rf.locked_tx is not None or now < rf.tx_until_ns \
                or now < self._reply_ns:
            # locked onto a packet, transmitting, or inside the slots the
            # last packet's TYPE reserved before its reply
            return wake_ns, None, ()
        if rf.rx_open:
            rf.rx_off()
        if self.afh is not None:
            # assess before picking this pair's frequency, so a fresh map
            # applies from this very slot on (the slaves' selectors see it
            # through the shared per-address hop state)
            self.afh.maybe_assess(pair)
        if self.hold_schedules:
            self._expire_holds(pair)
        action = self.policy.choose(self, pair)
        if action is not None:
            woken = self._wake_dozers() if device.channel.dozers else ()
            return wake_ns, self._transmit_action(action, pair,
                                                  ticks & _CLK_MASK), woken
        if self.afh is None and now >= self._reply_ns:
            # idle, with the radio off and no reply window ahead: sleep
            # until the policy can act (AFH assesses at every pair)
            due = self.policy.next_due(self, pair + 1)
            wake_ns = self._wake_ns = \
                None if due is None else device.clock.time_at_tick(4 * due)
        return wake_ns, None, ()

    def _wake_dozers(self) -> tuple:
        """Wake the slaves that dozed while the loop slept, for the packet
        about to go out: each serves its window due now and returns the
        events its loop needs next."""
        woken = ()
        for slave in list(self.device.channel.dozers):
            woken += slave.end_doze(serve_now=True)
        return woken

    def _expire_holds(self, pair: int) -> None:
        for am_addr, schedule in list(self.hold_schedules.items()):
            if pair >= schedule.end_slot:
                del self.hold_schedules[am_addr]
                self._resync_needed.add(am_addr)
                self._last_resync_poll.pop(am_addr, None)

    def _transmit_action(self, action: SlotAction, pair: int,
                         clk: int) -> Optional[int]:
        """Send ``action`` at piconet clock ``clk``; returns when the reply
        window opens (None for a beacon or when nothing was sent)."""
        device = self.device
        now = device.sim.now
        freq = device.hop_selector.connection(clk)
        cap = device.channel.capture
        if cap is not None:
            cap.hop(now, device.path, clk, freq)
        addr = device.addr
        if action.kind == "beacon":
            device.rf.transmit(freq, Packet.trusted(_NULL, addr.lap,
                                                    0, 0),
                               addr.uap, _META["beacon"])
            self.stats_tx_packets += 1
            return None
        am_addr = action.am_addr
        link = self.piconet.slaves.get(am_addr)
        if link is None:
            return None
        arq = self.arq[am_addr]
        if action.kind == "data":
            item = device.tx_buffers[am_addr].head
            if item is None:
                return None
            if cap is not None and arq.tx.awaiting_ack:
                # the head payload went unacknowledged: this send repeats it
                cap.arq_retx(now, device.path, freq, am_addr, arq.tx.seqn)
            packet = Packet.trusted(item.ptype, addr.lap, am_addr,
                                    arq.rx.arqn,
                                    arq.tx.next_seqn(new_payload=True),
                                    item.payload, 3 if item.is_lmp else 2)
        else:
            packet = Packet.trusted(_POLL, addr.lap, am_addr,
                                    arq.rx.arqn)
        link.last_poll_slot = pair
        device.rf.transmit(freq, packet, addr.uap, _META[action.kind])
        self.stats_tx_packets += 1
        if self.afh is not None:
            self.afh.note_tx(freq)  # data/POLL both solicit a reply
        reply_ns = self._reply_ns = \
            now + packet.ptype.info.slots * _SLOT_NS
        return reply_ns

    def _rx_slot(self) -> None:
        close_ns = self.open_reply_window()
        if close_ns is not None:
            self.device.sim.schedule_abs(close_ns, self._rx_close)

    def open_reply_window(self) -> Optional[int]:
        """Open the receiver for the reply to the packet just sent;
        returns when the window closes unless a carrier holds it."""
        device = self.device
        if not self._running or device.rf.locked_tx is not None:
            return None
        now = device.sim.now
        device.rf.rx_on(device.hop_selector.connection(device.clock.clk(now)),
                        self._expect)
        return now + self._listen_ns

    def _rx_close(self) -> None:
        self.device.rf.rx_close()

    # -- RF callbacks ------------------------------------------------------

    def on_sync(self, tx: Transmission, matched: bool) -> bool:
        return matched

    def on_header(self, tx: Transmission, header_ok: bool, am_addr: Optional[int]) -> bool:
        if not header_ok:
            self.device.rf.rx_off()
            return False
        return True

    def on_reception(self, reception: "Reception") -> FollowUps:
        """Act on a slave's reply; returns the refill an acknowledgement
        calls for."""
        result = reception.result
        if not result.header_ok or result.header_am is None:
            self.device.rf.rx_close()
            return None
        am_addr = result.header_am
        link = self.piconet.slaves.get(am_addr)
        if link is None:
            return None
        arq = self.arq[am_addr]
        self.stats_rx_packets += 1
        if self.afh is not None:
            self.afh.note_reply()
        # the reply (even a NULL) proves the slave is back on the channel;
        # do not touch the mode if a *new* hold has already been scheduled
        # (the reply may have been in flight when it was set up)
        if am_addr in self._resync_needed:
            self._resync_needed.discard(am_addr)
            if link.mode is _HOLD \
                    and am_addr not in self.hold_schedules:
                link.mode = ConnectionMode.ACTIVE
                link.hold = None
        # ARQN acknowledges the head of our queue
        follow = None
        if result.header_arqn is not None and arq.tx.on_arqn(result.header_arqn):
            follow = _pop_acked(self.device.tx_buffers[am_addr],
                                self.device.sim.now)
        # payload processing
        packet = result.packet
        if packet is not None and packet.ptype.is_data:
            accept = arq.rx.on_data(result.header_seqn or 0, result.payload_ok)
            if accept and result.payload_ok:
                self._deliver(am_addr, packet)
        elif result.header_type is not None and not result.payload_ok \
                and result.header_type not in (0, 1):
            arq.rx.on_data(result.header_seqn or 0, False)
        self.device.rf.rx_close()
        return follow

    def _deliver(self, am_addr: int, packet: Packet) -> None:
        item = InboundData(am_addr, packet.payload, self.device.sim.now,
                           packet.llid == 3)
        if item.is_lmp:
            self.device.lm.on_rx(am_addr, packet.payload)
        else:
            self.device.rx_buffer.load(item)

    # ------------------------------------------------------------------
    # Mode control (driven by the Link Manager or experiments)
    # ------------------------------------------------------------------

    def set_sniff(self, am_addr: int, params: SniffParams) -> None:
        """Put a slave's link into sniff mode (master's view)."""
        validate_sniff(params)
        link = self._link(am_addr)
        link.mode = ConnectionMode.SNIFF
        link.sniff = SniffParams(
            t_sniff_slots=_pairs(params.t_sniff_slots),
            n_attempt_slots=params.n_attempt_slots,
            d_sniff_slots=_pairs(params.d_sniff_slots) if params.d_sniff_slots else 0,
        )
        self.wake()

    def exit_sniff(self, am_addr: int) -> None:
        """Return a sniffing slave to active mode (master's view)."""
        link = self._link(am_addr)
        link.mode = ConnectionMode.ACTIVE
        link.sniff = None
        self.wake()

    def set_hold(self, am_addr: int, params: HoldParams) -> None:
        """Suspend a slave's link for ``params.hold_slots`` (master's view)."""
        link = self._link(am_addr)
        link.mode = ConnectionMode.HOLD
        link.hold = params
        self.hold_schedules[am_addr] = schedule_hold(self.pair_index(), params)
        self.wake()

    def park(self, am_addr: int, params: ParkParams) -> None:
        """Park a slave, freeing its AM_ADDR (master's view)."""
        validate_park(params)
        self.piconet.park_slave(am_addr, params)
        self.arq.pop(am_addr, None)
        pairs = _pairs(params.beacon_interval_slots)
        if self._beacon_interval_pairs is None:
            self._beacon_interval_pairs = pairs
        else:
            self._beacon_interval_pairs = min(self._beacon_interval_pairs, pairs)
        self.wake()

    def unpark(self, pm_addr: int) -> int:
        """Re-activate a parked slave; returns its new AM_ADDR."""
        link = self.piconet.unpark_slave(pm_addr)
        self.arq[link.am_addr] = LinkArq()
        if not self.piconet.parked:
            self._beacon_interval_pairs = None
        self.wake()
        return link.am_addr

    def detach(self, am_addr: int) -> None:
        """Drop a slave from the piconet (master's view)."""
        self.piconet.remove_slave(am_addr)
        self.arq.pop(am_addr, None)
        self.hold_schedules.pop(am_addr, None)
        self._resync_needed.discard(am_addr)

    def _link(self, am_addr: int):
        link = self.piconet.slaves.get(am_addr)
        if link is None:
            raise ProtocolError(f"no slave with AM_ADDR {am_addr}")
        return link


class ConnectionSlave:
    """Slave-side connection logic (active / sniff / hold / park modes)."""

    def __init__(self, device: "BluetoothDevice", master_addr: BdAddr,
                 am_addr: int, piconet_clock: BtClock):
        self.device = device
        self.master_addr = master_addr
        self.am_addr = am_addr
        self.clock = piconet_clock
        self.selector = HopSelector(master_addr.hop_address,
                                    device.hop_registry)
        self.arq = LinkArq()
        self.mode = ConnectionMode.ACTIVE
        self.sniff_params: Optional[SniffParams] = None  # in pair units
        self.park_params: Optional[ParkParams] = None
        self.pm_addr = 0
        self._hold_end_pair: Optional[int] = None
        self._resyncing = False
        self._running = False
        self._expect = RxExpect(master_addr.lap, uap=master_addr.uap)
        self._buffer = device.tx_buffer_for(0)  # toward the master
        self._listen_ns = device.cfg.link.active_listen_ns
        self._modem_delay = device.cfg.rf.modem_delay_ns
        self.stats_rx_packets = 0
        self.stats_tx_packets = 0
        #: the master's handler, once found on the channel
        self._master: Optional[ConnectionMaster] = None
        # the closed form of a doze holds when the windows neither overlap
        # nor vanish
        self._can_doze = 0 < self._listen_ns < _PAIR_NS
        # when the last reply a received packet asked for goes out
        self._replies_until_ns = -1
        # a doze: the opening of its first window (None while awake) and
        # how many of its receiver writes the radio's record holds
        self._doze_ns: Optional[int] = None
        self._doze_writes = 0

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin the listening loop."""
        self._running = True
        self.device.set_state(DeviceState.CONNECTION)
        self.device.active_handler = self
        self.device.sim.schedule_abs(self._next_master_slot(), self._master_slot)

    def stop(self) -> None:
        """Detach: stop listening and return to standby."""
        self.resume()
        self._running = False
        if self.device.rf.rx_open:
            self.device.rf.rx_off()
        self.device.set_state(DeviceState.STANDBY)
        self.device.active_handler = None

    def _next_master_slot(self) -> int:
        return self.clock.next_tick_time(self.device.sim.now, modulo=4, residue=0)

    def pair_index(self, now_ns: Optional[int] = None) -> int:
        """Current master-slot pair on the piconet clock."""
        if now_ns is None:
            now_ns = self.device.sim.now
        return self.clock.ticks(now_ns) // 4

    # -- the listening loop --------------------------------------------------

    def _master_slot(self) -> None:
        """The listening-loop event: listen, queue what follows."""
        next_ns, close_ns = self.listen()
        sim = self.device.sim
        if next_ns is not None:
            sim.schedule_abs(next_ns, self._master_slot)
        if close_ns is not None:
            sim.schedule_abs(close_ns, self._rx_close)

    def listen(self) -> tuple[Optional[int], Optional[int]]:
        """Serve the master slot that starts now: open (or retune) the
        receiver when the mode listens in it.  Returns ``(next_ns,
        close_ns)``: when the loop runs next and when the window closes
        unless a carrier holds it (None: no window opened)."""
        if not self._running:
            return None, None
        device = self.device
        now = device.sim.now
        clock = self.clock
        ticks = clock.ticks(now)
        pair = ticks // 4
        mode = self.mode
        if mode is _ACTIVE:
            # the loop runs on its pair boundaries: the next is a pair later
            next_ns = now + _PAIR_NS
        else:
            if mode is _HOLD:
                if self._hold_end_pair is not None \
                        and pair < self._hold_end_pair:
                    return clock.time_at_tick(self._hold_end_pair * 4), None
                if not self._resyncing:
                    self._begin_resync()
                # while resyncing the receiver stays on: nothing to open
                return clock.time_at_tick(
                    self._next_listen_pair(pair + 1) * 4), None
            next_ns = clock.time_at_tick(self._next_listen_pair(pair + 1) * 4)
        rf = device.rf
        if rf.locked_tx is not None or now < rf.tx_until_ns \
                or mode is not _ACTIVE and not self._should_listen(pair):
            return next_ns, None
        freq = self.selector.connection(ticks & _CLK_MASK)
        if rf.rx_open:
            rf.rx_retune(freq)
        else:
            rf.rx_on(freq, self._expect)
        if mode is _SNIFF:
            # wide-open attempt window: the slave must re-acquire sync
            return next_ns, now + _SLOT_NS
        if mode is _ACTIVE and self._may_doze(next_ns):
            self._doze_ns = next_ns
            self._doze_writes = 0
            device.channel.dozers.append(self)
            return None, now + self._listen_ns
        return next_ns, now + self._listen_ns

    def _should_listen(self, pair: int) -> bool:
        if self.mode is _ACTIVE:
            return True
        if self.mode is _SNIFF and self.sniff_params is not None:
            return in_attempt_window(pair, self.sniff_params)
        if self.mode is _PARK and self.park_params is not None:
            return pair % _pairs(self.park_params.beacon_interval_slots) == 0
        return False

    def _next_listen_pair(self, from_pair: int) -> int:
        if self.mode is _SNIFF and self.sniff_params is not None:
            return next_attempt_slot(from_pair, self.sniff_params)
        if self.mode is _PARK and self.park_params is not None:
            return next_beacon_slot(from_pair, ParkParams(
                beacon_interval_slots=_pairs(self.park_params.beacon_interval_slots),
                pm_addr=self.park_params.pm_addr))
        return from_pair

    def _rx_close(self) -> None:
        self.device.rf.rx_close()

    # -- dozing ---------------------------------------------------------------

    def _may_doze(self, next_ns: int) -> bool:
        """Can nothing reach or observe the windows from ``next_ns`` on?
        The master's loop runs and sleeps past ``next_ns``, neither enable
        signal of the radio has a subscriber, the world captures no
        timeline, and every other radio is the master's or a fellow
        slave's, none of which has a reply still to send (a master may
        send a short multi-slot packet again before its reply is due)."""
        master = self._master
        if master is None or not master._running:
            master = self._master = self._find_master()
            if master is None:
                return False
        wake_ns = master._wake_ns
        if wake_ns is not None and wake_ns <= next_ns or not self._can_doze:
            return False
        rf = self.device.rf
        channel = self.device.channel
        if channel.capture is not None or rf.enable_tx._subscribers \
                or rf.enable_rx._subscribers:
            return False
        master_addr = self.master_addr
        now = self.device.sim.now
        for radio in channel.radios:
            handler = radio.listener
            if handler is not master and (
                    type(handler) is not ConnectionSlave
                    or handler.master_addr != master_addr
                    or handler._replies_until_ns >= now):
                return False
        return True

    def _find_master(self) -> Optional[ConnectionMaster]:
        """The running master handler of this slave's piconet, if its
        radio reports to it."""
        for radio in self.device.channel.radios:
            handler = radio.listener
            if type(handler) is ConnectionMaster and handler._running \
                    and handler.device.addr == self.master_addr:
                return handler
        return None

    def settle(self) -> None:
        """Enter the doze's receiver writes before now in the radio's
        record (those at now too, once now's delta 0 is over); the slave
        dozes on."""
        start = self._doze_ns
        if start is None:
            return
        sim = self.device.sim
        elapsed = sim.now - start + (1 if sim.delta else 0)
        if elapsed <= 0:
            return
        # window k opens k pairs into the doze and closes a listen later
        listen = self._listen_ns
        pairs, rest = divmod(elapsed, _PAIR_NS)
        writes = 2 * pairs
        if rest > 0:
            writes += 1 if rest <= listen else 2
        if writes > self._doze_writes:
            self._doze_writes = writes
            last = writes - 1
            self.device.rf.enter_rx_write(
                not last & 1,
                start + (last >> 1) * _PAIR_NS + (listen if last & 1 else 0))

    def end_doze(self, serve_now: bool = False) -> tuple:
        """End a doze at now: settle it and reopen the receiver when a
        window is open.  Returns the events the loop needs next, as
        ``(time_ns, callback)`` pairs.  A window that opens now is served
        at once with ``serve_now`` (the master's transmitting pair, whose
        follow-ups must lie later), else returned as a listen event for
        now."""
        start = self._doze_ns
        if start is None:
            return ()
        self.settle()
        self._doze_ns = None
        device = self.device
        device.channel.dozers.remove(self)
        writes = self._doze_writes
        open_ns = start + (writes >> 1) * _PAIR_NS
        if writes & 1:
            # mid-window: the record holds its opening already
            device.rf.rx_on(self.selector.connection(self.clock.clk(open_ns)),
                            self._expect)
            return ((open_ns + _PAIR_NS, self._master_slot),
                    (open_ns + self._listen_ns, self._rx_close))
        if serve_now and open_ns == device.sim.now:
            # the master transmits now, so the loop stays awake
            next_ns, close_ns = self.listen()
            return ((next_ns, self._master_slot), (close_ns, self._rx_close))
        return ((open_ns, self._master_slot),)

    def resume(self) -> None:
        """End a doze at now and queue the loop's events on the
        simulator (no-op while awake)."""
        schedule = self.device.sim.schedule_abs
        for time_ns, callback in self.end_doze():
            schedule(time_ns, callback)

    # -- hold resynchronisation ----------------------------------------------

    def _begin_resync(self) -> None:
        """Listen continuously, following the channel hopping sequence,
        until any master transmission is caught (paper: the slave 'must
        resynchronize' after hold)."""
        self._resyncing = True
        self.device.rf.rx_on_follow(
            lambda now_ns: self.selector.connection(self.clock.clk(now_ns)),
            self._expect)

    def _end_resync(self) -> None:
        self._resyncing = False
        self._hold_end_pair = None
        self.mode = ConnectionMode.ACTIVE

    # -- RF callbacks ------------------------------------------------------

    def on_sync(self, tx: Transmission, matched: bool) -> bool:
        if not matched and not self._resyncing:
            self.device.rf.rx_off()
        return matched

    def on_header(self, tx: Transmission, header_ok: bool, am_addr: Optional[int]) -> bool:
        """Drop out of packets addressed to other slaves (paper Fig. 5)."""
        keep = header_ok and (am_addr == self.am_addr or am_addr == 0)
        if not keep and not self._resyncing:
            self.device.rf.rx_off()
        return keep

    def on_reception(self, reception: "Reception") -> FollowUps:
        """Act on a master packet; returns the reply it solicits and the
        refill an acknowledgement calls for."""
        result = reception.result
        device = self.device
        if not result.header_ok:
            if not self._resyncing:
                device.rf.rx_close()
            return None
        addressed = result.header_am == self.am_addr
        broadcast = result.header_am == 0
        if not (addressed or broadcast):
            return None
        self.stats_rx_packets += 1
        if self._resyncing:
            self._end_resync()
        follow = None
        if addressed:
            if result.header_arqn is not None and self.arq.tx.on_arqn(result.header_arqn):
                follow = _pop_acked(self._buffer, device.sim.now)
            packet = result.packet
            if packet is not None and packet.ptype.is_data:
                accept = self.arq.rx.on_data(result.header_seqn or 0, result.payload_ok)
                if accept and result.payload_ok:
                    self._deliver(packet)
            elif result.header_type is not None and not result.payload_ok \
                    and result.header_type not in (0, 1):
                self.arq.rx.on_data(result.header_seqn or 0, False)
            # every addressed packet except NULL solicits a reply
            if result.header_type != 0:  # 0 == NULL
                # the header's type sets the reply slot, also when the
                # payload failed and no packet was decoded
                reply_at = reception.tx.start_ns + self._modem_delay \
                    + _SLOTS_OF_TYPE[result.header_type] * _SLOT_NS
                if reply_at > self._replies_until_ns:
                    self._replies_until_ns = reply_at
                reply = ((reply_at, self._reply),)
                follow = reply if follow is None else follow + reply
        device.rf.rx_close()
        return follow

    def _deliver(self, packet: Packet) -> None:
        item = InboundData(self.am_addr, packet.payload, self.device.sim.now,
                           packet.llid == 3)
        if item.is_lmp:
            self.device.lm.on_rx(0, packet.payload)
        else:
            self.device.rx_buffer.load(item)

    def _reply(self) -> None:
        if not self._running:
            return
        device = self.device
        rf = device.rf
        now = device.sim.now
        if now < rf.tx_until_ns:
            return
        if rf.rx_open:
            rf.rx_off()
        freq = self.selector.connection(self.clock.clk(now))
        item = self._buffer.head
        arq = self.arq
        lap = self.master_addr.lap
        if item is not None:
            cap = device.channel.capture
            if cap is not None and arq.tx.awaiting_ack:
                cap.arq_retx(now, device.path, freq, self.am_addr,
                             arq.tx.seqn)
            packet = Packet.trusted(item.ptype, lap, self.am_addr,
                                    arq.rx.arqn,
                                    arq.tx.next_seqn(new_payload=True),
                                    item.payload, 3 if item.is_lmp else 2)
        else:
            packet = Packet.trusted(_NULL, lap, self.am_addr,
                                    arq.rx.arqn)
        rf.transmit(freq, packet, self.master_addr.uap, _META["slave_reply"])
        self.stats_tx_packets += 1

    # ------------------------------------------------------------------
    # Mode control (driven by the Link Manager or experiments)
    # ------------------------------------------------------------------

    def enter_sniff(self, params: SniffParams) -> None:
        """Switch to sniff mode (paper's Enable_sniff_mode)."""
        validate_sniff(params)
        self.resume()
        self.mode = ConnectionMode.SNIFF
        self.sniff_params = SniffParams(
            t_sniff_slots=_pairs(params.t_sniff_slots),
            n_attempt_slots=params.n_attempt_slots,
            d_sniff_slots=_pairs(params.d_sniff_slots) if params.d_sniff_slots else 0,
        )

    def exit_sniff(self) -> None:
        """Return to active mode."""
        self.resume()
        self.mode = ConnectionMode.ACTIVE
        self.sniff_params = None

    def enter_hold(self, params: HoldParams) -> None:
        """Switch to hold mode (paper's Enable_hold_mode): radio fully off
        until the negotiated time elapses."""
        self.resume()
        self.mode = ConnectionMode.HOLD
        self._hold_end_pair = self.pair_index() + 1 + _pairs(params.hold_slots)
        self._resyncing = False
        if self.device.rf.rx_open:
            self.device.rf.rx_off()

    def enter_park(self, params: ParkParams) -> None:
        """Switch to park mode (paper's Enable_park_mode)."""
        validate_park(params)
        self.resume()
        self.mode = ConnectionMode.PARK
        self.park_params = params
        self.pm_addr = params.pm_addr

    def unpark(self, am_addr: int) -> None:
        """Return from park under a fresh AM_ADDR."""
        self.resume()
        self.mode = ConnectionMode.ACTIVE
        self.park_params = None
        self.am_addr = am_addr
        self.pm_addr = 0
