"""The ID train of inquiry and page, written once for both procedures.

An inquirer and a pager run the same train (paper section 3.1): at every
even slot of its own clock the device sends two ID packets 312.5 µs apart
on consecutive frequencies of a 16-frequency train, and listens in the
following odd slot on the two paired response frequencies.  The train is
centred on a clock (the inquirer's own CLKN, or the pager's estimate
CLKE of the paged device's clock) and swaps between trains A and B after
``train_repetitions`` repetitions.  :class:`IdTrain` is that even-slot
tick, the half-slot ID, the repetition counter and swap, and the
response window; :class:`~repro.link.inquiry.InquiryProcedure` and
:class:`~repro.link.page.PageProcedure` subclass it.

**Sleeping through the IDs nobody can hear.**  Most IDs of a train reach
no receiver: an inquiry scanner spends most of a trial backing off with
its receiver off, or listening on a frequency the current train never
visits, and a page scanner can hear at most one ID in 16.  An unheard ID
queues no event beyond the train's own and draws no random number, so
the train sleeps through every even slot whose two IDs no other radio
can hear, and accounts for the skipped IDs and response windows in
closed form: ``id_transmissions`` and ``Channel.transmissions``, the
repetition counter and train swap, and the radio's transmit and
receiver-write records, from which its enable signals settle.  Outcomes,
random draws, counters and settled signals are what sending the IDs
would have produced (``tests/link/test_unobserved_trains.py`` and
``tests/properties/test_train_sleep.py`` compare worlds with observed
twins, in which nothing sleeps).

*Can hear* means another radio's open receiver is tuned to, or following
onto, a frequency within the channel's ACI span of one of the slot's
IDs.  A train never sleeps while the world has timeline capture on,
while either enable signal of its radio has a subscriber, while another
radio is on the air or locked onto a packet, while another radio's clock
grid coincides with its own (to the nanosecond, modulo a half slot), or
while another train of the world sleeps.

The train wakes at the first even slot that can be heard, before its
timeout.  The search runs an epoch at a time: while the train's clock
bits 16-12 and the train stay fixed, the train visits only the 16
frequencies of :meth:`~repro.baseband.hop.HopSelector.train_frequencies`
(all of them every 8 pairs), and a scan substate's frequency
(:class:`ScanFrequency`) changes only when bit 12 of its own CLKN does.
So each epoch's receivers are tested against its 16-frequency set, and
only an epoch that matches is walked ID by ID.

A sleep ends or shortens through hooks that cost one attribute test
while nothing sleeps:

* a receiver opening or retuning (``Channel.listener_retuned``) moves the
  wake-up earlier when it can hear a skipped ID, and resumes the train at
  once, mid-slot, when that ID belongs to the slot in progress;
* another radio transmitting, a static interferer parked or cleared, or a
  first subscriber to one of the radio's enable signals settles the
  records to that instant; all but the interferer also resume the train
  from there;
* ``stop()`` and completion settle the records;
* a read of an enable signal, of ``id_transmissions`` or of
  ``Channel.transmissions`` settles the records and lets the train sleep
  on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro import units
from repro.baseband.clock import BtClock
from repro.baseband.hop import KOFFSET_TRAIN_A, KOFFSET_TRAIN_B, HopSelector
from repro.baseband.packets import Packet
from repro.phy.rf import RxExpect
from repro.phy.transmission import TxMeta
from repro.link.timers import Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.link.device import BluetoothDevice
    from repro.phy.rf import RfFrontEnd

_HALF = units.HALF_SLOT_NS
_PAIR = units.SLOT_PAIR_NS
_CLK_MASK = units.CLKN_WRAP - 1


def _other_train(koffset: int) -> int:
    return KOFFSET_TRAIN_B if koffset == KOFFSET_TRAIN_A else KOFFSET_TRAIN_A


def _steps_of(steps: int, kind: int) -> int:
    """How many of the first ``steps`` steps of a sleep are of ``kind``
    (steps are 312.5 µs apart, four per slot pair: 0 the first ID, 1 the
    second, 2 the response window opening, 3 its retune)."""
    return (steps + 3 - kind) >> 2


class ScanFrequency:
    """A scan substate's receive frequency as a function of time: the
    selector's scan frequency at the device's CLKN, which changes only
    when CLKN bit 12 does (every 1.28 s).  A receiver follows it with
    ``rf.rx_on_follow``; a sleeping train reads :meth:`steady_until`."""

    __slots__ = ("selector", "clock")

    def __init__(self, selector: HopSelector, clock: BtClock):
        self.selector = selector
        self.clock = clock

    def __call__(self, now_ns: int) -> int:
        return self.selector.page_scan(self.clock.clk(now_ns))

    def steady_until(self, now_ns: int) -> int:
        """The first instant after ``now_ns`` at which the frequency may
        change."""
        clock = self.clock
        return clock.time_at_tick(((clock.ticks(now_ns) >> 12) + 1) << 12)


class IdTrain:
    """The ID train of an inquiry or page procedure.

    Subclasses pass the selector, the clock the train is centred on, the
    ID packet, what the response window expects and the IDs' purpose tag;
    a page overrides :meth:`_in_train` and :meth:`_other_slot` for its
    response and new-connection slots.
    """

    def __init__(self, device: "BluetoothDevice", timeout_slots: int,
                 selector: HopSelector, train_clock: BtClock,
                 id_packet: Packet, expect: RxExpect, purpose: str):
        self.device = device
        self.cfg = device.cfg.link
        self.timeout_slots = timeout_slots
        self.selector = selector
        self.koffset = KOFFSET_TRAIN_A
        self._train_clock = train_clock
        self._id_packet = id_packet
        self._id_ns = id_packet.duration_ns
        self._expect = expect
        self._purpose = purpose
        self._ids = 0
        self._train_tx_slots = 0
        self._repetition_slots = \
            self.cfg.train_repetitions * (self.cfg.train_size // 2)
        self._k1 = 0
        self._k2 = 0
        self._done = False
        self._start_ns = 0
        self._deadline_ns = 0
        self._timeout = Timer(device.sim, self._on_timeout)
        # a sleep: its first even slot (None while awake), the repetition
        # counter, train and train-clock ticks there, the steps of it
        # entered in the records so far, and the queued wake-up
        self._sleep_ns: Optional[int] = None
        self._sleep_slots = 0
        self._sleep_koffset = KOFFSET_TRAIN_A
        self._sleep_ticks = 0
        self._sleep_steps = 0
        self._wake_handle = None
        # the 16 frequencies of each (CLK16-12, koffset) train
        self._train_sets: dict[tuple[int, int], frozenset] = {}

    @property
    def id_transmissions(self) -> int:
        """ID packets sent so far, the IDs of a sleep included."""
        self.settle()
        return self._ids

    # -- procedure life ------------------------------------------------------

    def _start_train(self, state) -> None:
        device = self.device
        if device.channel.dozers:
            # the IDs may reach their windows, and a sleeping train must
            # see those as receivers
            device.channel.wake_dozers()
        device.set_state(state)
        device.active_handler = self
        self._start_ns = device.sim.now
        self._deadline_ns = self._start_ns \
            + self.timeout_slots * units.SLOT_NS
        self._timeout.arm(self.timeout_slots * units.SLOT_NS)
        device.sim.schedule_abs(self._next_even_slot(), self._tx_slot)

    def stop(self) -> None:
        """Abort the procedure (no completion callback)."""
        self._end_sleep()
        self._done = True
        self._timeout.cancel()

    def _on_timeout(self) -> None:
        self._finish(success=False)

    def _finish(self, success: bool) -> None:  # pragma: no cover
        raise NotImplementedError

    def _end_train(self) -> float:
        """Settle, stop and close the receiver; returns the duration in
        slots."""
        self._end_sleep()
        self._done = True
        self._timeout.cancel()
        device = self.device
        if device.rf.rx_open:
            device.rf.rx_off()
        device.active_handler = None
        return (device.sim.now - self._start_ns) / units.SLOT_NS

    # -- the train ----------------------------------------------------------

    def _in_train(self) -> bool:
        """Does the train run this slot?"""
        return True

    def _other_slot(self) -> None:
        """An even slot outside the train."""

    def _next_even_slot(self) -> int:
        return self.device.clock.next_tick_time(self.device.sim.now,
                                                modulo=4, residue=0)

    def _tx_slot(self) -> None:
        if self._done:
            return
        device = self.device
        rf = device.rf
        if rf.locked_tx is None:
            if rf.rx_open:
                rf.rx_off()  # last slot's listening window expires here
            if self._in_train() and self._sleep():
                return
        sim = device.sim
        sim.schedule_abs(self._next_even_slot(), self._tx_slot)
        if rf.locked_tx is not None:
            return  # still receiving a response; skip this train slot
        if not self._in_train():
            self._other_slot()
            return
        clk = self._train_clock.clk(sim.now)
        self._k1 = self.selector.train_phase(clk, self.koffset)
        self._send_id(self.selector.page(clk, self.koffset), self._k1)
        sim.schedule(_HALF, self._tx_half2)
        sim.schedule(units.SLOT_NS, self._rx_slot)
        self._train_tx_slots += 1
        if self._train_tx_slots >= self._repetition_slots:
            self._train_tx_slots = 0
            self.koffset = _other_train(self.koffset)

    def _tx_half2(self) -> None:
        if self._done or not self._in_train() \
                or self.device.rf.locked_tx is not None:
            return
        clk = self._train_clock.clk(self.device.sim.now)
        self._k2 = self.selector.train_phase(clk, self.koffset)
        self._send_id(self.selector.page(clk, self.koffset), self._k2)

    def _send_id(self, freq: int, phase: int) -> None:
        self.device.rf.transmit(freq, self._id_packet,
                                meta=TxMeta(hop_phase=phase,
                                            purpose=self._purpose))
        self._ids += 1

    def _rx_slot(self) -> None:
        if self._done or not self._in_train() \
                or self.device.rf.locked_tx is not None:
            return
        self.device.rf.rx_on(self.selector.response(self._k1), self._expect)
        self.device.sim.schedule(_HALF, self._rx_retune)

    def _rx_retune(self) -> None:
        if self._done or not self._in_train():
            return
        self.device.rf.rx_retune(self.selector.response(self._k2))

    # -- sleeping ---------------------------------------------------------

    def _sleep(self) -> bool:
        """Sleep from this even slot when no other radio can hear its IDs;
        True when asleep.  The wake-up is the first slot that can be
        heard, or the timeout."""
        device = self.device
        rf = device.rf
        channel = device.channel
        if channel.sleeper is not None or channel.capture is not None \
                or rf.enable_tx._subscribers or rf.enable_rx._subscribers:
            return False
        now = device.sim.now
        phase = device.clock.phase_ns
        for radio in channel.radios:
            if radio is not rf and (
                    now < radio.tx_until_ns or radio.locked_tx is not None
                    or (radio.clock.phase_ns - phase) % _HALF == 0):
                # another radio is on the air or receiving, or shares the
                # train's clock grid: its packets can start at the instant
                # of an ID, and a train resumed then would send after
                # them, not in its own turn
                return False
        self._sleep_ns = now
        self._sleep_slots = self._train_tx_slots
        self._sleep_koffset = self.koffset
        self._sleep_ticks = self._train_clock.ticks(now)
        self._sleep_steps = 0
        heard = self._first_heard(0, channel.radios)
        if heard is not None and heard < 2:
            self._sleep_ns = None  # this slot can be heard
            return False
        channel.sleeper = self
        if heard is not None:
            self._wake_at(heard >> 1)
        return True

    def _wake_at(self, slot: int) -> None:
        handle = self._wake_handle
        if handle is not None:
            handle.cancel()
        self._wake_handle = self.device.sim.schedule_cancellable(
            self._sleep_ns + slot * _PAIR, self._wake)

    def _wake(self) -> None:
        self._wake_handle = None
        self._end_sleep()
        self._tx_slot()

    def settle(self) -> None:
        """Enter the sleep's steps before now in the records (those at now
        too, once now's delta 0 is over); the train sleeps on."""
        if self._sleep_ns is None:
            return
        sim = self.device.sim
        elapsed = sim.now - self._sleep_ns + (1 if sim.delta else 0)
        steps = max(self._sleep_steps, -(-elapsed // _HALF))
        done = self._sleep_steps
        if steps == done:
            return
        self._sleep_steps = steps
        device = self.device
        rf = device.rf
        ids = _steps_of(steps, 0) + _steps_of(steps, 1) \
            - _steps_of(done, 0) - _steps_of(done, 1)
        if ids:
            self._ids += ids
            device.channel._transmissions += ids
            # the last ID is on the radio's record, as is the end of the
            # one before it
            kind = (steps - 1) & 3
            last = steps - 1 - max(0, kind - 1)
            before = last - 1 if last & 1 else last - 3
            previous_until = rf.tx_until_ns if before < done \
                else self._sleep_ns + before * _HALF + self._id_ns
            index = (last >> 2) * 2 + (last & 1)
            clk, koffset = self._id_clock(index)
            phase = self.selector.train_phase(clk, koffset)
            rf.enter_transmit(self.selector.page(clk, koffset),
                              self._id_packet,
                              TxMeta(hop_phase=phase, purpose=self._purpose),
                              self._sleep_ns + last * _HALF, previous_until)
        # the latest receiver write: a window opening, or the next slot
        # closing it (the sleep's first slot closed it while awake)
        kind = (steps - 1) & 3
        base = steps - 1 - kind
        write = base + 2 if kind >= 2 else (base if base >= 4 else -1)
        if write >= done:
            rf.enter_rx_write(kind >= 2, self._sleep_ns + write * _HALF)
        total = self._sleep_slots + _steps_of(steps, 0)
        self._train_tx_slots = total % self._repetition_slots
        self.koffset = self._sleep_koffset \
            if (total // self._repetition_slots) % 2 == 0 \
            else _other_train(self._sleep_koffset)

    def resume(self) -> None:
        """End a sleep at now and send on from there, mid-slot if need
        be."""
        start = self._sleep_ns
        if start is None:
            return
        steps = self._end_sleep()
        slot = start + (steps >> 2) * _PAIR
        kind = steps & 3
        sim = self.device.sim
        if kind == 0:
            sim.schedule_abs(slot, self._tx_slot)
            return
        sim.schedule_abs(slot + _PAIR, self._tx_slot)
        if kind == 1:
            sim.schedule_abs(slot + _HALF, self._tx_half2)
        if kind <= 2:
            sim.schedule_abs(slot + units.SLOT_NS, self._rx_slot)
        else:
            sim.schedule_abs(slot + 3 * _HALF, self._rx_retune)

    def receiver_changed(self, radio: "RfFrontEnd") -> None:
        """``radio``'s receiver opened or retuned: wake earlier if it can
        hear an ID of the sleep, at once if that ID's slot is under way."""
        sim = self.device.sim
        first = self._id_index(sim.now + (1 if sim.delta else 0))
        heard = self._first_heard(first, (radio,))
        if heard is None:
            return
        slot = heard >> 1
        if 2 * slot < first:
            self.resume()
        elif self._wake_handle is None or \
                self._sleep_ns + slot * _PAIR < self._wake_handle.time_ns:
            self._wake_at(slot)

    def _end_sleep(self) -> int:
        """Settle a sleep and reopen the receiver where the response
        window would be; returns the steps of the sleep."""
        if self._sleep_ns is None:
            return 0
        self.settle()
        handle = self._wake_handle
        if handle is not None:
            handle.cancel()
            self._wake_handle = None
        device = self.device
        device.channel.sleeper = None
        steps = self._sleep_steps
        slots = _steps_of(steps, 0)
        if slots:
            clk, koffset = self._id_clock(2 * slots - 2)
            self._k1 = self.selector.train_phase(clk, koffset)
        seconds = _steps_of(steps, 1)
        if seconds:
            clk, koffset = self._id_clock(2 * seconds - 1)
            self._k2 = self.selector.train_phase(clk, koffset)
        self._sleep_ns = None
        kind = (steps - 1) & 3
        if steps and kind >= 2:
            # the receiver record holds the window's opening already
            device.rf.rx_on(self.selector.response(
                self._k1 if kind == 2 else self._k2), self._expect)
        return steps

    # -- the sleep's IDs ----------------------------------------------------

    def _id_index(self, time_ns: int) -> int:
        """The first ID of the sleep sent at or after ``time_ns`` (ID
        ``2k`` opens the sleep's slot ``k``, ``2k + 1`` follows it)."""
        if time_ns <= self._sleep_ns:
            return 0
        pairs, rest = divmod(time_ns - self._sleep_ns, _PAIR)
        if rest == 0:
            return 2 * pairs
        return 2 * pairs + (1 if rest <= _HALF else 2)

    def _id_ticks(self, index: int) -> int:
        return self._sleep_ticks + 2 * index - (index & 1)

    def _id_clock(self, index: int) -> tuple[int, int]:
        """The train clock and koffset of the sleep's ID ``index``."""
        repetitions = (self._sleep_slots + ((index + 1) >> 1)) \
            // self._repetition_slots
        koffset = self._sleep_koffset if repetitions % 2 == 0 \
            else _other_train(self._sleep_koffset)
        return self._id_ticks(index) & _CLK_MASK, koffset

    def _first_tick_id(self, tick: int) -> int:
        """The first ID of the sleep whose train clock is at ``tick`` or
        later."""
        index = max(0, (tick - self._sleep_ticks) // 2 - 1)
        while self._id_ticks(index) < tick:
            index += 1
        return index

    def _train_set(self, clk: int, koffset: int) -> frozenset:
        key = ((clk >> 12) & 0x1F, koffset)
        train = self._train_sets.get(key)
        if train is None:
            train = self._train_sets[key] = frozenset(
                self.selector.train_frequencies(clk, koffset))
        return train

    def _first_heard(self, index: int, radios) -> Optional[int]:
        """The first ID of the sleep from ID ``index`` on that one of
        ``radios`` other than this one can hear as tuned now, or None when
        none can before the timeout."""
        own = self.device.rf
        span = self.device.channel._aci_span
        end = self._id_index(self._deadline_ns)
        fixed: set[int] = set()
        steady = []
        for radio in radios:
            if radio is own or not radio.rx_open:
                continue
            follow = radio.rx_freq_fn
            if follow is None:
                fixed.update(range(radio.rx_freq - span,
                                   radio.rx_freq + span + 1))
            elif type(follow) is ScanFrequency:
                steady.append(follow)
            else:
                # a receiver hopping every slot (a new connection's wait,
                # a hold resynchronisation) may hear any ID
                return index if index < end else None
        if not (fixed or steady):
            return None
        start_ns = self._sleep_ns
        page = self.selector.page
        repetitions = self._repetition_slots
        while index < end:
            # an epoch: the train's clock block, the train and every
            # followed scan frequency stay fixed up to ID `until`
            clk, koffset = self._id_clock(index)
            swaps = (self._sleep_slots + ((index + 1) >> 1)) // repetitions
            until = min(end,
                        self._first_tick_id(
                            ((self._id_ticks(index) >> 12) + 1) << 12),
                        2 * ((swaps + 1) * repetitions - self._sleep_slots)
                        - 1)
            heard = fixed
            if steady:
                at = start_ns + (index >> 1) * _PAIR + (index & 1) * _HALF
                heard = set(fixed)
                for follow in steady:
                    freq = follow(at)
                    heard.update(range(freq - span, freq + span + 1))
                    until = min(until,
                                self._id_index(follow.steady_until(at)))
            if not heard.isdisjoint(self._train_set(clk, koffset)):
                # the train visits every one of its 16 frequencies within
                # 8 pairs, so this walk is short
                for walk in range(index, until):
                    if page(self._id_ticks(walk) & _CLK_MASK,
                            koffset) in heard:
                        return walk
            index = until
        return None
