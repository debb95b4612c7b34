"""RF front-end: the enable_tx_RF / enable_rx_RF timing model.

The paper's Figs. 5 and 9 are waveforms of exactly these two signals. The
front-end does no signal processing itself — it models *when* the radio is
powered, delegates decoding to the channel, and forwards receptions to its
listener (the link controller).

Both enable signals are written only while someone subscribes to them.
A radio nobody probes or traces skips the two ``enable_tx_rf`` writes and
the end-of-packet event of each transmission, and keeps its receiver
writes (``rx_on`` / ``rx_off``) in a record of its own instead of writing
``enable_rx_rf``.  Each signal settles from the radio's history when it is
next read or gains a subscriber, so a probe or tracer attached at any time
reads and is notified as if the signal had been written all along.
An inquiry or page train asleep on the radio (:mod:`repro.link.train`)
enters the IDs it skipped in these records first, and a connection slave
dozing on it (:mod:`repro.link.connection`) the listen windows it
skipped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.baseband.clock import BtClock
from repro.errors import ChannelError
from repro.sim.module import Module
from repro.sim.signal import _NO_WRITE, Signal
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.phy.channel import Channel
    from repro.phy.transmission import Transmission


class RxExpect:
    """What the receiver is configured to detect.

    Attributes:
        lap: LAP of the expected access code (CAC/DAC/GIAC).
        uap: UAP used for HEC/CRC checking of the expected sender.
        clk: callable returning the clock value to un-whiten with.
    """

    __slots__ = ("lap", "uap", "clk")

    def __init__(self, lap: int, uap: int = 0, clk: Optional[Callable[[], int]] = None):
        self.lap = lap
        self.uap = uap
        self.clk = clk if clk is not None else (lambda: 0)


class _RadioEnable(Signal[bool]):
    """An enable signal kept up to date by its radio only while it has a
    subscriber.  Without one, reading it (or subscribing to it) first
    calls ``settle(subscribing)``, which brings it to the state the
    radio's writes would have left at the current ``(now, delta)``, so a
    probe or tracer attached at any time reads and is notified as if the
    signal had been written all along."""

    __slots__ = ("_settle",)

    def __init__(self, rf: "RfFrontEnd", name: str,
                 settle: Callable[[bool], None]):
        super().__init__(rf.sim, f"{rf.path}.{name}", False)
        self._settle = settle

    def read(self) -> bool:
        if not self._subscribers:
            self._settle(False)
        return self._value

    @property
    def value(self) -> bool:
        return self.read()

    @property
    def last_change_ns(self) -> int:
        if not self._subscribers:
            self._settle(False)
        return self._last_change_ns

    def subscribe(self, callback) -> None:
        if not self._subscribers:
            self._settle(True)
        super().subscribe(callback)


class RfFrontEnd(Module):
    """Half-duplex radio with explicit enable signals.

    The owner (link controller) drives :meth:`rx_on` / :meth:`rx_off` /
    :meth:`transmit`, and the channel calls its ``listener`` back as a
    reception progresses (locking the receiver onto the packet from the
    carrier on, and releasing it when the listener declines or the packet
    ends):

    * ``listener.on_sync(tx, matched)`` at the sync-word decision point;
    * ``listener.on_header(tx, header_ok, am_addr)`` at the header
      decision, if it has one;
    * ``listener.on_reception(reception)`` at packet end (only when
      locked).  It may return the events the reception calls for, as
      ``(time_ns, callback)`` pairs, which the kernel then queues.
    """

    def __init__(self, sim: Simulator, name: str, parent: Module,
                 channel: "Channel", clock: BtClock):
        super().__init__(sim, name, parent)
        self.channel = channel
        self.clock = clock
        self.enable_tx: Signal[bool] = _RadioEnable(
            self, "enable_tx_rf", self._settle_tx)
        self.enable_rx: Signal[bool] = _RadioEnable(
            self, "enable_rx_rf", self._settle_rx)
        self.rx_freq: Optional[int] = None
        #: a following receiver's channel as a function of time (ns)
        self.rx_freq_fn: Optional[Callable[[int], int]] = None
        #: True while the receiver is powered and tuned (to ``rx_freq``,
        #: or following ``rx_freq_fn``)
        self.rx_open = False
        self.expect: Optional[RxExpect] = None
        self.locked_tx: Optional["Transmission"] = None
        #: the decode outcome of ``locked_tx``, drawn at its sync stage
        #: and read by its header and end stages (kept by the channel)
        self.locked_result = None
        self.listener = None  # set by the link controller
        self.attach_index = -1  # assigned by Channel.attach
        #: the channel's tuning-registry key of this receiver (kept by
        #: Channel.listener_retuned): its RF channel, a following marker,
        #: or None while closed
        self.registry_key = None
        # spatial-layer identity: the Topology key this radio's position
        # is registered under (devices set their BdAddr; None = unplaced,
        # which the topology maps to unit gain)
        self.topo_key = None
        #: when the latest transmission leaves the air: the transmitter
        #: is busy while ``sim.now < tx_until_ns`` (:attr:`tx_busy`)
        self.tx_until_ns = -1
        # the latest transmit's delta and the end of the one before it:
        # what _settle_tx needs when it runs in the transmitting delta
        self._tx_delta = 0
        self._tx_prev_until_ns = -1
        # start of the latest run of packets that kept enable_tx high
        self._tx_rise_ns = -1
        # end time of the scheduled _tx_done, if any
        self._tx_done_ns = -1
        # the receiver-write record enable_rx settles from: the latest
        # value written, the point of that write ((now, delta) plus the
        # simulator's run-end count, which tells a delta that ended at a
        # run's return), and the committed value and change time it
        # overwrites (the two values differ while the write is pending)
        self._rx_on = False
        self._rx_ns = -1
        self._rx_delta = 0
        self._rx_runs = 0
        self._rx_was = False
        self._rx_was_ns = 0
        channel.attach(self)

    # ------------------------------------------------------------------
    # Receiver control
    # ------------------------------------------------------------------

    def tuned_to(self, freq: int) -> bool:
        """Is the (open) receiver currently tuned to ``freq``?

        Frequency-following receivers evaluate their hop function at the
        current time, so a continuous listen tracks the hop sequence
        without per-slot retune events.
        """
        if self.rx_freq_fn is not None:
            return self.rx_freq_fn(self.sim.now) == freq
        return self.rx_freq == freq

    @property
    def rx_locked(self) -> bool:
        """True while locked onto an incoming packet."""
        return self.locked_tx is not None

    @property
    def tx_busy(self) -> bool:
        """True while the transmitter is on air."""
        return self.sim.now < self.tx_until_ns

    def rx_on(self, freq: int, expect: RxExpect) -> None:
        """Power the receiver, tuned to ``freq``, expecting ``expect``."""
        self.rx_freq = freq
        self.rx_freq_fn = None
        self.rx_open = True
        self.expect = expect
        self.channel.listener_retuned(self)
        if not self._rx_on:
            self.write_rx(True)

    def rx_on_follow(self, freq_fn: Callable[[int], int],
                     expect: RxExpect) -> None:
        """Power the receiver in frequency-following mode: it is considered
        tuned to ``freq_fn(now_ns)`` (evaluated on demand, and by a
        sleeping train at instants to come), so a continuous listen
        tracks a hop sequence exactly — used by scan states, the new-
        connection wait and hold resynchronisation, which the paper draws
        as 'RF receiver always active'."""
        self.rx_freq = None
        self.rx_freq_fn = freq_fn
        self.rx_open = True
        self.expect = expect
        self.channel.listener_retuned(self)
        if not self._rx_on:
            self.write_rx(True)

    def rx_retune(self, freq: int, expect: Optional[RxExpect] = None) -> None:
        """Change frequency without an off/on glitch (no effect if locked)."""
        if self.locked_tx is not None:
            return
        self.rx_freq = freq
        self.rx_open = True
        if expect is not None:
            self.expect = expect
        self.channel.listener_retuned(self)

    def rx_off(self) -> None:
        """Power the receiver down (aborts any in-progress lock)."""
        self.rx_freq = None
        self.rx_freq_fn = None
        self.rx_open = False
        self.locked_tx = None
        self.locked_result = None
        self.channel.listener_retuned(self)
        if self._rx_on:
            self.write_rx(False)

    def rx_close(self) -> None:
        """The end of a listen window: power down unless a carrier holds
        the receiver."""
        if self.rx_open and self.locked_tx is None:
            self.rx_off()

    def write_rx(self, on: bool) -> None:
        """Record a receiver write of ``on`` made at the kernel's current
        ``(now, delta)``, and write ``enable_rx`` while it has a
        subscriber.  Callers skip writes of the latest value written,
        which change nothing.

        A write is taken to commit once the kernel is at another
        ``(now, delta)`` or a run has returned since.  That is where the
        update phase commits it, unless events of one instant run out of
        delta order, which takes a ``schedule(0)`` made at a delta above 0.
        """
        sim = self.sim
        now = sim.now
        delta = sim.delta
        runs = sim._run_ends
        if self._rx_on is not self._rx_was and (
                now != self._rx_ns or delta != self._rx_delta
                or runs != self._rx_runs):
            # the pending write's delta is over: it committed
            self._rx_was = self._rx_on
            self._rx_was_ns = self._rx_ns
        if self._rx_on is self._rx_was:
            # no write pending: this one opens the next
            self._rx_ns = now
            self._rx_delta = delta
            self._rx_runs = runs
        self._rx_on = on
        if self.enable_rx._subscribers:
            self.enable_rx.write(on)

    def _settle_records(self, subscribing: bool) -> None:
        """Enter the IDs of a train asleep on this radio, or the windows of
        a slave dozing on it, in its records; a first subscriber also
        wakes the train or slave, since it sees every write."""
        channel = self.channel
        sleeper = channel.sleeper
        if sleeper is not None and sleeper.device.rf is self:
            if subscribing:
                sleeper.resume()
            else:
                sleeper.settle()
        for dozer in channel.dozers:
            if dozer.device.rf is self:
                if subscribing:
                    dozer.resume()
                else:
                    dozer.settle()
                break

    def _settle_rx(self, subscribing: bool) -> None:
        """Bring an unobserved ``enable_rx`` to the state the receiver
        writes would have left at the current ``(now, delta)``: a write
        commits, changing the value at its own time, once its delta is
        over.  A subscriber inherits a write still pending; a read leaves
        the kernel's update phase alone."""
        self._settle_records(subscribing)
        sim = self.sim
        on = self._rx_on
        pending = on is not self._rx_was
        if pending and (sim.now != self._rx_ns
                        or sim.delta != self._rx_delta
                        or sim._run_ends != self._rx_runs):
            self._rx_was = on
            self._rx_was_ns = self._rx_ns
            pending = False
        signal = self.enable_rx
        signal._value = self._rx_was
        signal._last_change_ns = self._rx_was_ns
        signal._pending = _NO_WRITE
        if pending and subscribing:
            signal.write(on)

    def enter_rx_write(self, on: bool, at_ns: int) -> None:
        """Enter a receiver write of ``on`` that a sleeping train or a
        dozing slave made in delta 0 of ``at_ns``, before the current
        ``(now, delta)``: it is the latest write, and committed."""
        self._rx_on = self._rx_was = on
        self._rx_ns = self._rx_was_ns = at_ns
        self._rx_delta = 0
        self._rx_runs = self.sim._run_ends

    # ------------------------------------------------------------------
    # Transmitter control
    # ------------------------------------------------------------------

    def transmit(self, freq: int, packet, uap: int = 0, meta=None,
                 power_dbm: float = 0.0) -> "Transmission":
        """Send ``packet`` on ``freq`` now. The radio must not be mid-TX.

        ``uap`` initialises the HEC/CRC of the frame (the UAP of the device
        whose access code the packet is sent under).  ``power_dbm`` feeds
        the channel's SIR capture resolver (all Bluetooth class-2 radios
        transmit at the same 0 dBm default, so links never specify it; the
        capture test-benches do).
        """
        if self.sim.now < self.tx_until_ns:  # tx_busy
            raise ChannelError(f"{self.path}: transmit while already transmitting")
        tx = self.channel.transmit(self, freq, packet, uap, meta, power_dbm)
        start = tx.start_ns
        previous = self._tx_prev_until_ns = self.tx_until_ns
        end = self.tx_until_ns = start + tx.duration_ns
        delta = self._tx_delta = self.sim.delta
        if previous != start or delta:
            # enable_tx rises, unless a packet ending in this delta 0
            # leaves it high
            self._tx_rise_ns = start
        if self.enable_tx._subscribers:
            self.enable_tx.write(True)
            self._arm_tx_done(end)
        return tx

    def enter_transmit(self, freq: int, packet, meta, start_ns: int,
                       previous_until_ns: int) -> None:
        """Enter the latest ID of a sleeping train, sent in delta 0 of
        ``start_ns`` after a transmission that ended at
        ``previous_until_ns``, in the channel and in the transmit record,
        as :meth:`transmit` would have left them."""
        tx = self.channel.enter_transmit(self, freq, packet, meta, start_ns)
        self._tx_prev_until_ns = previous_until_ns
        self.tx_until_ns = start_ns + tx.duration_ns
        self._tx_delta = 0
        if previous_until_ns != start_ns:
            self._tx_rise_ns = start_ns

    def _arm_tx_done(self, end_ns: int) -> None:
        if self._tx_done_ns != end_ns:
            self._tx_done_ns = end_ns
            self.sim.schedule_abs(end_ns, self._tx_done)

    def _tx_done(self) -> None:
        if not self.tx_busy:
            self.enable_tx.write(False)

    def _settle_tx(self, subscribing: bool) -> None:
        """Bring an unobserved ``enable_tx`` to the state the transmit
        writes would have left at the current ``(now, delta)``.  Readers
        and subscribers alike inherit a pending write.

        A transmit writes True, committed when its delta ends; the
        ``_tx_done`` at the packet end writes False unless the radio
        transmits again at that instant, committed when delta 0 of the end
        time ends.  A transmission still on the air arms its ``_tx_done``.
        """
        self._settle_records(subscribing)
        tx = self.channel._last_tx[self.attach_index]
        if tx is None:
            return
        sim = self.sim
        now = sim.now
        end = self.tx_until_ns
        signal = self.enable_tx
        pending = None
        if now == tx.start_ns and sim.delta == self._tx_delta:
            # the transmitting delta: the rise is still a pending write,
            # unless the previous packet ends now and left enable_tx high
            previous = self._tx_prev_until_ns
            on = previous == now and sim.delta == 0
            changed = self._tx_rise_ns if on else previous
            pending = True
        elif now < end or (now == end and sim.delta == 0):
            on, changed = True, self._tx_rise_ns
            if now == end:
                pending = False  # the fall is pending in this delta
        else:
            on, changed = False, end
        signal._value = on
        if changed >= 0:
            signal._last_change_ns = changed
        signal._pending = _NO_WRITE
        if pending is not None:
            signal.write(pending)
        if now < end:
            self._arm_tx_done(end)
