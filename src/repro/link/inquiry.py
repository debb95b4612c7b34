"""Inquiry and inquiry-scan procedures (paper section 3.1, Figs. 6 and 8).

Timeline of a successful discovery (all per spec v1.2):

* the **inquirer** transmits two 68 µs ID packets (GIAC) per even slot on
  consecutive frequencies of the inquiry train (16 of the 32 sequence
  frequencies; trains swap after ``train_repetitions`` repetitions), and
  listens on the paired response frequencies in the following odd slot;
* the **scanner** listens continuously on its scan frequency (derived from
  its CLKN bits 16-12, so redrawn every 1.28 s). On a first ID it backs off
  RAND(0..1023) slots with the receiver *off*; on the next ID it returns an
  FHS packet 625 µs later carrying its BD_ADDR and clock;
* the inquirer's reception of that FHS completes the discovery.

The ~1556-slot mean of the paper's Fig. 6 *emerges* from these mechanics
(see ``LinkConfig.train_repetitions`` in :mod:`repro.config`).

The inquirer's train is :class:`~repro.link.train.IdTrain`, shared with
page.  It sleeps through the even slots whose IDs no radio can hear (a
scanner backing off, or listening on a frequency the current train never
visits) and counts them in closed form: ``id_transmissions`` includes the
IDs sent while asleep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro import units
from repro.baseband.address import BdAddr, GIAC_LAP
from repro.baseband.clock import BtClock
from repro.baseband.fhs import FhsPayload
from repro.baseband.hop import inquiry_selector
from repro.baseband.packets import Packet, PacketType
from repro.phy.rf import RxExpect
from repro.phy.transmission import Transmission, TxMeta
from repro.link.states import DeviceState
from repro.link.train import IdTrain, ScanFrequency

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.channel import Reception
    from repro.link.device import BluetoothDevice


@dataclass(frozen=True)
class DiscoveredDevice:
    """One inquiry response, as remembered by the inquirer.

    Attributes:
        addr: the responder's BD_ADDR.
        clock_estimate: a :class:`BtClock` that tracks the responder's CLKN
            (to within the FHS quantisation), used later as CLKE for paging.
        heard_at_ns: reception time.
    """

    addr: BdAddr
    clock_estimate: BtClock
    heard_at_ns: int


@dataclass
class InquiryResult:
    """Outcome of one inquiry attempt.

    ``id_transmissions`` counts every ID of the train, those it slept
    through because no radio could hear them included.
    """

    success: bool
    duration_slots: float
    discovered: list[DiscoveredDevice] = field(default_factory=list)
    id_transmissions: int = 0


class InquiryProcedure(IdTrain):
    """Inquiry substate driver for one device (the would-be master)."""

    #: ID packets are immutable on the air path; one shared instance avoids
    #: a dataclass construction per inquiry half-slot.
    _ID_PACKET = Packet(ptype=PacketType.ID, lap=GIAC_LAP)
    _EXPECT = RxExpect(GIAC_LAP, uap=0)

    def __init__(self, device: "BluetoothDevice",
                 timeout_slots: Optional[int] = None,
                 num_responses: int = 1,
                 on_complete: Optional[Callable[[InquiryResult], None]] = None):
        super().__init__(
            device,
            timeout_slots if timeout_slots is not None
            else device.cfg.link.inquiry_timeout_slots,
            inquiry_selector(), device.clock, self._ID_PACKET, self._EXPECT,
            "inquiry_id")
        self.num_responses = num_responses
        self.on_complete = on_complete
        self.discovered: list[DiscoveredDevice] = []

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Enter the inquiry state (paper's Enable_inquiry)."""
        self._start_train(DeviceState.INQUIRY)

    # -- RF callbacks ------------------------------------------------------

    def on_sync(self, tx: Transmission, matched: bool) -> bool:
        return matched

    def on_header(self, tx: Transmission, header_ok: bool, am_addr: Optional[int]) -> bool:
        return header_ok

    def on_reception(self, reception: "Reception") -> None:
        if self._done:
            return
        result = reception.result
        if not (result.complete and result.packet is not None
                and result.packet.ptype is PacketType.FHS):
            self.device.rf.rx_close()
            return
        fhs = result.packet.fhs
        assert fhs is not None
        estimate = BtClock(phase_ns=-reception.tx.start_ns,
                           offset_ticks=fhs.clock_ticks())
        self.discovered.append(DiscoveredDevice(
            addr=fhs.addr, clock_estimate=estimate,
            heard_at_ns=reception.rx_time_ns,
        ))
        self.device.rf.rx_off()
        if len(self.discovered) >= self.num_responses:
            self._finish(success=True)

    # -- completion --------------------------------------------------------

    def _finish(self, success: bool) -> None:
        if self._done:
            return
        duration = self._end_train()
        self.device.set_state(DeviceState.STANDBY)
        result = InquiryResult(success=success, duration_slots=duration,
                               discovered=list(self.discovered),
                               id_transmissions=self._ids)
        if self.on_complete is not None:
            self.on_complete(result)


class InquiryScanProcedure:
    """Inquiry-scan + inquiry-response substates for a discoverable device."""

    LISTENING = "listening"
    BACKOFF = "backoff"
    LISTENING_2 = "listening2"
    RESPONDING = "responding"

    def __init__(self, device: "BluetoothDevice",
                 on_responded: Optional[Callable[[], None]] = None):
        self.device = device
        self.cfg = device.cfg.link
        self.selector = inquiry_selector()
        self.on_responded = on_responded
        self.state = self.LISTENING
        self.responses_sent = 0
        self._done = False
        self._rng = device.rng("inquiry_scan.backoff")

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Enter inquiry scan (paper's Enable_inquiry_scan); the receiver
        stays continuously on, as in the paper's Fig. 5 waveforms."""
        self.device.set_state(DeviceState.INQUIRY_SCAN)
        self.device.active_handler = self
        self._listen()

    def stop(self) -> None:
        """Leave inquiry scan."""
        self._done = True
        if self.device.rf.rx_open:
            self.device.rf.rx_off()
        if self.device.active_handler is self:
            self.device.active_handler = None
        self.device.set_state(DeviceState.STANDBY)

    def _listen(self) -> None:
        """Continuous inquiry-scan listen; the scan frequency follows CLKN
        bits 16-12 automatically (redrawn every 1.28 s)."""
        self.device.rf.rx_on_follow(
            ScanFrequency(self.selector, self.device.clock),
            RxExpect(GIAC_LAP, uap=0))

    # -- RF callbacks ------------------------------------------------------

    def on_sync(self, tx: Transmission, matched: bool) -> bool:
        return matched

    def on_header(self, tx: Transmission, header_ok: bool, am_addr: Optional[int]) -> bool:
        return header_ok

    def on_reception(self, reception: "Reception") -> None:
        if self._done:
            return
        result = reception.result
        if not (result.complete and result.packet is not None
                and result.packet.ptype is PacketType.ID):
            return
        if self.state == self.LISTENING:
            self._enter_backoff()
        elif self.state == self.LISTENING_2:
            self._respond(reception)

    # -- procedure steps -----------------------------------------------------

    def _enter_backoff(self) -> None:
        self.state = self.BACKOFF
        self.device.rf.rx_off()
        backoff_slots = int(self._rng.integers(0, self.cfg.inq_resp_backoff_slots))
        self.device.sim.schedule(backoff_slots * units.SLOT_NS, self._backoff_done)

    def _backoff_done(self) -> None:
        if self._done:
            return
        self.state = self.LISTENING_2
        self._listen()

    def _respond(self, reception: "Reception") -> None:
        self.state = self.RESPONDING
        self.device.set_state(DeviceState.INQUIRY_RESPONSE)
        self.device.rf.rx_off()
        heard = reception.tx.meta.hop_phase
        phase = heard if heard is not None else 0
        delay = self.device.cfg.rf.modem_delay_ns
        reply_at = reception.tx.start_ns + delay + units.SLOT_NS
        self.device.sim.schedule_abs(reply_at, lambda: self._send_fhs(phase))

    def _send_fhs(self, phase: int) -> None:
        if self._done:
            return
        device = self.device
        clkn = device.clock.clk(device.sim.now)
        fhs = FhsPayload(addr=device.addr, clk27_2=clkn >> 2, am_addr=0)
        packet = Packet(ptype=PacketType.FHS, lap=GIAC_LAP, fhs=fhs)
        freq = self.selector.response(phase)
        device.rf.transmit(freq, packet, meta=TxMeta(hop_phase=phase,
                                                     purpose="inquiry_fhs"))
        self.responses_sent += 1
        if self.on_responded is not None:
            self.on_responded()
        # return to inquiry scan; a new backoff precedes any further response
        self.state = self.LISTENING
        self.device.set_state(DeviceState.INQUIRY_SCAN)
        device.sim.schedule(packet.duration_ns, self._resume_listen)

    def _resume_listen(self) -> None:
        if self._done:
            return
        if self.state == self.LISTENING and not self.device.rf.rx_open:
            self._listen()
