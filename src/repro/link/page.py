"""Page and page-scan procedures (paper section 3.1, Figs. 7 and 8).

A page connects a known device into the piconet:

* the **master** transmits two ID packets carrying the slave's device
  access code (DAC) per even slot, on the page train centred on its
  estimate CLKE of the slave's clock (learned in inquiry), and listens for
  the slave's ID reply on the paired response frequency;
* the **slave** in page scan listens continuously on its page-scan
  frequency. On hearing its DAC it replies with an ID 625 µs later and
  waits (pagerespTO) for the master's FHS;
* the master's FHS assigns the AM_ADDR and carries the master clock; the
  slave acknowledges with an ID, synchronises its piconet clock, and both
  sides switch to the channel hopping sequence;
* the master sends a POLL (newconnectionTO window); the slave's NULL reply
  completes the connection.

All response timing is 625 µs after the start of the packet being answered,
per the spec; every handshake step can be destroyed by noise, which is what
makes the page phase the bottleneck of piconet creation (paper Fig. 8).

The master's page train is :class:`~repro.link.train.IdTrain`, shared with
inquiry.  A page scanner hears at most one train frequency in 16, so the
train sleeps through the even slots whose IDs no radio can hear and counts
them in closed form: ``id_transmissions`` includes the IDs sent while
asleep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro import units
from repro.baseband.address import BdAddr
from repro.baseband.clock import BtClock
from repro.baseband.fhs import FhsPayload
from repro.baseband.hop import HopSelector
from repro.baseband.packets import Packet, PacketType
from repro.phy.rf import RxExpect
from repro.phy.transmission import Transmission, TxMeta
from repro.link.states import DeviceState
from repro.link.timers import Timer
from repro.link.train import IdTrain, ScanFrequency

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.channel import Reception
    from repro.link.device import BluetoothDevice


@dataclass(frozen=True)
class PageTarget:
    """Who to page, with the clock estimate from inquiry.

    Attributes:
        addr: the slave's BD_ADDR.
        clock_estimate: CLKE source (tracks the slave's CLKN).
    """

    addr: BdAddr
    clock_estimate: BtClock


@dataclass
class PageResult:
    """Outcome of one page attempt.

    ``id_transmissions`` counts every ID of the page train, those it slept
    through because no radio could hear them included.
    """

    success: bool
    duration_slots: float
    am_addr: int = 0
    id_transmissions: int = 0
    fhs_transmissions: int = 0


class PageProcedure(IdTrain):
    """Master-side page + master-response + connection-setup driver."""

    PAGING = "paging"
    MASTER_RESPONSE = "master_response"
    NEW_CONNECTION = "new_connection"

    def __init__(self, device: "BluetoothDevice", target: PageTarget,
                 am_addr: int = 1,
                 timeout_slots: Optional[int] = None,
                 on_complete: Optional[Callable[[PageResult], None]] = None):
        lap = target.addr.lap
        super().__init__(
            device,
            timeout_slots if timeout_slots is not None
            else device.cfg.link.page_timeout_slots,
            HopSelector(target.addr.hop_address, device.hop_registry),
            target.clock_estimate, Packet(ptype=PacketType.ID, lap=lap),
            RxExpect(lap, uap=target.addr.uap), "page_id")
        self.target = target
        self.am_addr = am_addr
        self.on_complete = on_complete
        self.state = self.PAGING
        self.fhs_transmissions = 0
        self._resp_phase = 0
        self._resp_deadline_ns = 0
        self._poll_deadline_ns = 0

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Enter the page state (paper's Enable_page)."""
        self._start_train(DeviceState.PAGE)

    # -- slot actions ---------------------------------------------------------

    def _in_train(self) -> bool:
        return self.state == self.PAGING

    def _other_slot(self) -> None:
        sim = self.device.sim
        now = sim.now
        if self.state == self.MASTER_RESPONSE:
            if now >= self._resp_deadline_ns:
                self.state = self.PAGING  # pagerespTO expired, back to paging
                self.device.set_state(DeviceState.PAGE)
                return
            self._send_fhs()
            sim.schedule(units.SLOT_NS, self._rx_slot_response)
        elif self.state == self.NEW_CONNECTION:
            if now >= self._poll_deadline_ns:
                self.state = self.PAGING  # newconnectionTO expired
                self.device.set_state(DeviceState.PAGE)
                return
            self._send_poll()
            sim.schedule(units.SLOT_NS, self._rx_slot_connection)

    def _send_fhs(self) -> None:
        device = self.device
        clkn = device.clock.clk(device.sim.now)
        fhs = FhsPayload(addr=device.addr, clk27_2=clkn >> 2, am_addr=self.am_addr)
        packet = Packet(ptype=PacketType.FHS, lap=self.target.addr.lap, fhs=fhs)
        freq = self.selector.response(self._resp_phase, n=1)
        device.rf.transmit(freq, packet, uap=self.target.addr.uap,
                           meta=TxMeta(hop_phase=self._resp_phase, purpose="page_fhs"))
        self.fhs_transmissions += 1

    def _send_poll(self) -> None:
        device = self.device
        clk = device.clock.clk(device.sim.now)
        packet = Packet(ptype=PacketType.POLL, lap=device.addr.lap,
                        am_addr=self.am_addr)
        freq = device.hop_selector.connection(clk)
        device.rf.transmit(freq, packet, uap=device.addr.uap,
                           meta=TxMeta(purpose="newconn_poll"))

    # -- listening windows -------------------------------------------------

    def _rx_slot_response(self) -> None:
        if self._done or self.state != self.MASTER_RESPONSE or self.device.rf.rx_locked:
            return
        self.device.rf.rx_on(self.selector.response(self._resp_phase, n=2),
                             self._expect)

    def _rx_slot_connection(self) -> None:
        if self._done or self.state != self.NEW_CONNECTION or self.device.rf.rx_locked:
            return
        device = self.device
        clk = device.clock.clk(device.sim.now)
        freq = device.hop_selector.connection(clk)
        device.rf.rx_on(freq, RxExpect(device.addr.lap, uap=device.addr.uap))

    # -- RF callbacks ------------------------------------------------------

    def on_sync(self, tx: Transmission, matched: bool) -> bool:
        return matched

    def on_header(self, tx: Transmission, header_ok: bool, am_addr: Optional[int]) -> bool:
        return header_ok

    def on_reception(self, reception: "Reception") -> None:
        if self._done:
            return
        result = reception.result
        if not result.complete or result.packet is None:
            return
        packet = result.packet
        if self.state == self.PAGING and packet.ptype is PacketType.ID:
            # slave response heard: move to master response
            self.state = self.MASTER_RESPONSE
            self.device.set_state(DeviceState.MASTER_RESPONSE)
            echoed = reception.tx.meta.hop_phase
            self._resp_phase = echoed if echoed is not None else self._k1
            self._resp_deadline_ns = self.device.sim.now + \
                self.cfg.page_resp_timeout_slots * units.SLOT_NS
            self.device.rf.rx_off()
        elif self.state == self.MASTER_RESPONSE and packet.ptype is PacketType.ID:
            # slave acknowledged the FHS: switch to channel hopping
            self.state = self.NEW_CONNECTION
            self._poll_deadline_ns = self.device.sim.now + \
                self.cfg.new_connection_timeout_slots * units.SLOT_NS
            self.device.rf.rx_off()
        elif self.state == self.NEW_CONNECTION and packet.ptype in (
                PacketType.NULL, PacketType.POLL) and packet.am_addr == self.am_addr:
            self._finish(success=True)

    # -- completion --------------------------------------------------------

    def _finish(self, success: bool) -> None:
        if self._done:
            return
        duration = self._end_train()
        result = PageResult(success=success, duration_slots=duration,
                            am_addr=self.am_addr if success else 0,
                            id_transmissions=self._ids,
                            fhs_transmissions=self.fhs_transmissions)
        if not success:
            self.device.set_state(DeviceState.STANDBY)
        if self.on_complete is not None:
            self.on_complete(result)


class PageScanProcedure:
    """Slave-side page scan + slave response + connection setup."""

    SCANNING = "scanning"
    RESPONDING = "responding"      # ID sent, waiting for the master's FHS
    NEW_CONNECTION = "new_connection"  # FHS acked, waiting for first POLL

    def __init__(self, device: "BluetoothDevice",
                 on_complete: Optional[Callable[[bool], None]] = None):
        self.device = device
        self.cfg = device.cfg.link
        self.selector = HopSelector(device.addr.hop_address,
                                    device.hop_registry)
        self.on_complete = on_complete
        self.state = self.SCANNING
        self.master_addr: Optional[BdAddr] = None
        self.am_addr = 0
        self.piconet_clock: Optional[BtClock] = None
        self._resp_phase = 0
        self._done = False
        self._resp_timer = Timer(device.sim, self._response_timeout)
        self._newconn_timer = Timer(device.sim, self._response_timeout)

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Enter page scan (paper's Enable_page_scan); receiver always on."""
        self.device.set_state(DeviceState.PAGE_SCAN)
        self.device.active_handler = self
        self._listen_scan()

    def stop(self) -> None:
        """Leave page scan."""
        self._done = True
        self._resp_timer.cancel()
        self._newconn_timer.cancel()
        if self.device.rf.rx_open:
            self.device.rf.rx_off()
        if self.device.active_handler is self:
            self.device.active_handler = None
        if self.device.state is not DeviceState.CONNECTION:
            self.device.set_state(DeviceState.STANDBY)

    def _listen_scan(self) -> None:
        """Continuous page-scan listen; the scan frequency follows CLKN
        bits 16-12 automatically (redrawn every 1.28 s)."""
        device = self.device
        device.rf.rx_on_follow(
            ScanFrequency(self.selector, device.clock),
            RxExpect(device.addr.lap, uap=device.addr.uap))

    # -- RF callbacks ------------------------------------------------------

    def on_sync(self, tx: Transmission, matched: bool) -> bool:
        return matched

    def on_header(self, tx: Transmission, header_ok: bool, am_addr: Optional[int]) -> bool:
        return header_ok

    def on_reception(self, reception: "Reception") -> None:
        if self._done:
            return
        result = reception.result
        if not result.complete or result.packet is None:
            return
        packet = result.packet
        if self.state == self.SCANNING and packet.ptype is PacketType.ID:
            self._slave_response(reception)
        elif self.state == self.RESPONDING and packet.ptype is PacketType.FHS:
            self._on_fhs(reception)
        elif self.state == self.NEW_CONNECTION and packet.ptype is PacketType.POLL \
                and packet.am_addr == self.am_addr:
            self._on_first_poll(reception)

    # -- procedure steps -----------------------------------------------------

    def _slave_response(self, reception: "Reception") -> None:
        self.state = self.RESPONDING
        self.device.set_state(DeviceState.SLAVE_RESPONSE)
        heard = reception.tx.meta.hop_phase
        self._resp_phase = heard if heard is not None else 0
        self.device.rf.rx_off()
        delay = self.device.cfg.rf.modem_delay_ns
        reply_at = reception.tx.start_ns + delay + units.SLOT_NS
        self.device.sim.schedule_abs(reply_at, self._send_id_reply)

    def _send_id_reply(self) -> None:
        if self._done or self.state != self.RESPONDING:
            return
        device = self.device
        packet = Packet(ptype=PacketType.ID, lap=device.addr.lap)
        freq = self.selector.response(self._resp_phase, n=0)
        device.rf.transmit(freq, packet,
                           meta=TxMeta(hop_phase=self._resp_phase,
                                       purpose="page_slave_id"))
        # listen for the master's FHS on the paired response frequency
        device.sim.schedule(packet.duration_ns, self._listen_fhs)
        self._resp_timer.arm(self.cfg.page_resp_timeout_slots * units.SLOT_NS)

    def _listen_fhs(self) -> None:
        if self._done or self.state != self.RESPONDING:
            return
        self.device.rf.rx_on(self.selector.response(self._resp_phase, n=1),
                             RxExpect(self.device.addr.lap,
                                      uap=self.device.addr.uap))

    def _on_fhs(self, reception: "Reception") -> None:
        fhs = reception.packet.fhs
        assert fhs is not None
        self._resp_timer.cancel()
        self.master_addr = fhs.addr
        self.am_addr = fhs.am_addr
        # adopt the master's clock *and slot grid*: the FHS started exactly
        # on a master slot boundary, and CLK1-0 are zero there
        self.piconet_clock = BtClock(phase_ns=-reception.tx.start_ns,
                                     offset_ticks=fhs.clock_ticks())
        self.device.rf.rx_off()
        delay = self.device.cfg.rf.modem_delay_ns
        reply_at = reception.tx.start_ns + delay + units.SLOT_NS
        self.device.sim.schedule_abs(reply_at, self._send_fhs_ack)

    def _send_fhs_ack(self) -> None:
        if self._done:
            return
        device = self.device
        packet = Packet(ptype=PacketType.ID, lap=device.addr.lap)
        freq = self.selector.response(self._resp_phase, n=2)
        device.rf.transmit(freq, packet,
                           meta=TxMeta(hop_phase=self._resp_phase,
                                       purpose="page_fhs_ack"))
        self.state = self.NEW_CONNECTION
        self._newconn_timer.arm(self.cfg.new_connection_timeout_slots * units.SLOT_NS)
        device.sim.schedule(packet.duration_ns, self._listen_connection)

    def _listen_connection(self) -> None:
        """Wait for the master's first packet, following the channel hopping
        sequence continuously (the device is not yet delivering data, and
        the paper's Fig. 5 shows exactly this 'RF receiver always active'
        behaviour)."""
        if self._done or self.state != self.NEW_CONNECTION:
            return
        assert self.piconet_clock is not None and self.master_addr is not None
        device = self.device
        selector = HopSelector(self.master_addr.hop_address,
                               device.hop_registry)
        clock = self.piconet_clock
        device.rf.rx_on_follow(
            lambda now_ns: selector.connection(clock.clk(now_ns)),
            RxExpect(self.master_addr.lap, uap=self.master_addr.uap))

    def _on_first_poll(self, reception: "Reception") -> None:
        self._newconn_timer.cancel()
        device = self.device
        delay = device.cfg.rf.modem_delay_ns
        reply_at = reception.tx.start_ns + delay + units.SLOT_NS
        device.sim.schedule_abs(reply_at, self._send_first_null)

    def _send_first_null(self) -> None:
        if self._done:
            return
        device = self.device
        assert self.piconet_clock is not None and self.master_addr is not None
        if device.rf.rx_open:
            device.rf.rx_off()
        selector = HopSelector(self.master_addr.hop_address,
                               device.hop_registry)
        clk = self.piconet_clock.clk(device.sim.now)
        packet = Packet(ptype=PacketType.NULL, lap=self.master_addr.lap,
                        am_addr=self.am_addr, arqn=1)
        device.rf.transmit(selector.connection(clk), packet,
                           uap=self.master_addr.uap,
                           meta=TxMeta(purpose="newconn_null"))
        self._finish(success=True)

    # -- failure handling -------------------------------------------------

    def _response_timeout(self) -> None:
        """pagerespTO / newconnectionTO expired: fall back to page scan."""
        if self._done:
            return
        self.state = self.SCANNING
        self.am_addr = 0
        self.master_addr = None
        self.piconet_clock = None
        self.device.set_state(DeviceState.PAGE_SCAN)
        if self.device.rf.rx_open:
            self.device.rf.rx_off()
        self._listen_scan()

    def _finish(self, success: bool) -> None:
        if self._done:
            return
        self._done = True
        self._resp_timer.cancel()
        self._newconn_timer.cancel()
        self.device.active_handler = None
        if self.on_complete is not None:
            self.on_complete(success)
