"""The Link Manager: negotiates connection modes over LMP.

Mode changes are scheduled for a *future* pair index carried in the request
(default: ``APPLY_DELAY_PAIRS`` ahead), so both ends switch simultaneously
even though the PDU and its acceptance take a few slots to deliver — the
same trick the real LMP uses with its timing-control flags.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ProtocolError
from repro.link.piconet import HoldParams, ParkParams, SniffParams
from repro.lm.pdu import LmpOpcode, LmpPdu

if TYPE_CHECKING:  # pragma: no cover
    from repro.link.device import BluetoothDevice

#: How many master-slot pairs in the future negotiated changes take effect.
APPLY_DELAY_PAIRS = 12

#: How many of a slave's poll intervals the master waits for the
#: acknowledgement of a DETACH before it drops its side regardless.
DETACH_TIMEOUT_POLLS = 6


class LinkManager:
    """Per-device LMP endpoint.

    The master-side request methods queue a PDU and schedule the local
    application of the change; the slave side applies on reception and
    answers LMP_ACCEPTED. Policy hooks (``accept_sniff`` etc.) can be
    overridden to refuse requests.
    """

    def __init__(self, device: "BluetoothDevice"):
        self.device = device
        self.pdus_sent = 0
        self.pdus_received = 0
        # acceptance policy hooks (host can override)
        self.accept_sniff = True
        self.accept_hold = True
        self.accept_park = True

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def send(self, am_addr: int, pdu: LmpPdu) -> None:
        """Queue a PDU on the link (LLID 3, DM1)."""
        self.device.enqueue_data(am_addr, pdu.pack(), is_lmp=True)
        self.pdus_sent += 1

    def on_rx(self, src_am_addr: int, payload: bytes) -> None:
        """Called by the connection logic for every LLID-3 payload."""
        pdu = LmpPdu.unpack(payload)
        self.pdus_received += 1
        handler = getattr(self, f"_on_{pdu.opcode.name.lower()}", None)
        if handler is not None:
            handler(src_am_addr, pdu)

    # ------------------------------------------------------------------
    # Master-side requests
    # ------------------------------------------------------------------

    def request_sniff(self, am_addr: int, t_sniff_slots: int,
                      n_attempt_slots: int = 2, d_sniff_slots: int = 0) -> None:
        """Negotiate sniff mode for a slave (master role)."""
        master = self._master()
        start_pair = master.pair_index() + APPLY_DELAY_PAIRS
        self.send(am_addr, LmpPdu(LmpOpcode.SNIFF_REQ, {
            "t_sniff_slots": t_sniff_slots,
            "n_attempt_slots": n_attempt_slots,
            "d_sniff_slots": d_sniff_slots,
            "start_pair": start_pair,
        }))
        self._at_pair(start_pair, lambda: master.set_sniff(
            am_addr, SniffParams(t_sniff_slots, n_attempt_slots, d_sniff_slots)))

    def request_unsniff(self, am_addr: int) -> None:
        """Return a sniffing slave to active mode (master role)."""
        master = self._master()
        start_pair = master.pair_index() + APPLY_DELAY_PAIRS
        self.send(am_addr, LmpPdu(LmpOpcode.UNSNIFF_REQ, {"start_pair": start_pair}))
        self._at_pair(start_pair, lambda: master.exit_sniff(am_addr))

    def request_hold(self, am_addr: int, hold_slots: int) -> None:
        """Negotiate hold mode for a slave (master role)."""
        master = self._master()
        start_pair = master.pair_index() + APPLY_DELAY_PAIRS
        self.send(am_addr, LmpPdu(LmpOpcode.HOLD_REQ, {
            "hold_slots": hold_slots, "start_pair": start_pair,
        }))
        self._at_pair(start_pair, lambda: master.set_hold(
            am_addr, HoldParams(hold_slots=hold_slots, start_slot=start_pair)))

    def request_park(self, am_addr: int, beacon_interval_slots: int,
                     pm_addr: int = 1) -> None:
        """Park a slave (master role)."""
        master = self._master()
        start_pair = master.pair_index() + APPLY_DELAY_PAIRS
        self.send(am_addr, LmpPdu(LmpOpcode.PARK_REQ, {
            "beacon_interval_slots": beacon_interval_slots,
            "pm_addr": pm_addr, "start_pair": start_pair,
        }))
        self._at_pair(start_pair, lambda: master.park(
            am_addr, ParkParams(beacon_interval_slots=beacon_interval_slots,
                                pm_addr=pm_addr)))

    def request_detach(self, am_addr: int, reason: int = 0) -> None:
        """Detach a slave from the piconet (master role).

        The master drops its side at the first check, every
        ``APPLY_DELAY_PAIRS`` pairs, at which the slave has acknowledged
        the DETACH PDU (no LMP PDU is left queued toward it), or once
        ``DETACH_TIMEOUT_POLLS`` of the slave's poll intervals (T_sniff
        for a sniffing slave, else T_poll) have passed without that."""
        master = self._master()
        self.send(am_addr, LmpPdu(LmpOpcode.DETACH, {"reason": reason}))
        buffer = self.device.tx_buffers[am_addr]
        start = master.pair_index()
        t_poll = max(1, self.device.cfg.link.t_poll_slots // 2)

        def check(pair: int) -> None:
            link = master.piconet.slaves.get(am_addr)
            if link is None:
                return  # dropped already
            head = buffer.head
            interval = t_poll if link.sniff is None \
                else link.sniff.t_sniff_slots  # in pairs on the master side
            if head is None or not head.is_lmp \
                    or pair - start >= DETACH_TIMEOUT_POLLS * interval:
                master.detach(am_addr)
            else:
                later = pair + APPLY_DELAY_PAIRS
                self._at_pair(later, lambda: check(later))

        first = start + APPLY_DELAY_PAIRS
        self._at_pair(first, lambda: check(first))

    # ------------------------------------------------------------------
    # Slave-side handlers
    # ------------------------------------------------------------------

    def _slave(self):
        slave = self.device.connection_slave
        if slave is None:
            raise ProtocolError("LMP mode request received but not a slave")
        return slave

    def _reply_accept(self, opcode: LmpOpcode, accept: bool) -> None:
        reply = LmpPdu(LmpOpcode.ACCEPTED, {"opcode_acked": opcode.value}) \
            if accept else \
            LmpPdu(LmpOpcode.NOT_ACCEPTED, {"opcode_acked": opcode.value, "reason": 0})
        self.send(0, reply)

    def _on_sniff_req(self, src: int, pdu: LmpPdu) -> None:
        slave = self._slave()
        if not self.accept_sniff:
            self._reply_accept(LmpOpcode.SNIFF_REQ, False)
            return
        self._reply_accept(LmpOpcode.SNIFF_REQ, True)
        params = SniffParams(
            t_sniff_slots=pdu.params["t_sniff_slots"],
            n_attempt_slots=pdu.params["n_attempt_slots"],
            d_sniff_slots=pdu.params["d_sniff_slots"],
        )
        self._at_slave_pair(pdu.params["start_pair"],
                            lambda: slave.enter_sniff(params))

    def _on_unsniff_req(self, src: int, pdu: LmpPdu) -> None:
        slave = self._slave()
        self._reply_accept(LmpOpcode.UNSNIFF_REQ, True)
        self._at_slave_pair(pdu.params["start_pair"], slave.exit_sniff)

    def _on_hold_req(self, src: int, pdu: LmpPdu) -> None:
        slave = self._slave()
        if not self.accept_hold:
            self._reply_accept(LmpOpcode.HOLD_REQ, False)
            return
        self._reply_accept(LmpOpcode.HOLD_REQ, True)
        params = HoldParams(hold_slots=pdu.params["hold_slots"],
                            start_slot=pdu.params["start_pair"])
        self._at_slave_pair(pdu.params["start_pair"],
                            lambda: slave.enter_hold(params))

    def _on_park_req(self, src: int, pdu: LmpPdu) -> None:
        slave = self._slave()
        if not self.accept_park:
            self._reply_accept(LmpOpcode.PARK_REQ, False)
            return
        self._reply_accept(LmpOpcode.PARK_REQ, True)
        params = ParkParams(beacon_interval_slots=pdu.params["beacon_interval_slots"],
                            pm_addr=pdu.params["pm_addr"])
        self._at_slave_pair(pdu.params["start_pair"],
                            lambda: slave.enter_park(params))

    def _on_detach(self, src: int, pdu: LmpPdu) -> None:
        slave = self.device.connection_slave
        if slave is None:
            return
        device = self.device

        def leave() -> None:
            if device.connection_slave is slave:
                device.detach()

        # leave at the next pair boundary, once the reply that
        # acknowledges the PDU has gone out
        self._at_slave_pair(slave.pair_index() + 1, leave)

    def _on_accepted(self, src: int, pdu: LmpPdu) -> None:
        pass  # changes are applied on schedule; acceptance is informational

    def _on_not_accepted(self, src: int, pdu: LmpPdu) -> None:
        pass

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _master(self):
        master = self.device.connection_master
        if master is None:
            raise ProtocolError("LMP mode request requires the master role")
        return master

    def _at_pair(self, pair: int, action) -> None:
        """Run ``action`` at a master-clock pair boundary."""
        time_ns = self.device.clock.time_at_tick(pair * 4)
        self.device.sim.schedule_abs(max(time_ns, self.device.sim.now), action)

    def _at_slave_pair(self, pair: int, action) -> None:
        """Run ``action`` at a piconet-clock pair boundary (slave side)."""
        slave = self._slave()
        time_ns = slave.clock.time_at_tick(pair * 4)
        self.device.sim.schedule_abs(max(time_ns, self.device.sim.now), action)
