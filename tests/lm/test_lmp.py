"""LMP PDUs and Link Manager negotiation over the air."""

import pytest

from repro.errors import DecodingError
from repro.link.states import ConnectionMode
from repro.lm.pdu import LmpOpcode, LmpPdu
from tests.conftest import make_session


class TestPdu:
    def test_roundtrip_all_opcodes(self):
        samples = {
            LmpOpcode.ACCEPTED: {"opcode_acked": 23},
            LmpOpcode.NOT_ACCEPTED: {"opcode_acked": 20, "reason": 6},
            LmpOpcode.DETACH: {"reason": 0x13},
            LmpOpcode.HOLD_REQ: {"hold_slots": 400, "start_pair": 123456},
            LmpOpcode.SNIFF_REQ: {"t_sniff_slots": 100, "n_attempt_slots": 2,
                                  "d_sniff_slots": 0, "start_pair": 99},
            LmpOpcode.UNSNIFF_REQ: {"start_pair": 7},
            LmpOpcode.PARK_REQ: {"beacon_interval_slots": 128, "pm_addr": 3,
                                 "start_pair": 50},
            LmpOpcode.UNPARK_REQ: {"pm_addr": 3, "am_addr": 2, "start_pair": 60},
            LmpOpcode.SETUP_COMPLETE: {},
        }
        for opcode, params in samples.items():
            pdu = LmpPdu(opcode, params)
            assert LmpPdu.unpack(pdu.pack()) == pdu

    def test_empty_pdu_rejected(self):
        with pytest.raises(DecodingError):
            LmpPdu.unpack(b"")

    def test_unknown_opcode_rejected(self):
        with pytest.raises(DecodingError):
            LmpPdu.unpack(bytes([200]))

    def test_truncated_pdu_rejected(self):
        packed = LmpPdu(LmpOpcode.HOLD_REQ,
                        {"hold_slots": 1, "start_pair": 2}).pack()
        with pytest.raises(DecodingError):
            LmpPdu.unpack(packed[:3])


def connected(seed=80, **cfg):
    session = make_session(seed=seed, **cfg)
    master = session.add_device("master")
    slave = session.add_device("slave")
    assert session.run_page(master, slave).success
    return session, master, slave


class TestLinkManagerNegotiation:
    def test_sniff_negotiated_over_the_air(self):
        session, master, slave = connected(seed=81)
        master.lm.request_sniff(1, t_sniff_slots=60, n_attempt_slots=1)
        session.run_slots(120)
        assert slave.connection_slave.mode is ConnectionMode.SNIFF
        link = master.piconet.slaves[1]
        assert link.mode is ConnectionMode.SNIFF
        assert slave.lm.pdus_received >= 1
        assert master.lm.pdus_received >= 1  # the ACCEPTED came back

    def test_both_sides_switch_at_same_pair(self):
        session, master, slave = connected(seed=82)
        master.lm.request_sniff(1, t_sniff_slots=60)
        # before the negotiated instant, both are still active
        session.run_slots(4)
        assert slave.connection_slave.mode is ConnectionMode.ACTIVE
        session.run_slots(120)
        assert slave.connection_slave.mode is ConnectionMode.SNIFF

    # each mode request goes out through the link manager and through the
    # HCI verb of the master's host facade

    @pytest.mark.parametrize("unsniff", [
        lambda session, master: master.lm.request_unsniff(1),
        lambda session, master: session.host(master).exit_sniff_mode(1),
    ], ids=["lm", "hci"])
    def test_unsniff(self, unsniff):
        session, master, slave = connected(seed=83)
        master.lm.request_sniff(1, t_sniff_slots=40, n_attempt_slots=1)
        session.run_slots(120)
        unsniff(session, master)
        session.run_slots(240)
        assert slave.connection_slave.mode is ConnectionMode.ACTIVE

    @pytest.mark.parametrize("hold", [
        lambda session, master: master.lm.request_hold(1, hold_slots=160),
        lambda session, master: session.host(master).hold_mode(1, 160),
    ], ids=["lm", "hci"])
    def test_hold_via_lmp(self, hold):
        session, master, slave = connected(seed=84)
        hold(session, master)
        session.run_slots(80)
        assert slave.connection_slave.mode is ConnectionMode.HOLD
        session.run_slots(400)
        assert slave.connection_slave.mode is ConnectionMode.ACTIVE

    @pytest.mark.parametrize("park", [
        lambda session, master: master.lm.request_park(
            1, beacon_interval_slots=64, pm_addr=4),
        lambda session, master: session.host(master).park_mode(
            1, beacon_interval_slots=64, pm_addr=4),
    ], ids=["lm", "hci"])
    def test_park_via_lmp(self, park):
        session, master, slave = connected(seed=85)
        park(session, master)
        session.run_slots(120)
        assert slave.connection_slave.mode is ConnectionMode.PARK
        assert 4 in master.piconet.parked

    @pytest.mark.parametrize("detach", [
        lambda session, master: master.lm.request_detach(1),
        lambda session, master: session.host(master).disconnect(1),
    ], ids=["lm", "hci"])
    def test_detach_via_lmp(self, detach):
        session, master, slave = connected(seed=86)
        detach(session, master)
        session.run_slots(80)
        assert slave.connection_slave is None
        assert not master.piconet.slaves

    def test_sniff_refused_by_policy(self):
        session, master, slave = connected(seed=87)
        slave.lm.accept_sniff = False
        master.lm.request_sniff(1, t_sniff_slots=60)
        session.run_slots(60)
        # slave refused: it never enters sniff
        assert slave.connection_slave.mode is ConnectionMode.ACTIVE


class TestHostController:
    def test_full_hci_flow(self):
        session = make_session(seed=88)
        master = session.add_device("master")
        slave = session.add_device("slave")
        host = session.host(master)
        slave_host = session.host(slave)
        slave_host.write_scan_enable(inquiry_scan=True)
        host.inquiry(num_responses=1)
        guard = 0
        while not host.inquiry_results and guard < 300:
            session.run_slots(64)
            guard += 1
        assert host.inquiry_results
        slave.stop_procedure()
        slave_host.write_scan_enable(inquiry_scan=False)  # page scan now
        host.create_connection(slave.addr)
        guard = 0
        while host.last_page is None and guard < 300:
            session.run_slots(64)
            guard += 1
        assert host.last_page is not None and host.last_page.success
        assert host.connections[1] == slave.addr
        host.sniff_mode(1, t_sniff_slots=50)
        session.run_slots(120)
        assert slave.connection_slave.mode is ConnectionMode.SNIFF
        host.disconnect(1)
        session.run_slots(120)
        assert not master.piconet.slaves
        assert host.connections == {}

    def test_create_connection_requires_discovery(self):
        from repro.errors import ProtocolError

        session = make_session(seed=89)
        master = session.add_device("master")
        stranger = session.add_device("stranger")
        host = session.host(master)
        with pytest.raises(ProtocolError):
            host.create_connection(stranger.addr)
