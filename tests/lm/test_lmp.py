"""LMP PDUs and Link Manager negotiation over the air."""

import pytest

from repro.baseband.packets import PacketType
from repro.errors import DecodingError
from repro.link.states import ConnectionMode, DeviceState
from repro.lm.pdu import LmpOpcode, LmpPdu
from tests.conftest import make_session
from tests.kernels import kernel


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

    @pytest.mark.parametrize("engine", ["object", "soa"])
    def test_acknowledged_detach_drops_the_slave_at_the_first_check(
            self, engine):
        # the slave acknowledges the DETACH and leaves at its next pair
        # boundary; the master drops its side at the first check, 12 pairs
        # after the request
        with kernel(engine):
            session, master, slave = connected(seed=86)
            master.lm.request_detach(1)
            session.run_slots(2 * 12 + 2)
        assert slave.connection_slave is None
        assert slave.state is DeviceState.STANDBY
        assert not master.piconet.slaves

    @pytest.mark.parametrize("engine", ["object", "soa"])
    def test_unacknowledged_detach_drops_the_slave_after_six_polls(
            self, engine):
        # a slave that no longer listens never acknowledges the DETACH:
        # the master keeps it for six T_poll intervals (18 pairs at the
        # default 6 slots), checking every 12 pairs
        with kernel(engine):
            session, master, slave = connected(seed=86)
            slave.stop_procedure()
            master.lm.request_detach(1)
            session.run_slots(2 * 12 + 2)
            assert 1 in master.piconet.slaves
            session.run_slots(2 * 12)
        assert not master.piconet.slaves

    def test_unacknowledged_detach_of_a_sniffing_slave_waits_six_t_sniff(
            self):
        # six T_sniff intervals of 25 pairs: the first check past 150
        # pairs is the 13th, at 156
        session, master, slave = connected(seed=85)
        master.lm.request_sniff(1, t_sniff_slots=50)
        session.run_slots(120)
        assert master.piconet.slaves[1].mode is ConnectionMode.SNIFF
        slave.stop_procedure()
        master.lm.request_detach(1)
        session.run_slots(2 * 144 + 2)
        assert 1 in master.piconet.slaves
        session.run_slots(2 * 12)
        assert not master.piconet.slaves

    def test_master_detach_discards_the_queue_toward_the_slave(self):
        session, master, slave = connected(seed=87)
        master.enqueue_data(1, b"stale", PacketType.DM1)
        master.connection_master.detach(1)
        assert master.tx_buffer_for(1).empty

    # the seeds at which the parent's stale DETACH reached the next slave
    @pytest.mark.parametrize("seed", [81, 83, 86])
    @pytest.mark.parametrize("engine", ["object", "soa"])
    def test_next_slave_on_a_detached_am_addr_keeps_its_link(self, engine,
                                                             seed):
        # the departed slave's unacknowledged packets must not reach the
        # slave paged in under its AM_ADDR
        with kernel(engine):
            session, master, slave = connected(seed=seed)
            second = session.add_device("second")
            master.lm.request_detach(1)
            session.run_slots(80)
            assert not master.piconet.slaves
            page = session.run_page(master, second)
            assert page.success and page.am_addr == 1
            session.run_slots(200)
        assert second.connection_slave is not None
        assert second.state is DeviceState.CONNECTION
        assert master.piconet.slaves[1].addr == second.addr

    def test_sniff_refused_by_policy(self):
        session, master, slave = connected(seed=87)
        slave.lm.accept_sniff = False
        master.lm.request_sniff(1, t_sniff_slots=60)
        session.run_slots(60)
        # slave refused: it never enters sniff
        assert slave.connection_slave.mode is ConnectionMode.ACTIVE


class TestHostController:
    # the seeds of 80-99 at which this sequence links up; at 88 and 96 the
    # sniffing slave's first anchor fell after the 12 pairs in which the
    # master used to drop its side unconditionally, so the slave never
    # heard the DETACH
    @pytest.mark.parametrize("seed", [81, 83, 84, 85, 87, 88, 89, 90, 91,
                                      93, 96, 97, 98])
    def test_full_hci_flow(self, seed):
        session = make_session(seed=seed)
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
        assert slave.connection_slave is None
        assert slave.state is DeviceState.STANDBY

    def test_create_connection_requires_discovery(self):
        from repro.errors import ProtocolError

        session = make_session(seed=89)
        master = session.add_device("master")
        stranger = session.add_device("stranger")
        host = session.host(master)
        with pytest.raises(ProtocolError):
            host.create_connection(stranger.addr)
