"""Connection state: polling, data transfer, ARQ and low-power modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.api import Session
from repro.baseband.packets import PacketType
from repro.config import SimulationConfig
from repro.link.connection import ConnectionSlave
from repro.link.piconet import HoldParams, ParkParams, SniffParams
from repro.link.states import ConnectionMode
from repro.link.traffic import PeriodicTraffic, SaturatedTraffic
from tests.conftest import make_session
from tests.kernels import kernel


def connected_pair(seed=40, ber=0.0, **cfg):
    session = make_session(seed=seed, ber=ber, **cfg)
    master = session.add_device("master")
    slave = session.add_device("slave")
    result = session.run_page(master, slave)
    assert result.success
    return session, master, slave


class TestDataTransfer:
    def test_payload_delivered(self):
        session, master, slave = connected_pair()
        master.enqueue_data(1, b"hello bluetooth", PacketType.DM1)
        session.run_slots(40)
        items = slave.rx_buffer.drain()
        assert [i.payload for i in items] == [b"hello bluetooth"]

    def test_many_payloads_in_order(self):
        session, master, slave = connected_pair(seed=41)
        payloads = [bytes([i]) * 10 for i in range(12)]
        for payload in payloads:
            master.enqueue_data(1, payload, PacketType.DM1)
        session.run_slots(200)
        received = [i.payload for i in slave.rx_buffer.drain()]
        assert received == payloads

    def test_slave_to_master_data(self):
        session, master, slave = connected_pair(seed=42)
        slave.enqueue_data(0, b"uplink", PacketType.DM1)
        session.run_slots(60)
        items = master.rx_buffer.drain()
        assert [i.payload for i in items] == [b"uplink"]

    def test_multi_slot_packets(self):
        session, master, slave = connected_pair(seed=43)
        big = bytes(range(200)) + bytes(24)
        master.enqueue_data(1, big, PacketType.DM5)
        session.run_slots(60)
        assert slave.rx_buffer.drain()[0].payload == big

    def test_saturated_throughput_near_nominal(self):
        session, master, slave = connected_pair(seed=44, t_poll_slots=1000)
        SaturatedTraffic(master, 1, ptype=PacketType.DM1).start()
        session.run_slots(100)
        slave.rx_buffer.drain()
        start_bytes = slave.rx_buffer.total_bytes
        start_ns = session.sim.now
        session.run_slots(1000)
        rate_kbps = ((slave.rx_buffer.total_bytes - start_bytes) * 8
                     / ((session.sim.now - start_ns) / units.SEC) / 1000)
        assert rate_kbps == pytest.approx(108.8, rel=0.05)

    def test_arq_recovers_under_noise(self):
        session, master, slave = connected_pair(seed=45, ber=0.01,
                                                t_poll_slots=1000)
        payloads = [bytes([i]) * 17 for i in range(20)]
        for payload in payloads:
            master.enqueue_data(1, payload, PacketType.DM1)
        session.run_slots(2000)
        received = [i.payload for i in slave.rx_buffer.drain()]
        assert received == payloads  # no loss, no duplication, in order

    def test_keepalive_polling_when_idle(self):
        session, master, slave = connected_pair(seed=46)
        before = master.connection_master.stats_tx_packets
        session.run_slots(120)
        # t_poll default 6 slots -> at least ~20 keep-alive polls
        assert master.connection_master.stats_tx_packets - before >= 15


def _spy_transmissions(devices) -> dict:
    """Record every packet each of ``devices`` puts on the air."""
    sent = {device: [] for device in devices}
    for device in devices:
        def spy(freq, packet, uap=0, meta=None, power_dbm=0.0,
                device=device, transmit=device.rf.transmit):
            tx = transmit(freq, packet, uap=uap, meta=meta,
                          power_dbm=power_dbm)
            sent[device].append(tx)
            return tx
        device.rf.transmit = spy
    return sent


class _PayloadHit:
    """Bit-accurate noise that flips ``positions`` (offsets past the
    126-bit access code and header) in the first frame longer than a
    POLL, and nothing else: that packet's header survives and its payload
    fails."""

    def __init__(self, positions):
        self.positions = positions
        self.spent = False

    def error_positions(self, n):
        if self.spent or n <= 126:
            return np.zeros(0, dtype=np.int64)
        self.spent = True
        return np.array([126 + offset for offset in self.positions])


class TestBitAccurateArq:
    @pytest.mark.parametrize("ptype,positions", [
        (PacketType.DH3, [40]),      # a user-payload bit: the CRC fails
        (PacketType.DM5, [0, 1]),    # two errors in one FEC 2/3 codeword
    ], ids=["DH3", "DM5"])
    def test_failed_payload_is_naked_after_its_slots(self, ptype, positions):
        session = Session(config=SimulationConfig(seed=57,
                                                  bit_accurate=True))
        master = session.add_device("master")
        slave = session.add_device("slave")
        assert session.run_page(master, slave).success
        session.channel.noise = _PayloadHit(positions)
        handler = slave.connection_slave
        received = []
        on_reception = handler.on_reception

        def spy_reception(reception):
            received.append(reception)
            return on_reception(reception)

        handler.on_reception = spy_reception
        sent = _spy_transmissions([master, slave])
        payload = bytes(range(ptype.info.max_payload))
        master.enqueue_data(1, payload, ptype)
        session.run_slots(40)
        data = [tx for tx in sent[master] if tx.packet.ptype is ptype]
        failed = [r for r in received if r.tx is data[0]]
        assert len(failed) == 1
        result = failed[0].result
        assert result.header_ok and not result.payload_ok
        assert result.packet is None
        assert result.header_am == 1
        assert result.header_type == ptype.info.code
        # the reply starts in the slot after the packet's slots and NAKs
        reply_at = data[0].start_ns + session.config.rf.modem_delay_ns \
            + ptype.info.slots * units.SLOT_NS
        reply = [tx for tx in sent[slave] if tx.start_ns == reply_at]
        assert len(reply) == 1 and reply[0].packet.arqn == 0
        # the retransmission goes through, once
        assert len(data) >= 2
        assert [i.payload for i in slave.rx_buffer.drain()] == [payload]


#: the ACL types that carry user data, one to five slots long
ACL_TYPES = [PacketType.DM1, PacketType.DH1, PacketType.DM3, PacketType.DH3,
             PacketType.DM5, PacketType.DH5]


@st.composite
def _payloads(draw):
    ptype = draw(st.sampled_from(ACL_TYPES))
    return ptype, draw(st.integers(1, ptype.info.max_payload))


class TestSlotReservation:
    @settings(max_examples=40, deadline=None)
    @given(engine=st.sampled_from(["object", "soa"]),
           seed=st.integers(0, 10_000), down=_payloads(), up=_payloads())
    def test_master_waits_out_the_slots_its_packet_reserved(
            self, engine, seed, down, up):
        """The TYPE code reserves a multi-slot packet's slots, whatever
        its payload length: the master sends nothing inside them, and it
        listens for every reply they solicit."""
        with kernel(engine):
            session, master, slave = connected_pair(seed=seed)
        handler = master.connection_master
        heard = []
        on_reception = handler.on_reception

        def spy_reception(reception):
            heard.append(reception.tx)
            return on_reception(reception)

        handler.on_reception = spy_reception
        sent = _spy_transmissions([master, slave])
        for device, am_addr, (ptype, length) in ((master, 1, down),
                                                 (slave, 0, up)):
            for _ in range(3):
                device.enqueue_data(am_addr, bytes(length), ptype)
        session.run_slots(120)
        sends = sent[master]
        assert any(tx.packet.ptype is down[0] for tx in sends)
        for previous, tx in zip(sends, sends[1:]):
            reserved = previous.packet.ptype.info.slots * units.SLOT_NS
            assert tx.start_ns >= previous.start_ns + reserved
        # the receiver hears a packet end one modem delay after it
        delivered_by = session.sim.now - session.config.rf.modem_delay_ns
        replies = [tx for tx in sent[slave] if tx.end_ns < delivered_by]
        assert replies
        assert all(any(tx is reply for tx in heard) for reply in replies)


class TestSniffMode:
    def test_direct_sniff_reduces_rx_windows(self):
        session, master, slave = connected_pair(seed=47, t_poll_slots=2000)
        from repro.power.rf_activity import RfActivityProbe

        probe = RfActivityProbe(slave)
        session.run_slots(1000)
        active_windows = probe.sample().rx_windows
        params = SniffParams(t_sniff_slots=40, n_attempt_slots=1)
        master.connection_master.set_sniff(1, params)
        slave.connection_slave.enter_sniff(params)
        probe.reset()
        session.run_slots(1000)
        sniff_windows = probe.sample().rx_windows
        assert sniff_windows < active_windows / 4

    def test_sniffed_slave_still_gets_data(self):
        session, master, slave = connected_pair(seed=48, t_poll_slots=2000)
        params = SniffParams(t_sniff_slots=40, n_attempt_slots=1)
        master.connection_master.set_sniff(1, params)
        slave.connection_slave.enter_sniff(params)
        traffic = PeriodicTraffic(master, 1, period_slots=100,
                                  ptype=PacketType.DM1, payload_len=17)
        traffic.start()
        session.run_slots(1200)
        assert slave.rx_buffer.total_received >= 10

    def test_exit_sniff(self):
        session, master, slave = connected_pair(seed=49)
        params = SniffParams(t_sniff_slots=40, n_attempt_slots=1)
        master.connection_master.set_sniff(1, params)
        slave.connection_slave.enter_sniff(params)
        session.run_slots(100)
        master.connection_master.exit_sniff(1)
        slave.connection_slave.exit_sniff()
        assert slave.connection_slave.mode is ConnectionMode.ACTIVE
        master.enqueue_data(1, b"after sniff", PacketType.DM1)
        session.run_slots(40)
        assert slave.rx_buffer.total_received == 1


class TestHoldMode:
    def test_radio_silent_during_hold(self):
        session, master, slave = connected_pair(seed=50)
        from repro.power.rf_activity import RfActivityProbe

        master.connection_master.set_hold(1, HoldParams(hold_slots=400))
        slave.connection_slave.enter_hold(HoldParams(hold_slots=400))
        session.run_slots(20)
        probe = RfActivityProbe(slave)
        session.run_slots(300)  # strictly inside the hold
        sample = probe.sample()
        assert sample.rx_activity == 0.0
        assert sample.tx_activity == 0.0

    def test_resynchronises_after_hold(self):
        session, master, slave = connected_pair(seed=51)
        master.connection_master.set_hold(1, HoldParams(hold_slots=200))
        slave.connection_slave.enter_hold(HoldParams(hold_slots=200))
        session.run_slots(260)
        assert slave.connection_slave.mode is ConnectionMode.ACTIVE
        master.enqueue_data(1, b"post hold", PacketType.DM1)
        session.run_slots(40)
        assert slave.rx_buffer.total_received == 1


class TestParkMode:
    def test_parked_slave_frees_am_addr(self):
        session, master, slave = connected_pair(seed=52)
        master.connection_master.park(1, ParkParams(beacon_interval_slots=64, pm_addr=2))
        slave.connection_slave.enter_park(ParkParams(beacon_interval_slots=64, pm_addr=2))
        assert not master.piconet.slaves
        assert 2 in master.piconet.parked

    def test_parked_slave_wakes_at_beacons_only(self):
        session, master, slave = connected_pair(seed=53, t_poll_slots=2000)
        from repro.power.rf_activity import RfActivityProbe

        master.connection_master.park(1, ParkParams(beacon_interval_slots=64, pm_addr=2))
        slave.connection_slave.enter_park(ParkParams(beacon_interval_slots=64, pm_addr=2))
        probe = RfActivityProbe(slave)
        session.run_slots(1280)
        windows = probe.sample().rx_windows
        # one window per beacon interval (64 slots -> 32 pairs)
        expected = 1280 / 64
        assert windows <= 2.5 * expected

    def test_unpark_restores_link(self):
        session, master, slave = connected_pair(seed=54)
        master.connection_master.park(1, ParkParams(beacon_interval_slots=64, pm_addr=2))
        slave.connection_slave.enter_park(ParkParams(beacon_interval_slots=64, pm_addr=2))
        session.run_slots(100)
        new_am = master.connection_master.unpark(2)
        slave.connection_slave.unpark(new_am)
        session.run_slots(20)
        master.enqueue_data(new_am, b"welcome back", PacketType.DM1)
        session.run_slots(60)
        assert slave.rx_buffer.total_received == 1


class TestDetach:
    def test_master_detach_removes_slave(self):
        session, master, slave = connected_pair(seed=55)
        master.connection_master.detach(1)
        assert not master.piconet.slaves

    @pytest.mark.parametrize("engine", ["object", "soa"])
    def test_stopped_slave_opens_no_listen_window(self, engine,
                                                  monkeypatch):
        with kernel(engine):
            session, master, slave = connected_pair(seed=57)
        handler = slave.connection_slave
        slave.stop_procedure()
        served = []
        listen = ConnectionSlave.listen

        def counted(self):
            served.append(listen(self))
            return served[-1]

        monkeypatch.setattr(ConnectionSlave, "listen", counted)
        received = handler.stats_rx_packets
        session.run_slots(2000)
        # the loop's event already queued finds it stopped: no window
        # opens and nothing follows
        assert served in ([], [(None, None)])
        assert handler.stats_rx_packets == received

    def test_device_detach_resets_everything(self):
        session, master, slave = connected_pair(seed=56)
        slave.detach()
        master.detach()
        assert master.piconet is None
        assert slave.connection_slave is None
