"""Noise models and the channel's staged delivery / collision logic."""

import numpy as np
import pytest

from repro import units
from repro.baseband.packets import Packet, PacketType
from repro.config import SimulationConfig
from repro.errors import ChannelError
from repro.phy.channel import Channel
from repro.phy.noise import BerNoise, GilbertElliottNoise
from repro.phy.rf import RfFrontEnd, RxExpect
from repro.baseband.clock import BtClock
from repro.sim.module import Module
from repro.sim.rng import RandomStreams
from repro.sim.simulator import Simulator


class TestBerNoise:
    def test_zero_ber_no_errors(self):
        noise = BerNoise(0.0, np.random.default_rng(0))
        assert len(noise.error_positions(1000)) == 0

    def test_rate_matches(self):
        noise = BerNoise(0.05, np.random.default_rng(1))
        total = sum(len(noise.error_positions(1000)) for _ in range(100))
        assert total == pytest.approx(0.05 * 100_000, rel=0.15)

    def test_positions_in_range_and_unique(self):
        noise = BerNoise(0.2, np.random.default_rng(2))
        positions = noise.error_positions(64)
        assert len(set(positions.tolist())) == len(positions)
        assert all(0 <= p < 64 for p in positions)


class TestGilbertElliott:
    def test_average_rate_preserved(self):
        noise = GilbertElliottNoise(0.02, burst_len=8, rng=np.random.default_rng(3))
        total = sum(len(noise.error_positions(1000)) for _ in range(200))
        assert total == pytest.approx(0.02 * 200_000, rel=0.3)

    def test_errors_cluster(self):
        noise = GilbertElliottNoise(0.02, burst_len=20,
                                    rng=np.random.default_rng(4))
        gaps = []
        for _ in range(300):
            positions = sorted(noise.error_positions(2000).tolist())
            gaps.extend(b - a for a, b in zip(positions, positions[1:]))
        # bursty errors have many consecutive-position gaps
        small_gaps = sum(1 for g in gaps if g <= 3)
        assert small_gaps > len(gaps) * 0.25


def build_world(ber=0.0, **cfg_kwargs):
    sim = Simulator()
    config = SimulationConfig(seed=5, **cfg_kwargs).with_ber(ber)
    channel = Channel(sim, "channel", config, RandomStreams(5))
    top = Module(sim, "top")
    radios = []
    for i in range(3):
        radio = RfFrontEnd(sim, f"rf{i}", top, channel, BtClock())
        radios.append(radio)
    return sim, channel, radios


class Listener:
    """Records callbacks like a link controller would."""

    def __init__(self):
        self.syncs = []
        self.headers = []
        self.receptions = []

    def on_sync(self, tx, matched):
        self.syncs.append(matched)
        return matched

    def on_header(self, tx, header_ok, am_addr):
        self.headers.append((header_ok, am_addr))
        return True

    def on_reception(self, reception):
        self.receptions.append(reception)


class TestChannelDelivery:
    def test_full_packet_delivery(self):
        sim, channel, (a, b, _) = build_world()
        listener = Listener()
        b.listener = listener
        packet = Packet(ptype=PacketType.DM1, lap=0x123456, am_addr=2,
                        payload=b"hi")
        sim.schedule(1000, lambda: b.rx_on(10, RxExpect(0x123456)))
        sim.schedule(2000, lambda: a.transmit(10, packet))
        sim.run()
        assert listener.syncs == [True]
        assert listener.headers == [(True, 2)]
        assert len(listener.receptions) == 1
        assert listener.receptions[0].result.complete

    def test_wrong_frequency_not_heard(self):
        sim, channel, (a, b, _) = build_world()
        listener = Listener()
        b.listener = listener
        sim.schedule(0, lambda: b.rx_on(11, RxExpect(0x123456)))
        sim.schedule(10, lambda: a.transmit(10, Packet(ptype=PacketType.ID, lap=0x123456)))
        sim.run()
        assert listener.receptions == []

    def test_wrong_lap_fails_sync(self):
        sim, channel, (a, b, _) = build_world()
        listener = Listener()
        b.listener = listener
        sim.schedule(0, lambda: b.rx_on(10, RxExpect(0x999999)))
        sim.schedule(10, lambda: a.transmit(10, Packet(ptype=PacketType.ID, lap=0x123456)))
        sim.run()
        # ID delivery still reports the failed sync
        assert listener.syncs == [False]

    def test_id_delivered_at_sync_point(self):
        sim, channel, (a, b, _) = build_world()
        listener = Listener()
        b.listener = listener
        sim.schedule(0, lambda: b.rx_on(5, RxExpect(0xABCDEF)))
        sim.schedule(1000, lambda: a.transmit(5, Packet(ptype=PacketType.ID, lap=0xABCDEF)))
        sim.run()
        reception = listener.receptions[0]
        assert reception.result.complete
        # 68 us sync + 2 us modem delay after the 1 us start
        assert reception.rx_time_ns == 1000 + 68 * units.US + 2 * units.US

    def test_collision_corrupts_both(self):
        sim, channel, (a, b, c) = build_world()
        listener = Listener()
        c.listener = listener
        packet1 = Packet(ptype=PacketType.DM1, lap=0x123456, payload=b"one")
        packet2 = Packet(ptype=PacketType.DM1, lap=0x123456, payload=b"two")
        sim.schedule(0, lambda: c.rx_on(20, RxExpect(0x123456)))
        sim.schedule(100, lambda: a.transmit(20, packet1))
        sim.schedule(200, lambda: b.transmit(20, packet2))
        sim.run()
        assert channel.collisions >= 1
        assert all(not r.result.complete for r in listener.receptions)

    def test_no_collision_on_different_frequencies(self):
        sim, channel, (a, b, c) = build_world()
        listener = Listener()
        c.listener = listener
        sim.schedule(0, lambda: c.rx_on(20, RxExpect(0x123456)))
        sim.schedule(100, lambda: a.transmit(20, Packet(ptype=PacketType.DM1, lap=0x123456, payload=b"x")))
        sim.schedule(100, lambda: b.transmit(30, Packet(ptype=PacketType.DM1, lap=0x123456, payload=b"y")))
        sim.run()
        assert channel.collisions == 0
        assert any(r.result.complete for r in listener.receptions)

    def test_listener_that_closes_early_misses_packet(self):
        sim, channel, (a, b, _) = build_world()
        listener = Listener()
        b.listener = listener
        sim.schedule(0, lambda: b.rx_on(10, RxExpect(0x123456)))
        sim.schedule(20, lambda: b.rx_off())
        sim.schedule(50, lambda: a.transmit(10, Packet(ptype=PacketType.ID, lap=0x123456)))
        sim.run()
        assert listener.receptions == []

    def test_carrier_sense_extends_window(self):
        sim, channel, (a, b, _) = build_world()
        listener = Listener()
        b.listener = listener
        packet = Packet(ptype=PacketType.DM1, lap=0x123456, payload=b"z")

        def open_short_window():
            b.rx_on(10, RxExpect(0x123456))
            # window would close before the 70 us sync point...
            def close():
                if not b.rx_locked:
                    b.rx_off()
            sim.schedule(30_000, close)

        sim.schedule(0, open_short_window)
        sim.schedule(10_000, lambda: a.transmit(10, packet))
        sim.run()
        # ...but carrier sensing keeps it open and the packet is received
        assert len(listener.receptions) == 1
        assert listener.receptions[0].result.complete

    def test_half_duplex_transmitter_cannot_receive(self):
        sim, channel, (a, b, _) = build_world()
        listener = Listener()
        a.listener = listener
        long_packet = Packet(ptype=PacketType.DM5, lap=0x123456,
                             payload=bytes(200))
        sim.schedule(0, lambda: a.rx_on(10, RxExpect(0x123456)))
        sim.schedule(1, lambda: a.transmit(10, long_packet))
        sim.run()
        assert listener.receptions == []

    def test_frequency_following_receiver(self):
        sim, channel, (a, b, _) = build_world()
        listener = Listener()
        b.listener = listener
        freq_box = {"value": 10}
        b.rx_on_follow(lambda now_ns: freq_box["value"], RxExpect(0x123456))
        sim.schedule(100, lambda: a.transmit(10, Packet(ptype=PacketType.ID, lap=0x123456)))

        def hop_and_send():
            freq_box["value"] = 33
            a.transmit(33, Packet(ptype=PacketType.ID, lap=0x123456))

        sim.schedule(700_000, hop_and_send)
        sim.run()
        assert len([r for r in listener.receptions if r.result.complete]) == 2

    def test_bad_frequency_rejected(self):
        sim, channel, (a, _, _) = build_world()
        with pytest.raises(ChannelError):
            a.transmit(79, Packet(ptype=PacketType.ID, lap=1))

    def test_tx_busy_guard(self):
        sim, channel, (a, _, _) = build_world()
        sim.schedule(0, lambda: a.transmit(1, Packet(ptype=PacketType.DM1, lap=1, payload=b"abc")))

        def second():
            with pytest.raises(ChannelError):
                a.transmit(2, Packet(ptype=PacketType.ID, lap=1))

        sim.schedule(10_000, second)
        sim.run()

    def test_statistical_noise_fails_packets(self):
        sim, channel, (a, b, _) = build_world(ber=0.2)
        listener = Listener()
        b.listener = listener
        sent = 30
        sim.schedule(0, lambda: b.rx_on(10, RxExpect(0x123456)))
        for i in range(sent):
            sim.schedule(1_000_000 * i + 100,
                         lambda: a.transmit(10, Packet(ptype=PacketType.DM1,
                                                       lap=0x123456, payload=b"abc")))
        sim.run()
        complete = sum(1 for r in listener.receptions if r.result.complete)
        assert complete < sent / 2

    def test_bit_accurate_mode_roundtrip(self):
        sim, channel, (a, b, _) = build_world(bit_accurate=True)
        listener = Listener()
        b.listener = listener
        packet = Packet(ptype=PacketType.DM1, lap=0x123456, am_addr=1,
                        payload=b"exact")
        sim.schedule(0, lambda: b.rx_on(10, RxExpect(0x123456)))
        sim.schedule(100, lambda: a.transmit(10, packet, uap=0x47))
        sim.run()
        assert listener.receptions[0].result.complete
        assert listener.receptions[0].result.packet.payload == b"exact"
