"""Noise models and the channel's staged delivery / collision logic."""

from functools import partial

import numpy as np
import pytest

from repro import units
from repro.baseband.bits import flip_bits
from repro.baseband.codec import decode_packet
from repro.baseband.errormodel import StageErrorModel
from repro.baseband.packets import Packet, PacketType
from repro.config import SimulationConfig
from repro.errors import ChannelError
from repro.phy.channel import Channel
from repro.phy.noise import BerNoise
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


def build_world(ber=0.0, n_radios=3, **cfg_kwargs):
    sim = Simulator()
    config = SimulationConfig(seed=5, **cfg_kwargs).with_ber(ber)
    channel = Channel(sim, "channel", config, RandomStreams(5))
    top = Module(sim, "top")
    radios = []
    for i in range(n_radios):
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


class OrderedListener(Listener):
    """A :class:`Listener` that also logs, in one log shared by every
    listener, the order in which the channel delivers sync decisions."""

    def __init__(self, index, log):
        super().__init__()
        self.index = index
        self.log = log
        self.by_tx = {}

    def on_sync(self, tx, matched):
        self.log.append((self.index, tx, matched))
        return super().on_sync(tx, matched)

    def on_reception(self, reception):
        self.by_tx[id(reception.tx)] = reception.result
        super().on_reception(reception)


class TestPerListenerDecode:
    """A transmission that several listeners hear is decoded once per
    listener, in attach order, each decode taking the next variates of the
    channel's stage or noise stream, as separate one-listener receptions
    would."""

    LAP = 0x123456
    PACKETS = [Packet(ptype=PacketType.ID, lap=LAP),
               Packet(ptype=PacketType.DM1, lap=LAP, am_addr=1, payload=b"abc"),
               Packet(ptype=PacketType.POLL, lap=LAP, am_addr=2),
               Packet(ptype=PacketType.DH3, lap=LAP, am_addr=3,
                      payload=bytes(range(100)))]

    def _run(self, n_sends, **world):
        sim, channel, (sender, *receivers) = build_world(n_radios=5, **world)
        log = []
        listeners = []
        for index, radio in enumerate(receivers):
            listener = OrderedListener(index, log)
            radio.listener = listener
            listeners.append(listener)
            sim.schedule(0, partial(radio.rx_on, 10, RxExpect(self.LAP)))
        for i in range(n_sends):
            packet = self.PACKETS[i % len(self.PACKETS)]
            sim.schedule(2_000_000 * i + 100,
                         partial(sender.transmit, 10, packet, uap=0x47))
        sim.run()
        assert channel.collisions == 0
        # every listener hears every transmission, in attach order
        assert [index for index, _, _ in log] == \
            list(range(len(receivers))) * n_sends
        return channel, log, listeners

    def test_statistical_stages_follow_the_scalar_chain(self):
        channel, log, listeners = self._run(80, ber=0.08)
        link = channel.config.link
        twin = StageErrorModel(0.08, RandomStreams(5).stream("channel.stages"))
        outcomes = set()
        for index, tx, matched in log:
            packet = tx.packet
            if packet.ptype is PacketType.ID:
                assert matched == twin.sample_sync(link.id_sync_threshold)
                continue
            stages = twin.sample_stages(packet.ptype, len(packet.payload),
                                        link.sync_threshold)
            outcomes.add(stages)
            assert matched == stages[0]
            result = listeners[index].by_tx.get(id(tx))
            if matched:
                assert (result.synced, result.header_ok,
                        result.payload_ok) == stages
            else:
                assert result is None  # a failed sync delivers no frame
        # the chain ended at each stage, and ran through, somewhere
        assert outcomes == {(False, False, False), (True, False, False),
                            (True, True, False), (True, True, True)}

    def test_bit_accurate_listeners_decode_their_own_noisy_frames(self):
        channel, log, listeners = self._run(40, ber=0.03, bit_accurate=True)
        link = channel.config.link
        twin = BerNoise(0.03, RandomStreams(5).stream("channel.noise"))
        differing = set()
        for index, tx, matched in log:
            positions = twin.error_positions(len(tx.air_bits))
            threshold = (link.id_sync_threshold
                         if tx.packet.ptype is PacketType.ID
                         else link.sync_threshold)
            want = decode_packet(flip_bits(tx.air_bits, positions),
                                 self.LAP, tx.tx_uap, tx.tx_clk,
                                 sync_threshold=threshold)
            assert matched == want.synced
            got = listeners[index].by_tx.get(id(tx))
            if got is not None:
                assert got == want
                if got != listeners[0].by_tx.get(id(tx)):
                    differing.add(id(tx))
            else:
                assert not want.synced
        # each listener draws its own bit errors: the listeners of one
        # transmission do not all decode the same frame
        assert differing

