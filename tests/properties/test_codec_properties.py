"""Property-based tests on the full air-frame codec and hop kernel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseband.codec import decode_packet, encode_packet
from repro.baseband.hop import HopSelector, KOFFSET_TRAIN_A, KOFFSET_TRAIN_B, perm5
from repro.baseband.packets import Packet, PacketType

DATA_TYPES = [PacketType.DM1, PacketType.DH1, PacketType.DM3,
              PacketType.DH3, PacketType.DM5, PacketType.DH5]


@st.composite
def data_packets(draw):
    ptype = draw(st.sampled_from(DATA_TYPES))
    payload = draw(st.binary(max_size=ptype.info.max_payload))
    return Packet(
        ptype=ptype,
        lap=draw(st.integers(0, (1 << 24) - 1)),
        am_addr=draw(st.integers(0, 7)),
        flow=draw(st.integers(0, 1)),
        arqn=draw(st.integers(0, 1)),
        seqn=draw(st.integers(0, 1)),
        payload=payload,
        llid=draw(st.sampled_from([2, 3])),
    )


class TestCodecProperties:
    @settings(max_examples=60, deadline=None)
    @given(data_packets(), st.integers(0, 255), st.integers(0, (1 << 28) - 1))
    def test_noiseless_roundtrip_is_lossless(self, packet, uap, clk):
        bits = encode_packet(packet, uap, clk)
        result = decode_packet(bits, packet.lap, uap, clk)
        assert result.complete
        decoded = result.packet
        assert decoded.payload == packet.payload
        assert decoded.am_addr == packet.am_addr
        assert decoded.arqn == packet.arqn
        assert decoded.seqn == packet.seqn
        assert decoded.llid == packet.llid

    @settings(max_examples=40, deadline=None)
    @given(data_packets(), st.data())
    def test_single_bit_error_never_yields_wrong_payload(self, packet, data):
        """Any single air-bit error either decodes to the right packet (FEC)
        or fails a check — it must never deliver corrupted bytes."""
        bits = encode_packet(packet, 0x47, 0x155)
        position = data.draw(st.integers(0, len(bits) - 1))
        corrupted = bits.copy()
        corrupted[position] ^= 1
        result = decode_packet(corrupted, packet.lap, 0x47, 0x155)
        if result.payload_ok and result.packet is not None \
                and result.packet.ptype.is_data:
            assert result.packet.payload == packet.payload

    @settings(max_examples=40, deadline=None)
    @given(data_packets(), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 0.01, 0.05, 0.2]))
    def test_decode_leaves_its_frame_untouched(self, packet, seed, ber):
        """A channel that draws no bit errors for a listener hands it the
        transmission's own frame, which every other listener decodes too,
        so a decode must never write into its input."""
        rng = np.random.default_rng(seed)
        bits = encode_packet(packet, 0x47, 0x155)
        bits = bits ^ (rng.random(len(bits)) < ber).astype(np.uint8)
        frame = bits.copy()
        first = decode_packet(frame, packet.lap, 0x47, 0x155)
        assert np.array_equal(frame, bits)
        assert decode_packet(frame, packet.lap, 0x47, 0x155) == first

    @settings(max_examples=30, deadline=None)
    @given(data_packets())
    def test_air_length_matches_catalogue(self, packet):
        from repro.baseband.packets import packet_air_bits

        bits = encode_packet(packet, 0, 0)
        assert len(bits) == packet_air_bits(packet.ptype, len(packet.payload))


class TestHopProperties:
    @settings(max_examples=60)
    @given(st.integers(0, 31), st.integers(0, (1 << 14) - 1))
    def test_perm5_bijective_for_every_control(self, z, control):
        outputs = {perm5(value, control) for value in range(32)}
        assert len(outputs) == 32
        assert perm5(z, control) in outputs

    @settings(max_examples=30)
    @given(st.integers(0, (1 << 28) - 1), st.integers(0, (1 << 28) - 1))
    def test_frequencies_always_legal(self, address, clk):
        selector = HopSelector(address)
        assert 0 <= selector.connection(clk) < 79
        assert 0 <= selector.page_scan(clk) < 79
        assert 0 <= selector.page(clk, KOFFSET_TRAIN_A) < 79
        assert 0 <= selector.response(clk % 32, n=clk % 4) < 79

    @settings(max_examples=25)
    @given(st.integers(0, (1 << 28) - 1), st.integers(0, (1 << 28) - 1))
    def test_a_train_always_covers_scan_frequency(self, address, clkn):
        """The property page correctness rests on: with a perfect clock
        estimate, the A train contains the target's scan frequency."""
        selector = HopSelector(address)
        scan = selector.page_scan(clkn)
        train = selector.train_frequencies(clkn, KOFFSET_TRAIN_A)
        assert scan in train

    @settings(max_examples=25)
    @given(st.integers(0, (1 << 28) - 1), st.integers(0, (1 << 28) - 1))
    def test_trains_jointly_cover_32_frequencies(self, address, clke):
        selector = HopSelector(address)
        a = set(selector.train_frequencies(clke, KOFFSET_TRAIN_A))
        b = set(selector.train_frequencies(clke, KOFFSET_TRAIN_B))
        assert len(a) == 16 and len(b) == 16
        assert len(a | b) == 32
