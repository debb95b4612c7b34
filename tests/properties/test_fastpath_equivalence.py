"""Fast-path == oracle equivalence (exact, no statistical tolerance).

Every table-driven / vectorized baseband fast path must be byte-identical
to its scalar oracle in ``tests/baseband_reference.py``
(`np.array_equal`, integer equality for registers and counters).  The
end-to-end encoder is additionally pinned against pre-refactor oracle
digests captured on the bit-serial codebase, so a matched pair of bugs in
a fast path and its reference cannot slip through unnoticed.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.baseband.access_code import BCH_DEGREE, BCH_POLY, sync_word
from repro.baseband.bits import bits_from_int, int_from_bits
from repro.baseband.codec import decode_packet, encode_packet
from repro.baseband.crc import CRC_DEGREE, CRC_POLY
from repro.baseband.fec import (
    FEC23_DEGREE,
    FEC23_POLY,
    fec13_decode,
    fec13_encode,
    fec23_decode,
    fec23_encode,
)
from repro.baseband.hec import HEC_DEGREE, HEC_POLY
from repro.baseband.hop import (
    KOFFSET_TRAIN_A,
    KOFFSET_TRAIN_B,
    HopRegistry,
    HopSelector,
    channel_distribution,
    perm5,
    perm5_many,
)
from repro.baseband.lfsr import remainder_bits, shift_divide
from repro.baseband.whitening import whitening_sequence, whitening_slice
from repro.baseband.address import BdAddr, GIAC_LAP
from repro.baseband.fhs import FhsPayload
from repro.baseband.packets import Packet, PacketType

from tests import baseband_reference as ref

bit_arrays = st.lists(st.integers(0, 1), min_size=0, max_size=200).map(
    lambda bits: np.array(bits, dtype=np.uint8))

#: The generator polynomials actually deployed: CRC-16, HEC, BCH sync word,
#: FEC 2/3 parity — degrees both below and above the byte-table threshold.
POLYS = [(CRC_POLY, CRC_DEGREE), (HEC_POLY, HEC_DEGREE),
         (BCH_POLY, BCH_DEGREE), (FEC23_POLY, FEC23_DEGREE)]


class TestWhiteningEquivalence:
    @settings(max_examples=150)
    @given(st.integers(0, (1 << 28) - 1), st.integers(0, 400))
    def test_sequence_matches_reference(self, clk, length):
        assert np.array_equal(whitening_sequence(clk, length),
                              ref.whitening_sequence_reference(clk, length))

    @settings(max_examples=100)
    @given(st.integers(0, (1 << 28) - 1), st.integers(0, 300), st.integers(0, 300))
    def test_slice_matches_reference_offset(self, clk, start, length):
        full = ref.whitening_sequence_reference(clk, start + length)
        assert np.array_equal(whitening_slice(clk, start, length), full[start:])

    def test_returned_arrays_are_writable(self):
        seq = whitening_sequence(0x2A, 200)
        seq[:] ^= 1  # must not raise, must not corrupt the table
        assert np.array_equal(whitening_sequence(0x2A, 200),
                              ref.whitening_sequence_reference(0x2A, 200))


class TestDivisionEquivalence:
    @settings(max_examples=200)
    @given(bit_arrays, st.sampled_from(POLYS), st.integers(0, (1 << 34) - 1))
    def test_shift_divide_matches_reference(self, bits, poly_degree, init):
        poly, degree = poly_degree
        assert shift_divide(bits, poly, degree, init=init) == \
            ref.shift_divide_reference(bits, poly, degree, init=init)

    @settings(max_examples=100)
    @given(bit_arrays, st.sampled_from(POLYS), st.integers(0, 255))
    def test_remainder_bits_matches_reference(self, bits, poly_degree, init):
        poly, degree = poly_degree
        assert np.array_equal(
            remainder_bits(bits, poly, degree, init=init),
            ref.remainder_bits_reference(bits, poly, degree, init=init))


class TestBitsEquivalence:
    @settings(max_examples=150)
    @given(st.integers(0, 80).flatmap(
        lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))))
    def test_bits_from_int_matches_reference(self, value_width):
        value, width = value_width
        assert np.array_equal(bits_from_int(value, width),
                              ref.bits_from_int_reference(value, width))

    @settings(max_examples=100)
    @given(bit_arrays)
    def test_int_from_bits_matches_reference(self, bits):
        assert int_from_bits(bits) == ref.int_from_bits_reference(bits)


class TestFecEquivalence:
    @settings(max_examples=100)
    @given(bit_arrays)
    def test_fec13_encode_matches_reference(self, bits):
        assert np.array_equal(fec13_encode(bits), ref.fec13_encode_reference(bits))

    @settings(max_examples=100)
    @given(st.lists(st.integers(0, 1), min_size=0, max_size=201).map(
        lambda b: np.array(b[: 3 * (len(b) // 3)], dtype=np.uint8)))
    def test_fec13_decode_matches_reference(self, coded):
        got = fec13_decode(coded)
        want_bits, want_corrected = ref.fec13_decode_reference(coded)
        assert np.array_equal(got.bits, want_bits)
        assert got.corrected == want_corrected

    @settings(max_examples=100)
    @given(bit_arrays)
    def test_fec23_encode_matches_reference(self, bits):
        assert np.array_equal(fec23_encode(bits), ref.fec23_encode_reference(bits))

    @settings(max_examples=150)
    @given(st.integers(0, 12), st.data())
    def test_fec23_decode_matches_reference_under_arbitrary_errors(
            self, n_blocks, data):
        clean = fec23_encode(np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=10 * n_blocks,
                               max_size=10 * n_blocks)), dtype=np.uint8))
        corrupted = clean.copy()
        if len(clean):
            n_errors = data.draw(st.integers(0, len(clean)))
            positions = data.draw(st.lists(
                st.integers(0, len(clean) - 1), min_size=n_errors,
                max_size=n_errors, unique=True))
            corrupted[positions] ^= 1
        got = fec23_decode(corrupted)
        want_bits, want_corrected, want_failed = ref.fec23_decode_reference(corrupted)
        assert np.array_equal(got.bits, want_bits)
        assert (got.corrected, got.failed) == (want_corrected, want_failed)


class TestSyncWordEquivalence:
    @settings(max_examples=80)
    @given(st.integers(0, (1 << 24) - 1))
    def test_sync_word_matches_reference(self, lap):
        assert np.array_equal(sync_word(lap), ref.sync_word_reference(lap))

    def test_returned_word_is_a_writable_copy(self):
        word = sync_word(0x13579B)
        word[5] ^= 1  # must not poison the cache
        assert np.array_equal(sync_word(0x13579B),
                              ref.sync_word_reference(0x13579B))


#: Adaptive hop sets for the connection oracle: a set of unused channels,
#: at least one channel kept.
afh_exclusions = st.sets(st.integers(0, units.NUM_CHANNELS - 1),
                         max_size=units.NUM_CHANNELS - 1)


class TestHopEquivalence:
    """The hop kernel reads PERM5 from two lookup tables; the oracles
    walk the butterfly bit by bit and derive the address fields
    themselves."""

    def test_perm5_matches_reference_exhaustively(self):
        """Both PERM5 paths over all 2^19 (z, control) pairs, entry
        ``control << 5 | z``."""
        want = [ref.perm5_reference(z, control)
                for control in range(1 << 14) for z in range(32)]
        assert [perm5(z, control) for control in range(1 << 14)
                for z in range(32)] == want
        pairs = np.arange(1 << 19, dtype=np.int64)
        got = perm5_many(pairs & 0x1F, pairs >> 5)
        assert got.dtype == np.int64
        assert got.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, (1 << 28) - 1), st.lists(
        st.integers(0, (1 << 28) - 1), min_size=1, max_size=50, unique=True),
        st.one_of(st.none(), afh_exclusions))
    def test_fresh_connection_matches_reference(self, address, clks,
                                                excluded):
        """Every lookup of a fresh selector is a memo miss, with or
        without an adaptive hop set."""
        selector = HopSelector(address, HopRegistry())
        if excluded is not None:
            mask = np.ones(units.NUM_CHANNELS, dtype=bool)
            mask[sorted(excluded)] = False
            selector.set_afh_map(mask)
        for clk in clks:
            assert clk not in selector._connection_memo
            freq = selector.connection(clk)
            assert type(freq) is int
            assert freq == ref.connection_reference(selector, clk)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, (1 << 28) - 1), st.integers(0, (1 << 28) - 1),
           st.sampled_from([KOFFSET_TRAIN_A, KOFFSET_TRAIN_B]),
           st.integers(0, 31), st.integers(0, 40))
    def test_phase_modes_match_reference(self, address, clk, koffset, phase,
                                         n):
        selector = HopSelector(address, HopRegistry())
        assert selector.page_scan(clk) == ref.page_scan_reference(selector,
                                                                  clk)
        assert selector.page(clk, koffset) == \
            ref.page_reference(selector, clk, koffset)
        assert selector.response(phase, n) == \
            ref.response_reference(selector, phase, n)
        assert selector.train_frequencies(clk, koffset) == \
            ref.train_frequencies_reference(selector, clk, koffset)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, (1 << 28) - 1), st.lists(
        st.integers(0, (1 << 28) - 1), min_size=1, max_size=50))
    def test_connection_many_matches_scalar(self, address, clks):
        selector = HopSelector(address)
        got = selector.connection_many(np.array(clks, dtype=np.int64))
        assert got.tolist() == [ref.connection_reference(selector, clk)
                                for clk in clks]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, (1 << 28) - 1), st.integers(0, (1 << 28) - 1),
           st.integers(0, 200))
    def test_channel_distribution_matches_scalar(self, address, clk_start, samples):
        selector = HopSelector(address)
        counts = np.zeros(79, dtype=np.int64)
        for k in range(samples):
            counts[ref.connection_reference(selector, clk_start + 4 * k)] += 1
        assert np.array_equal(
            channel_distribution(selector, clk_start, samples), counts)


# ---------------------------------------------------------------------------
# End-to-end pre-refactor oracle
# ---------------------------------------------------------------------------

def _digest(bits: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(bits, dtype=np.uint8).tobytes()).hexdigest()[:16]


#: sha256 prefixes of encode_packet() outputs captured on the pre-refactor
#: (bit-serial) codebase — commit b683d58, 2026-07-30.
GOLDEN_ENCODINGS = {
    "id": "7f0d97727bb04f07",
    "null": "51ce2614936c762d",
    "poll": "0229e53f416b3765",
    "fhs": "0047b97b1c3541bf",
    "dm1": "a7245ec822b83365",
    "dh1": "d03994d887f13b1e",
    "dm3": "3abc2a9b44de2079",
    "dh3": "37aebc6ab02a5fc0",
    "dm5": "25dd7b6522a7be2d",
    "dh5": "1a4636fca7fed211",
}

GOLDEN_PRIMITIVES = {
    "sync_giac": "57ad8e0054afab57",
    "sync_0": "307c849ec6f43143",
    "sync_ffffff": "c3c0d82b391bc15f",
    "whiten_0x2a_300": "d42ae61d8a7c6712",
    "whiten_0_1000": "d52b1e81e7c1faf7",
}


def _oracle_packets():
    return {
        "id": (Packet(ptype=PacketType.ID, lap=GIAC_LAP), 0x47, 0x155),
        "null": (Packet(ptype=PacketType.NULL, lap=0x123456, am_addr=3,
                        arqn=1, seqn=1), 0x47, 0x155),
        "poll": (Packet(ptype=PacketType.POLL, lap=0x654321, am_addr=7,
                        flow=0), 0x12, 0x2AAB),
        "fhs": (Packet(ptype=PacketType.FHS, lap=GIAC_LAP,
                       fhs=FhsPayload(addr=BdAddr(lap=0xABCDE, uap=7, nap=0x1234),
                                      clk27_2=0x2345678, am_addr=5)), 0, 0),
        "dm1": (Packet(ptype=PacketType.DM1, lap=0xBEEF01, am_addr=1,
                       payload=bytes(range(17)), seqn=1), 0x47, 0x155),
        "dh1": (Packet(ptype=PacketType.DH1, lap=0xBEEF01, am_addr=2,
                       payload=b"hello world", llid=3), 0x99, 0x7F3),
        "dm3": (Packet(ptype=PacketType.DM3, lap=0x0F0F0F,
                       payload=bytes(range(121)), arqn=1), 0x33, 0x1000001),
        "dh3": (Packet(ptype=PacketType.DH3, lap=0x5050AA,
                       payload=bytes(183)), 0xFF, 0x3F),
        "dm5": (Packet(ptype=PacketType.DM5, lap=0x101010, payload=bytes(224),
                       flow=0), 0x01, 0xFFFFFFF),
        "dh5": (Packet(ptype=PacketType.DH5, lap=0xFFFFFF,
                       payload=bytes([0xA5] * 339)), 0x47, 0x2),
    }


class TestPreRefactorOracle:
    def test_encoder_matches_golden_digests(self):
        for name, (packet, uap, clk) in _oracle_packets().items():
            assert _digest(encode_packet(packet, uap=uap, clk=clk)) == \
                GOLDEN_ENCODINGS[name], name

    def test_primitives_match_golden_digests(self):
        assert _digest(sync_word(GIAC_LAP)) == GOLDEN_PRIMITIVES["sync_giac"]
        assert _digest(sync_word(0)) == GOLDEN_PRIMITIVES["sync_0"]
        assert _digest(sync_word(0xFFFFFF)) == GOLDEN_PRIMITIVES["sync_ffffff"]
        assert _digest(whitening_sequence(0x2A, 300)) == \
            GOLDEN_PRIMITIVES["whiten_0x2a_300"]
        assert _digest(whitening_sequence(0, 1000)) == \
            GOLDEN_PRIMITIVES["whiten_0_1000"]

    def test_oracle_packets_roundtrip(self):
        for name, (packet, uap, clk) in _oracle_packets().items():
            bits = encode_packet(packet, uap=uap, clk=clk)
            result = decode_packet(bits, packet.lap, uap, clk)
            assert result.complete, name

    def test_noisy_decode_matches_pre_refactor_outcomes(self):
        """Staged decode outcomes of corrupted DM5 frames, pinned against
        the pre-refactor codec (same rng stream, same frames)."""
        packet = Packet(ptype=PacketType.DM5, lap=0x123456, am_addr=5, seqn=1,
                        payload=bytes(range(224)))
        bits = encode_packet(packet, 0x47, 0x155)
        rng = np.random.default_rng(12345)
        expected = [
            (27, True, True, False, "payload", 0, 25),
            (0, True, True, True, "payload", 0, 0),
            (5, True, True, True, "payload", 0, 5),
            (37, True, True, False, "payload", 0, 31),
            (7, True, True, True, "payload", 0, 7),
            (9, True, True, True, "payload", 0, 9),
            (35, True, True, False, "payload", 0, 30),
            (13, True, True, True, "payload", 0, 11),
            (10, True, True, True, "payload", 1, 8),
            (24, True, True, False, "payload", 0, 19),
            (35, True, True, False, "payload", 1, 31),
            (8, True, True, True, "payload", 0, 8),
        ]
        for want in expected:
            n_errors = int(rng.integers(0, 40))
            positions = (rng.choice(len(bits), size=n_errors, replace=False)
                         if n_errors else np.array([], dtype=int))
            noisy = bits.copy()
            noisy[positions] ^= 1
            result = decode_packet(noisy, 0x123456, 0x47, 0x155)
            got = (n_errors, result.synced, result.header_ok, result.payload_ok,
                   result.stage, result.corrected_header_bits,
                   result.corrected_codewords)
            assert got == want
