"""HEC, CRC-16, FEC 1/3, FEC 2/3 and whitening."""

import numpy as np
import pytest

from repro.baseband.bits import bits_from_int, parse_bits
from repro.baseband.crc import crc16_check, crc16_compute
from repro.baseband.fec import (
    fec13_decode,
    fec13_encode,
    fec23_decode,
    fec23_encode,
    fec23_encode_block,
)
from repro.baseband.hec import hec_check, hec_compute
from repro.baseband.whitening import WHITEN_PERIOD, whiten, whitening_sequence

from tests import baseband_reference as ref


class TestHec:
    def test_roundtrip(self):
        header = bits_from_int(0b1011001110, 10)
        hec = hec_compute(header, uap=0x47)
        assert hec_check(header, hec, uap=0x47)

    def test_detects_single_bit_error(self):
        header = bits_from_int(0b1011001110, 10)
        hec = hec_compute(header, uap=0x47)
        for position in range(10):
            corrupted = header.copy()
            corrupted[position] ^= 1
            assert not hec_check(corrupted, hec, uap=0x47)

    def test_uap_mismatch_fails(self):
        header = bits_from_int(0x155, 10)
        hec = hec_compute(header, uap=0x11)
        assert not hec_check(header, hec, uap=0x22)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            hec_compute(bits_from_int(0, 9), uap=0)


class TestCrc16:
    def test_roundtrip(self):
        payload = parse_bits("110100111010101011110000")
        crc = crc16_compute(payload, uap=0x9A)
        assert crc16_check(payload, crc, uap=0x9A)

    def test_detects_burst_errors(self):
        rng = np.random.default_rng(3)
        payload = rng.integers(0, 2, 120).astype(np.uint8)
        crc = crc16_compute(payload, uap=0x12)
        for start in range(0, 100, 17):
            corrupted = payload.copy()
            corrupted[start : start + 9] ^= 1  # 9-bit burst < CRC degree
            assert not crc16_check(corrupted, crc, uap=0x12)

    def test_uap_dependence(self):
        payload = parse_bits("1111000011110000")
        assert not np.array_equal(crc16_compute(payload, 0x00),
                                  crc16_compute(payload, 0xFF))


class TestFec13:
    def test_encode_triples(self):
        assert fec13_encode(parse_bits("10")).tolist() == [1, 1, 1, 0, 0, 0]

    def test_majority_corrects_one_error_per_triplet(self):
        data = parse_bits("1100110011")
        coded = fec13_encode(data)
        coded[0] ^= 1
        coded[4] ^= 1
        result = fec13_decode(coded)
        assert np.array_equal(result.bits, data)
        assert result.corrected == 2

    def test_two_errors_in_triplet_not_correctable(self):
        coded = fec13_encode(parse_bits("1"))
        coded[0] ^= 1
        coded[1] ^= 1
        assert fec13_decode(coded).bits.tolist() == [0]

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            fec13_decode(np.zeros(4, dtype=np.uint8))


class TestFec23:
    def test_block_roundtrip(self):
        data = parse_bits("1011001011")
        codeword = fec23_encode_block(data)
        assert len(codeword) == 15
        result = fec23_decode(codeword)
        assert result.ok
        assert np.array_equal(result.bits, data)

    def test_corrects_any_single_error(self):
        data = parse_bits("0110110101")
        codeword = fec23_encode_block(data)
        for position in range(15):
            corrupted = codeword.copy()
            corrupted[position] ^= 1
            result = fec23_decode(corrupted)
            assert result.ok and result.corrected == 1
            assert np.array_equal(result.bits, data)

    def test_double_error_flagged_or_miscorrected(self):
        data = parse_bits("0000011111")
        codeword = fec23_encode_block(data)
        corrupted = codeword.copy()
        corrupted[2] ^= 1
        corrupted[9] ^= 1
        result = fec23_decode(corrupted)
        # a (15,10) expurgated Hamming code detects double errors
        assert not result.ok or not np.array_equal(result.bits, data)

    def test_stream_padding(self):
        data = parse_bits("110101")  # 6 bits -> padded to 10
        coded = fec23_encode(data)
        assert len(coded) == 15
        decoded = fec23_decode(coded)
        assert np.array_equal(decoded.bits[:6], data)
        assert not decoded.bits[6:].any()

    def test_stream_bad_length(self):
        with pytest.raises(ValueError):
            fec23_decode(np.zeros(16, dtype=np.uint8))


class TestWhitening:
    def test_self_inverse(self):
        rng = np.random.default_rng(4)
        data = rng.integers(0, 2, 200).astype(np.uint8)
        clk = 0x3F
        assert np.array_equal(whiten(whiten(data, clk), clk), data)

    def test_clock_dependence(self):
        data = np.zeros(64, dtype=np.uint8)
        assert not np.array_equal(whiten(data, 0b000010), whiten(data, 0b111110))

    def test_only_bits_6_to_1_matter(self):
        data = np.zeros(32, dtype=np.uint8)
        # bit 0 and bits >= 7 do not participate in the seed
        assert np.array_equal(whiten(data, 0b0111110), whiten(data, 0b0111111))
        assert np.array_equal(whiten(data, 0b0111110), whiten(data, 0b0111110 + (1 << 8)))

    def test_maximal_length_polynomial(self):
        # x^7 + x^4 + 1 is primitive: stepped bit by bit, the register
        # walks all 127 nonzero states before it repeats, so each seed's
        # stream is one 127-bit whitening-table row repeated
        for seed in range(64):
            stream = ref.whitening_sequence_reference(seed << 1,
                                                      2 * WHITEN_PERIOD)
            periods = [period for period in range(1, WHITEN_PERIOD + 1)
                       if np.array_equal(stream[period:], stream[:-period])]
            assert periods == [WHITEN_PERIOD]

    def test_every_seed_is_a_phase_of_one_sequence(self):
        # the 64 seeds start the one 127-bit maximal-length sequence at
        # 64 distinct phases
        base = whitening_sequence(0, WHITEN_PERIOD)
        doubled = np.concatenate([base, base])
        phases = set()
        for seed in range(64):
            row = whitening_sequence(seed << 1, WHITEN_PERIOD)
            found = [phase for phase in range(WHITEN_PERIOD)
                     if np.array_equal(doubled[phase:phase + WHITEN_PERIOD],
                                       row)]
            assert len(found) == 1
            phases.update(found)
        assert len(phases) == 64

    def test_sequence_is_balanced(self):
        seq = whitening_sequence(0x2A, 127 * 4)
        ones = int(seq.sum())
        assert abs(ones - len(seq) / 2) < len(seq) * 0.1
