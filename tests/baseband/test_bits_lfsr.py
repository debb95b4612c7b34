"""Bit utilities and the shared polynomial-division core."""

import numpy as np
import pytest

from repro.baseband.bits import (
    bits_from_bytes,
    bits_from_int,
    bytes_from_bits,
    flip_bits,
    format_bits,
    hamming_distance,
    int_from_bits,
    parse_bits,
)
from repro.baseband.lfsr import remainder_bits, shift_divide


class TestBits:
    def test_int_roundtrip(self):
        for value in (0, 1, 0b1011, 0xFFFF, 12345):
            assert int_from_bits(bits_from_int(value, 17)) == value

    def test_lsb_first_order(self):
        assert bits_from_int(0b001, 3).tolist() == [1, 0, 0]

    def test_value_too_wide(self):
        with pytest.raises(ValueError):
            bits_from_int(8, 3)

    def test_bytes_roundtrip(self):
        data = bytes(range(32))
        assert bytes_from_bits(bits_from_bytes(data)) == data

    def test_bytes_lsb_first(self):
        assert bits_from_bytes(b"\x01").tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_bytes_from_bits_bad_length(self):
        with pytest.raises(ValueError):
            bytes_from_bits(np.zeros(5, dtype=np.uint8))

    def test_parse_format_roundtrip(self):
        bits = parse_bits("1010 1100")
        assert format_bits(bits, group=4) == "1010 1100"

    def test_hamming_distance(self):
        a = parse_bits("1111")
        b = parse_bits("1001")
        assert hamming_distance(a, b) == 2

    def test_hamming_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(parse_bits("11"), parse_bits("111"))

    def test_flip_bits(self):
        bits = np.zeros(8, dtype=np.uint8)
        flipped = flip_bits(bits, np.array([1, 5]))
        assert flipped.tolist() == [0, 1, 0, 0, 0, 1, 0, 0]
        assert bits.sum() == 0  # original untouched


class TestShiftDivide:
    def test_systematic_codeword_has_zero_remainder(self):
        # parity = remainder(data * x^k) makes data||parity divisible
        poly, degree = 0b110101, 5
        data = parse_bits("1011011010")
        parity = remainder_bits(data, poly, degree)
        codeword = np.concatenate([data, parity])
        assert shift_divide(codeword, poly, degree) == 0

    def test_single_bit_errors_have_distinct_syndromes(self):
        poly, degree = 0b110101, 5
        syndromes = set()
        for position in range(15):
            error = np.zeros(15, dtype=np.uint8)
            error[position] = 1
            syndromes.add(shift_divide(error, poly, degree))
        assert len(syndromes) == 15
        assert 0 not in syndromes

    def test_init_register_changes_result(self):
        data = parse_bits("1010101010")
        a = shift_divide(data, 0x1A7, 8, init=0x00)
        b = shift_divide(data, 0x1A7, 8, init=0x47)
        assert a != b

    def test_crc_ccitt_known_vector(self):
        # '123456789' (MSB-first bits) -> 0x29B1 for CRC-16/CCITT-FALSE
        message = b"123456789"
        bits = []
        for byte in message:
            bits.extend((byte >> (7 - i)) & 1 for i in range(8))
        assert shift_divide(bits, 0x11021, 16, init=0xFFFF) == 0x29B1
