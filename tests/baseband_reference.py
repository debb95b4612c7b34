"""Bit-serial and per-clock oracles for the baseband fast paths.

The modules on the hot path (``whitening``, ``lfsr``, ``crc``, ``hec``,
``fec``, ``bits``, ``access_code``, ``hop``) serve table-driven /
numpy-vectorized fast paths.  This module keeps the original scalar
implementations as the executable specification: the property suites
(``tests/properties/test_fastpath_equivalence.py`` and the hop tests in
``tests/link/test_afh.py`` and ``tests/phy/test_batch_window_golden.py``)
assert exact agreement between each fast path and its oracle across
random inputs.

The module deliberately imports nothing from the fast modules (it
duplicates their constants), so a bug in a fast path cannot leak into its
own oracle.  The hop oracles read only a selector's address and installed
adaptive hop set: they derive the address fields A..E from the address
bits and walk the PERM5 butterfly bit by bit, so they share nothing with
the kernel's lookup tables.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

#: Constants duplicated from the fast modules on purpose (see module
#: docstring): whitening g(D) = D^7 + D^4 + 1, BCH(64,30) generator,
#: PN scrambling word and Barker extensions of the sync word.
WHITEN_POLY = 0b10010001
BCH_POLY = 0o260534236651
BCH_DEGREE = 34
PN_SEQUENCE = 0x83848D96BBCC54FC
BARKER_MSB0 = 0b001101
BARKER_MSB1 = 0b110010
FEC23_POLY = 0b110101
FEC23_DEGREE = 5
FEC23_DATA = 10
FEC23_LEN = 15
NUM_CHANNELS = 79
#: Hop output register: even channels ascending, then odd.
CHANNEL_REGISTER = tuple(range(0, NUM_CHANNELS, 2)) + tuple(
    range(1, NUM_CHANNELS, 2))
#: PERM5 butterfly exchanges, 7 stages x 2, controlled by P13..P0.
PERM5_BUTTERFLIES = (
    (1, 2), (3, 4),
    (1, 3), (0, 4),
    (0, 1), (2, 3),
    (1, 4), (0, 3),
    (2, 4), (1, 3),
    (0, 3), (1, 2),
    (0, 4), (1, 3),
)

_PN_BITS = np.array([(PN_SEQUENCE >> (63 - i)) & 1 for i in range(64)], dtype=np.uint8)


def whitening_sequence_reference(clk: int, length: int) -> np.ndarray:
    """Bit-serial LFSR generation of the whitening stream (seed CLK6..1)."""
    state = 0b1000000 | ((clk >> 1) & 0x3F)
    out = np.empty(length, dtype=np.uint8)
    for i in range(length):
        msb = (state >> 6) & 1
        out[i] = msb
        feedback = msb ^ ((state >> 3) & 1)
        state = ((state << 1) & 0x7F) | feedback
    return out


def shift_divide_reference(bits: Iterable[int], poly: int, degree: int,
                           init: int = 0) -> int:
    """Bit-at-a-time GF(2) division; returns rem(bits * x^degree)."""
    mask = (1 << degree) - 1
    low_poly = poly & mask
    reg = init & mask
    top = degree - 1
    for bit in bits:
        feedback = ((reg >> top) & 1) ^ (int(bit) & 1)
        reg = (reg << 1) & mask
        if feedback:
            reg ^= low_poly
    return reg


def remainder_bits_reference(bits: np.ndarray, poly: int, degree: int,
                             init: int = 0) -> np.ndarray:
    """Remainder of :func:`shift_divide_reference` as MSB-first bits."""
    reg = shift_divide_reference(bits, poly, degree, init)
    out = np.empty(degree, dtype=np.uint8)
    for i in range(degree):
        out[i] = (reg >> (degree - 1 - i)) & 1
    return out


def bits_from_int_reference(value: int, width: int) -> np.ndarray:
    """Per-bit LSB-first serialisation of ``value``."""
    out = np.empty(width, dtype=np.uint8)
    for i in range(width):
        out[i] = (value >> i) & 1
    return out


def int_from_bits_reference(bits: np.ndarray) -> int:
    """Per-bit LSB-first accumulation."""
    value = 0
    for i, bit in enumerate(bits):
        if bit:
            value |= 1 << i
    return value


def alternating_reference(start: int, length: int) -> np.ndarray:
    """Per-bit alternating 0101/1010 run (preamble/trailer)."""
    out = np.empty(length, dtype=np.uint8)
    for i in range(length):
        out[i] = (start + i) & 1
    return out


def fec13_encode_reference(bits: np.ndarray) -> np.ndarray:
    """Per-bit triple repetition."""
    out = np.empty(3 * len(bits), dtype=np.uint8)
    for i, bit in enumerate(bits):
        out[3 * i] = out[3 * i + 1] = out[3 * i + 2] = bit
    return out


def fec13_decode_reference(coded: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-triplet majority vote; returns (bits, corrected count)."""
    if len(coded) % 3 != 0:
        raise ValueError(f"FEC 1/3 stream length {len(coded)} not divisible by 3")
    n = len(coded) // 3
    out = np.empty(n, dtype=np.uint8)
    corrected = 0
    for i in range(n):
        total = int(coded[3 * i]) + int(coded[3 * i + 1]) + int(coded[3 * i + 2])
        out[i] = 1 if total >= 2 else 0
        if total in (1, 2):
            corrected += 1
    return out, corrected


def _fec23_syndrome_table() -> dict[int, int]:
    table: dict[int, int] = {}
    for position in range(FEC23_LEN):
        error = np.zeros(FEC23_LEN, dtype=np.uint8)
        error[position] = 1
        table[shift_divide_reference(error, FEC23_POLY, FEC23_DEGREE)] = position
    return table


_SYNDROME_TABLE_REF = _fec23_syndrome_table()


def fec23_encode_block_reference(data10: np.ndarray) -> np.ndarray:
    """Bit-serial systematic (15,10) encoding of one block."""
    parity = shift_divide_reference(data10, FEC23_POLY, FEC23_DEGREE)
    codeword = np.empty(FEC23_LEN, dtype=np.uint8)
    codeword[:FEC23_DATA] = data10
    for i in range(FEC23_DEGREE):
        codeword[FEC23_DATA + i] = (parity >> (FEC23_DEGREE - 1 - i)) & 1
    return codeword


def fec23_encode_reference(bits: np.ndarray) -> np.ndarray:
    """Block-by-block (15,10) encoding with zero tail padding."""
    remainder = len(bits) % FEC23_DATA
    if remainder:
        bits = np.concatenate(
            [bits, np.zeros(FEC23_DATA - remainder, dtype=np.uint8)]
        )
    blocks = bits.reshape(-1, FEC23_DATA)
    if not len(blocks):
        return np.zeros(0, np.uint8)
    return np.concatenate([fec23_encode_block_reference(b) for b in blocks])


def fec23_decode_reference(coded: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Per-block syndrome decoding; returns (bits, corrected, failed)."""
    if len(coded) % FEC23_LEN != 0:
        raise ValueError(f"FEC 2/3 stream length {len(coded)} not divisible by 15")
    corrected = 0
    failed = 0
    out_blocks = []
    for block in coded.reshape(-1, FEC23_LEN):
        syndrome = shift_divide_reference(block, FEC23_POLY, FEC23_DEGREE)
        block = block.copy()
        if syndrome != 0:
            position = _SYNDROME_TABLE_REF.get(syndrome)
            if position is None:
                failed += 1
            else:
                block[position] ^= 1
                corrected += 1
        out_blocks.append(block[:FEC23_DATA])
    bits = np.concatenate(out_blocks) if out_blocks else np.zeros(0, np.uint8)
    return bits, corrected, failed


def sync_word_reference(lap: int) -> np.ndarray:
    """Bit-serial BCH(64,30) sync-word construction."""
    if not 0 <= lap < (1 << 24):
        raise ValueError(f"LAP out of range: {lap:#x}")
    msb = (lap >> 23) & 1
    barker = BARKER_MSB1 if msb else BARKER_MSB0
    info = (lap << 6) | barker
    info_bits = np.array([(info >> (29 - i)) & 1 for i in range(30)], dtype=np.uint8)
    scrambled_info = info_bits ^ _PN_BITS[:30]
    parity = remainder_bits_reference(scrambled_info, BCH_POLY, BCH_DEGREE)
    codeword = np.concatenate([scrambled_info, parity])
    return (codeword ^ _PN_BITS).astype(np.uint8)


def perm5_reference(z: int, control: int) -> int:
    """The 14-stage butterfly walked bit by bit: stage ``k`` exchanges its
    two bits of ``z`` when control bit ``k`` is set."""
    z &= 0x1F
    for index, (i, j) in enumerate(PERM5_BUTTERFLIES):
        if (control >> index) & 1:
            bit_i = (z >> i) & 1
            bit_j = (z >> j) & 1
            if bit_i != bit_j:
                z ^= (1 << i) | (1 << j)
    return z


def _address_bits(address: int, positions: tuple[int, ...]) -> int:
    out = 0
    for position in positions:
        out = (out << 1) | ((address >> position) & 1)
    return out


def _select_index_reference(address: int, x: int, y1: int, y2: int,
                            clk_a: int = 0, clk_c: int = 0, clk_d: int = 0,
                            f: int = 0) -> int:
    """The selection box's pre-register output for a 28-bit address: the
    address fields A..E (spec notation A27..A0) with the clock bits of
    the connection mode XORed into A, C and D, the first adder, the XOR
    with B and Y1, PERM5 and the final adder."""
    a = _address_bits(address, (27, 26, 25, 24, 23)) ^ clk_a
    b = _address_bits(address, (22, 21, 20, 19))
    c = _address_bits(address, (8, 6, 4, 2, 0)) ^ clk_c
    d = _address_bits(address, (18, 17, 16, 15, 14, 13, 12, 11, 10)) ^ clk_d
    e = _address_bits(address, (13, 11, 9, 7, 5, 3, 1))
    z = ((x + a) % 32) ^ b ^ (16 * y1)
    z = perm5_reference(z, (c << 9) | d)
    return (z + e + f + y2) % NUM_CHANNELS


def connection_reference(selector, clk: int) -> int:
    """Connection-state hop frequency of ``selector`` at piconet clock
    ``clk``, one clock at a time: clock bits mixed into A/C/D/F, the scalar
    selection box, then the channel register — and, when an adaptive hop
    set is installed, the spec remap of an unused selection onto entry
    ``index mod N`` of the used channels in register order."""
    y1 = (clk >> 1) & 1
    index = _select_index_reference(
        selector.address, x=(clk >> 2) & 0x1F, y1=y1, y2=32 * y1,
        clk_a=(clk >> 21) & 0x1F, clk_c=(clk >> 16) & 0x1F,
        clk_d=(clk >> 7) & 0x1FF,
        f=(16 * ((clk >> 7) & 0x1FFFFF)) % NUM_CHANNELS)
    freq = CHANNEL_REGISTER[index]
    afh = selector.afh_map
    if afh is not None and not afh.used_mask[freq]:
        used = [ch for ch in CHANNEL_REGISTER if afh.used_mask[ch]]
        freq = used[index % len(used)]
    return freq


def page_scan_reference(selector, clkn: int) -> int:
    """Page-scan (inquiry-scan for the GIAC) frequency: X = CLKN16-12."""
    x = (clkn >> 12) & 0x1F
    return CHANNEL_REGISTER[_select_index_reference(selector.address, x, 0, 0)]


def page_reference(selector, clke: int, koffset: int) -> int:
    """Page (inquiry) train frequency at clock estimate ``clke``: X sweeps
    16 phases around CLKE16-12 + koffset, indexed by CLKE4-2,0."""
    clke_16_12 = (clke >> 12) & 0x1F
    clke_4_2_0 = (((clke >> 2) & 0b111) << 1) | (clke & 1)
    x = (clke_16_12 + koffset + ((clke_4_2_0 - clke_16_12) % 16)) % 32
    return CHANNEL_REGISTER[_select_index_reference(selector.address, x, 0, 0)]


def response_reference(selector, phase: int, n: int) -> int:
    """Slave-response / inquiry-response frequency paired with train
    phase ``phase`` after ``n`` responses (Y1 = 1, Y2 = 32)."""
    x = (phase + n) % 32
    return CHANNEL_REGISTER[
        _select_index_reference(selector.address, x, 1, 32)]


def train_frequencies_reference(selector, clke: int,
                                koffset: int) -> list[int]:
    """The 16 frequencies of the train around ``clke``: phases
    CLKE16-12 + koffset + j for j = 0..15."""
    x0 = (clke >> 12) & 0x1F
    return [CHANNEL_REGISTER[_select_index_reference(
        selector.address, (x0 + koffset + j) % 32, 0, 0)] for j in range(16)]
