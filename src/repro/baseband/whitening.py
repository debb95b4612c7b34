"""Data whitening (scrambling) with ``g(D) = D^7 + D^4 + 1``.

Spec v1.2 Part B §7.2: header and payload are XORed with the output of a
7-bit LFSR initialised with CLK bits 6..1 and a constant 1 in the most
significant position. Whitening twice with the same clock is the identity.

Fast path: the LFSR has exactly 64 reachable seeds (CLK6..1 plus the
constant 1) and g(D) is primitive, so every seed's output stream is the
same 127-bit maximal-length sequence at a seed-dependent phase.  The
64x127 table below is built once at import; any ``(clk, length)`` request
is then a cyclic slice of its row instead of a per-bit Python loop.  The
fast-path equivalence suite proves it byte-identical to a bit-serial
oracle kept with the tests (``tests/baseband_reference.py``).
"""

from __future__ import annotations

import numpy as np

WHITEN_POLY = 0b10010001  # x^7 + x^4 + 1 (bit i = coefficient of x^i)
WHITEN_DEGREE = 7
WHITEN_PERIOD = 127  # g(D) is primitive: maximal length over the 7-bit state


def _build_table() -> np.ndarray:
    """All 64 whitening streams, one period each, stepped in lockstep."""
    states = (0b1000000 | np.arange(64, dtype=np.uint16))
    table = np.empty((64, WHITEN_PERIOD), dtype=np.uint8)
    for i in range(WHITEN_PERIOD):
        msb = (states >> 6) & 1
        table[:, i] = msb
        feedback = msb ^ ((states >> 3) & 1)
        states = ((states << 1) & 0x7F) | feedback
    return table


_TABLE = _build_table()
_TABLE.setflags(write=False)


def whitening_sequence(clk: int, length: int) -> np.ndarray:
    """Generate ``length`` whitening bits for a given Bluetooth clock value.

    Only CLK bits 6..1 participate in the seed.
    """
    row = _TABLE[(clk >> 1) & 0x3F]
    if length <= WHITEN_PERIOD:
        return row[:length].copy()
    return np.resize(row, length)


def whitening_slice(clk: int, start: int, length: int) -> np.ndarray:
    """Bits ``start .. start+length`` of the whitening stream for ``clk``.

    Lets the decoder whiten the payload without regenerating (or
    over-allocating) the header part of the stream.
    """
    row = np.resize(_TABLE[(clk >> 1) & 0x3F], start + length)
    return row[start:]


def whiten(bits: np.ndarray, clk: int) -> np.ndarray:
    """XOR a bit stream with the whitening sequence (self-inverse)."""
    sequence = whitening_sequence(clk, len(bits))
    return (bits.astype(np.uint8) ^ sequence).astype(np.uint8)
