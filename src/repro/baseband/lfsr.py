"""Linear feedback shift registers and polynomial division over GF(2).

One generic division routine backs the HEC, CRC-16 and BCH sync-word
generators; :class:`Lfsr` provides a stepping register for stream uses
(whitening).

Fast paths (byte-identical to the bit-serial oracles in
``tests/baseband_reference.py``):

* :func:`shift_divide` consumes the input byte-at-a-time through 256-entry
  remainder tables built lazily per ``(poly, degree)``, with the input bit
  array packed via ``np.packbits`` — 8x fewer Python-loop iterations and a
  table lookup instead of a conditional XOR per step.
* :meth:`Lfsr.sequence` steps through a lazily built per-``(poly, degree)``
  8-bit transition table (next state + packed output byte per state), then
  unpacks outputs with ``np.unpackbits``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

# ---------------------------------------------------------------------------
# Table-driven polynomial division
# ---------------------------------------------------------------------------
#
# ``shift_divide`` maintains reg = rem(consumed_bits(x) * x^degree mod g).
# Consuming one more byte B gives rem((M*x^8 + B) * x^degree)
#   = rem(reg * x^8  ^  B * x^degree).
# For degree >= 8, split reg = hi*x^(degree-8) + lo (hi = top byte):
#   reg' = rem((hi ^ B) * x^degree)  ^  (lo << 8)
# so a single 256-entry table T[v] = rem(v * x^degree) suffices.
# For degree < 8 the two linear pieces each get their own table:
#   reg' = A[reg] ^ B8[byte],  A[v] = rem(v * x^8),  B8[b] = rem(b * x^degree).

#: (poly, degree) -> tables; degree >= 8: (T,); degree < 8: (A, B8).
_DIV_TABLES: dict[tuple[int, int], tuple[list[int], ...]] = {}


def _serial_steps(reg: int, bits: Iterable[int], low_poly: int, degree: int,
                  mask: int) -> int:
    top = degree - 1
    for bit in bits:
        feedback = ((reg >> top) & 1) ^ (int(bit) & 1)
        reg = (reg << 1) & mask
        if feedback:
            reg ^= low_poly
    return reg


def _division_tables(poly: int, degree: int) -> tuple[list[int], ...]:
    key = (poly, degree)
    tables = _DIV_TABLES.get(key)
    if tables is not None:
        return tables
    mask = (1 << degree) - 1
    low_poly = poly & mask
    if degree >= 8:
        table = []
        for v in range(256):
            reg = (v << (degree - 8)) & mask
            for _ in range(8):
                top = (reg >> (degree - 1)) & 1
                reg = (reg << 1) & mask
                if top:
                    reg ^= low_poly
            table.append(reg)
        tables = (table,)
    else:
        shift8 = []
        for v in range(1 << degree):
            reg = v
            for _ in range(8):
                top = (reg >> (degree - 1)) & 1
                reg = (reg << 1) & mask
                if top:
                    reg ^= low_poly
            shift8.append(reg)
        byte_rem = [
            _serial_steps(0, ((b >> (7 - i)) & 1 for i in range(8)),
                          low_poly, degree, mask)
            for b in range(256)
        ]
        tables = (shift8, byte_rem)
    _DIV_TABLES[key] = tables
    return tables


def shift_divide(bits, poly: int, degree: int, init: int = 0) -> int:
    """Divide the bit stream by ``poly`` (degree ``degree``), return remainder.

    ``poly`` is the full generator polynomial *including* the x^degree term
    (e.g. CRC-CCITT: ``0x11021`` with ``degree=16``). ``init`` preloads the
    remainder register (used by HEC/CRC which initialise with the UAP).

    Bits are consumed most-significant-coefficient first.
    """
    mask = (1 << degree) - 1
    low_poly = poly & mask
    reg = init & mask
    if isinstance(bits, (np.ndarray, list, tuple)):
        arr = np.asarray(bits, dtype=np.uint8) & 1
    else:  # lazy iterables (generators), as the bit-serial original accepted
        arr = np.fromiter((int(b) & 1 for b in bits), dtype=np.uint8)
    n = len(arr)
    if n < 8:
        return _serial_steps(reg, arr, low_poly, degree, mask)
    n8 = n - (n % 8)
    packed = np.packbits(arr[:n8], bitorder="big").tolist()
    tables = _division_tables(poly, degree)
    if degree >= 8:
        (table,) = tables
        shift = degree - 8
        for byte in packed:
            reg = ((reg << 8) & mask) ^ table[((reg >> shift) ^ byte) & 0xFF]
    else:
        shift8, byte_rem = tables
        for byte in packed:
            reg = shift8[reg] ^ byte_rem[byte]
    if n8 < n:
        reg = _serial_steps(reg, arr[n8:], low_poly, degree, mask)
    return reg


def remainder_bits(bits: np.ndarray, poly: int, degree: int, init: int = 0) -> np.ndarray:
    """Like :func:`shift_divide` but returning the remainder as an MSB-first
    bit array of length ``degree``."""
    reg = shift_divide(bits, poly, degree, init)
    return ((reg >> np.arange(degree - 1, -1, -1)) & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# Stepping LFSR
# ---------------------------------------------------------------------------

#: Largest register width that gets an 8-bit transition table (2^16 states).
_LFSR_TABLE_MAX_DEGREE = 16

#: (poly, degree) -> (next_state_after_8_steps, packed_8_output_bits).
_LFSR_TABLES: dict[tuple[int, int], tuple[list[int], list[int]]] = {}


def _lfsr_tables(poly: int, degree: int) -> tuple[list[int], list[int]]:
    key = (poly, degree)
    tables = _LFSR_TABLES.get(key)
    if tables is not None:
        return tables
    mask = (1 << degree) - 1
    taps = [i for i in range(degree) if (poly >> i) & 1]
    states = np.arange(1 << degree, dtype=np.uint32)
    out_bytes = np.zeros(1 << degree, dtype=np.uint8)
    s = states.copy()
    for _ in range(8):
        out = (s >> (degree - 1)) & 1
        feedback = np.zeros_like(s)
        for tap in taps:
            feedback ^= out if tap == 0 else (s >> (tap - 1)) & 1
        s = ((s << 1) | (feedback & 1)) & mask
        out_bytes = (out_bytes << 1) | out.astype(np.uint8)
    tables = (s.tolist(), out_bytes.tolist())
    _LFSR_TABLES[key] = tables
    return tables


class Lfsr:
    """A Fibonacci LFSR producing one output bit per :meth:`step`.

    Attributes:
        poly: feedback polynomial including the x^degree term.
        degree: register width.
        state: current register contents (integer, ``degree`` bits).
    """

    def __init__(self, poly: int, degree: int, state: int):
        self.poly = poly
        self.degree = degree
        mask = (1 << degree) - 1
        self.state = state & mask
        self._mask = mask
        # tap positions: exponents of the feedback polynomial below degree
        self._taps = [i for i in range(degree) if (poly >> i) & 1]

    def step(self) -> int:
        """Advance one bit; returns the output (the bit shifted out)."""
        out = (self.state >> (self.degree - 1)) & 1
        feedback = 0
        for tap in self._taps:
            if tap == 0:
                feedback ^= out
            else:
                feedback ^= (self.state >> (tap - 1)) & 1
        self.state = ((self.state << 1) | feedback) & self._mask
        return out

    def sequence(self, length: int) -> np.ndarray:
        """Produce ``length`` output bits (table-stepped, 8 bits per hop)."""
        if length <= 8 or self.degree > _LFSR_TABLE_MAX_DEGREE:
            out = np.empty(length, dtype=np.uint8)
            for i in range(length):
                out[i] = self.step()
            return out
        next8, out8 = _lfsr_tables(self.poly, self.degree)
        chunks, tail = divmod(length, 8)
        out_bytes = np.empty(chunks, dtype=np.uint8)
        state = self.state
        for i in range(chunks):
            out_bytes[i] = out8[state]
            state = next8[state]
        self.state = state
        head = np.unpackbits(out_bytes)
        if not tail:
            return head
        rest = np.empty(tail, dtype=np.uint8)
        for i in range(tail):
            rest[i] = self.step()
        return np.concatenate([head, rest])

    def period(self, limit: int = 1 << 20) -> int:
        """Measure the state cycle length (for tests)."""
        start = self.state
        for count in range(1, limit + 1):
            self.step()
            if self.state == start:
                return count
        raise RuntimeError("period exceeds limit")
