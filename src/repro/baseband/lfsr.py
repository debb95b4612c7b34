"""Polynomial division over GF(2) in a shift register.

One generic division routine backs the HEC, CRC-16, FEC 2/3 and BCH
sync-word generators.  (Whitening steps its own 7-bit register once, at
import, into a table: see :mod:`repro.baseband.whitening`.)

Fast path (byte-identical to the bit-serial oracle in
``tests/baseband_reference.py``): :func:`shift_divide` consumes the input
byte-at-a-time through 256-entry remainder tables built lazily per
``(poly, degree)``, with the input bit array packed via ``np.packbits`` —
8x fewer Python-loop iterations and a table lookup instead of a
conditional XOR per step.
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
