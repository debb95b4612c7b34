"""Header Error Check: 8-bit HEC over the 10 packet-header bits.

Spec v1.2 Part B §7.1.1: generator ``x^8 + x^7 + x^5 + x^2 + x + 1``,
register initialised with the UAP of the relevant device address.
"""

from __future__ import annotations

import numpy as np

from repro.baseband.lfsr import remainder_bits

#: Generator polynomial including the x^8 term: 1 1010 0111.
HEC_POLY = 0x1A7
HEC_DEGREE = 8


def hec_compute(header_bits: np.ndarray, uap: int) -> np.ndarray:
    """Compute the 8 HEC bits for the 10 header bits (MSB-first remainder)."""
    if len(header_bits) != 10:
        raise ValueError(f"header must be 10 bits, got {len(header_bits)}")
    return remainder_bits(header_bits, HEC_POLY, HEC_DEGREE, init=uap & 0xFF)


def hec_check(header_bits: np.ndarray, hec_bits: np.ndarray, uap: int) -> bool:
    """Verify a received header/HEC pair."""
    if len(hec_bits) != HEC_DEGREE:
        raise ValueError(f"HEC must be 8 bits, got {len(hec_bits)}")
    expected = hec_compute(header_bits, uap)
    return bool(np.array_equal(expected, hec_bits))
