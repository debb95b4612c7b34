"""Statistical per-stage packet error model.

For Monte Carlo sweeps we do not need to flip individual bits: the decode
outcome of each stage is a Bernoulli draw whose probability follows in
closed form from the coding scheme. This module provides both the exact
probabilities (used in tests and for analytic overlays) and fast samplers.

Cross-validated against the bit-accurate codec in
``tests/baseband/test_errormodel.py``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.baseband.access_code import SYNC_LEN
from repro.baseband.packets import Fec, PacketType, payload_body_bits


def binomial_tail_le(n: int, k: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p).

    Accumulates log-space terms with ``math.fsum``: the naive
    ``comb(n, i) * p**i * q**(n-i)`` form overflows float conversion of the
    huge exact binomial coefficients once n reaches DH5-payload bit counts
    (n = 2745, see the regression test), and loses precision to underflow
    at small p.
    """
    if p <= 0.0 or k >= n:
        return 1.0
    if p >= 1.0:
        return 0.0
    log_p = math.log(p)
    log_q = math.log1p(-p)
    lgn = math.lgamma(n + 1)
    terms = [
        math.exp(lgn - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                 + i * log_p + (n - i) * log_q)
        for i in range(0, k + 1)
    ]
    return min(1.0, math.fsum(terms))


@lru_cache(maxsize=4096)
def p_sync_detect(ber: float, threshold: int = 7) -> float:
    """Probability the 64-bit sync word passes the sliding correlator."""
    return binomial_tail_le(SYNC_LEN, threshold, ber)


def p_bit_after_fec13(ber: float) -> float:
    """Residual bit error probability after FEC 1/3 majority voting."""
    return 3 * ber * ber * (1 - ber) + ber ** 3


@lru_cache(maxsize=4096)
def p_header_ok(ber: float) -> float:
    """Probability the 18 header+HEC bits all survive FEC 1/3."""
    return (1.0 - p_bit_after_fec13(ber)) ** 18


def p_codeword_ok(ber: float) -> float:
    """Probability one (15,10) codeword decodes (<= 1 bit error)."""
    q = 1.0 - ber
    return q ** 15 + 15 * ber * q ** 14


@lru_cache(maxsize=8192)
def p_payload_ok(ptype: PacketType, payload_len: int, ber: float) -> float:
    """Probability the payload stage succeeds for a given packet."""
    if ptype in (PacketType.ID, PacketType.NULL, PacketType.POLL):
        return 1.0
    body = payload_body_bits(ptype, payload_len)
    if ptype.info.fec is Fec.RATE_23:
        n_codewords = -(-body // 10)  # ceil
        return p_codeword_ok(ber) ** n_codewords
    return (1.0 - ber) ** body


@lru_cache(maxsize=8192)
def p_packet_ok(ptype: PacketType, payload_len: int, ber: float, threshold: int = 7) -> float:
    """End-to-end probability a packet is received completely."""
    p = p_sync_detect(ber, threshold)
    if ptype is not PacketType.ID:
        p *= p_header_ok(ber)
        p *= p_payload_ok(ptype, payload_len, ber)
    return p


class StageErrorModel:
    """Samples per-stage decode outcomes for a given channel BER.

    One instance per channel; stateless apart from the RNG, so all devices
    share it.

    The channel's framed-packet hot path uses :meth:`sample_stages`, which
    performs the sync → header → payload draw chain in one call with all
    stage probabilities precomputed at construction — the per-call
    ``lru_cache`` lookups and probability recomputations of the separate
    samplers were measurable kernel overhead in piconet campaigns.  The
    draw sequence (including the early exits) is bit-identical to calling
    the individual samplers, so outcomes do not change.
    """

    def __init__(self, ber: float, rng: np.random.Generator):
        self.ber = float(ber)
        self._rng = rng
        self._binomial = rng.binomial
        # precomputed stage parameters (the BER is fixed per channel)
        self._residual_header = p_bit_after_fec13(self.ber)
        self._p_codeword_fail = 1.0 - p_codeword_ok(self.ber)
        # (ptype, payload_len) -> payload draw params: None for stages that
        # always pass, else (n, p) of the binomial whose zero event is "ok"
        self._payload_params: dict = {}

    def _payload_draw(self, ptype: PacketType, payload_len: int):
        key = (ptype, payload_len)
        params = self._payload_params.get(key, _MISSING)
        if params is _MISSING:
            if ptype in (PacketType.ID, PacketType.NULL, PacketType.POLL):
                params = None
            else:
                body = payload_body_bits(ptype, payload_len)
                if ptype.info.fec is Fec.RATE_23:
                    params = (-(-body // 10), self._p_codeword_fail)
                else:
                    params = (body, self.ber)
            self._payload_params[key] = params
        return params

    # -- samplers ------------------------------------------------------------

    def sample_sync(self, threshold: int = 7) -> bool:
        """Does the sync word pass the correlator?"""
        if self.ber == 0.0:
            return True
        errors = self._binomial(SYNC_LEN, self.ber)
        return bool(errors <= threshold)

    def sample_header(self) -> bool:
        """Do all 18 header bits survive FEC 1/3 + HEC?"""
        if self.ber == 0.0:
            return True
        return bool(self._binomial(18, self._residual_header) == 0)

    def sample_payload(self, ptype: PacketType, payload_len: int) -> bool:
        """Does the payload stage succeed (FEC + CRC)?"""
        if self.ber == 0.0:
            return True
        params = self._payload_draw(ptype, payload_len)
        if params is None:
            return True
        return bool(self._binomial(params[0], params[1]) == 0)

    def sample_stages(self, ptype: PacketType, payload_len: int,
                      threshold: int = 7) -> tuple[bool, bool, bool]:
        """Draw (synced, header_ok, payload_ok) for one framed packet.

        Stages short-circuit exactly like the individual samplers do in
        sequence, consuming the same RNG variates in the same order, so
        one call draws what the three samplers would draw in turn.
        """
        if self.ber == 0.0:
            return True, True, True
        binomial = self._binomial
        ber = self.ber
        if binomial(SYNC_LEN, ber) > threshold:
            return False, False, False
        if binomial(18, self._residual_header) != 0:
            return True, False, False
        params = self._payload_draw(ptype, payload_len)
        if params is None:
            return True, True, True
        return True, True, bool(binomial(params[0], params[1]) == 0)


_MISSING = object()
