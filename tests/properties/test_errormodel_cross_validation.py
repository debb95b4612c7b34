"""Cross-validation: the statistical stage model against the real codec.

``SimulationConfig.bit_accurate`` picks one of two channel fidelity levels,
which must agree; this test flips real bits through the bit-accurate codec
many times and compares empirical stage success rates with the closed-form
model at the same BER.
"""

import numpy as np
import pytest

from repro.baseband.access_code import SYNC_LEN
from repro.baseband.bits import flip_bits
from repro.baseband.codec import decode_packet, encode_packet
from repro.baseband.errormodel import (
    p_header_ok,
    p_payload_ok,
    p_sync_detect,
)
from repro.baseband.packets import Packet, PacketType

UAP, CLK = 0x47, 0x155


def empirical_rates(ptype: PacketType, payload_len: int, ber: float,
                    trials: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    packet = Packet(ptype=ptype, lap=0x123456, am_addr=1,
                    payload=bytes(payload_len))
    clean = encode_packet(packet, UAP, CLK)
    synced = header = payload = 0
    for _ in range(trials):
        flips = rng.binomial(len(clean), ber)
        positions = rng.choice(len(clean), size=flips, replace=False)
        result = decode_packet(flip_bits(clean, positions), 0x123456, UAP, CLK)
        synced += result.synced
        if result.synced:
            header += result.header_ok
            if result.header_ok:
                payload += result.payload_ok
    return synced / trials, header / max(synced, 1), payload / max(header, 1)


@pytest.mark.parametrize("ber", [1 / 100, 1 / 40])
def test_dm1_stage_rates_match_model(ber):
    trials = 800
    sync_rate, header_rate, payload_rate = empirical_rates(
        PacketType.DM1, 17, ber, trials)
    assert sync_rate == pytest.approx(p_sync_detect(ber), abs=0.05)
    assert header_rate == pytest.approx(p_header_ok(ber), abs=0.06)
    assert payload_rate == pytest.approx(
        p_payload_ok(PacketType.DM1, 17, ber), abs=0.08)


def test_dh1_payload_rate_matches_model():
    ber = 1 / 150
    trials = 800
    _, _, payload_rate = empirical_rates(PacketType.DH1, 27, ber, trials)
    assert payload_rate == pytest.approx(
        p_payload_ok(PacketType.DH1, 27, ber), abs=0.08)


def test_sync_word_correlator_matches_binomial_tail():
    """Direct check of the sync stage alone, without the codec around it."""
    from repro.baseband.access_code import AccessCode

    rng = np.random.default_rng(5)
    code = AccessCode(0x5A5A5A)
    ber = 0.05
    trials = 2000
    detected = 0
    for _ in range(trials):
        flips = rng.binomial(SYNC_LEN, ber)
        positions = rng.choice(SYNC_LEN, size=flips, replace=False)
        noisy = flip_bits(code.sync, positions)
        detected += code.correlate(noisy, threshold=7)
    assert detected / trials == pytest.approx(p_sync_detect(ber, 7), abs=0.04)
