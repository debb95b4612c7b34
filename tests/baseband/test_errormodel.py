"""Statistical error model: closed-form probabilities and samplers."""

import numpy as np
import pytest

from repro.baseband.errormodel import (
    StageErrorModel,
    binomial_tail_le,
    p_bit_after_fec13,
    p_codeword_ok,
    p_header_ok,
    p_packet_ok,
    p_payload_ok,
    p_sync_detect,
)
from repro.baseband.packets import PacketType


class TestClosedForm:
    def test_binomial_tail_extremes(self):
        assert binomial_tail_le(10, 10, 0.3) == pytest.approx(1.0)
        assert binomial_tail_le(10, 0, 0.0) == pytest.approx(1.0)
        assert binomial_tail_le(10, 0, 0.5) == pytest.approx(0.5 ** 10)

    def test_binomial_tail_long_dh5_payload_regression(self):
        """n = 2745 (a max DH5 air payload in bits): the pre-log-space
        implementation overflowed converting comb(2745, k) to float."""
        n, p = 2745, 1e-5
        assert binomial_tail_le(n, 0, p) == pytest.approx((1 - p) ** n)
        mid = binomial_tail_le(n, n // 2, p)
        assert 0.0 <= mid <= 1.0
        assert mid == pytest.approx(1.0)  # k >> n*p: essentially certain
        assert binomial_tail_le(n, n, p) == 1.0
        # monotone non-decreasing in k across the interesting range
        values = [binomial_tail_le(n, k, 1 / 30) for k in (0, 10, 50, 91, 200, n)]
        assert values == sorted(values)

    def test_binomial_tail_agrees_with_exact_small_n(self):
        from math import comb

        for n, k, p in ((12, 4, 0.2), (30, 7, 1 / 30), (64, 7, 0.05)):
            exact = sum(comb(n, i) * p ** i * (1 - p) ** (n - i)
                        for i in range(k + 1))
            assert binomial_tail_le(n, k, p) == pytest.approx(exact, rel=1e-12)

    def test_sync_detect_monotone_in_threshold(self):
        values = [p_sync_detect(0.02, t) for t in range(0, 12, 2)]
        assert values == sorted(values)

    def test_sync_detect_monotone_in_ber(self):
        assert p_sync_detect(0.001) > p_sync_detect(0.01) > p_sync_detect(0.05)

    def test_fec13_residual_much_smaller_than_ber(self):
        ber = 0.01
        assert p_bit_after_fec13(ber) < ber / 10

    def test_header_ok_at_zero_noise(self):
        assert p_header_ok(0.0) == pytest.approx(1.0)

    def test_codeword_ok_tolerates_single_error(self):
        # at tiny BER the codeword failure is O(ber^2)
        assert 1 - p_codeword_ok(1e-4) < 1e-5

    def test_dm_beats_dh_at_high_ber(self):
        ber = 1 / 30
        assert p_payload_ok(PacketType.DM1, 17, ber) > \
            p_payload_ok(PacketType.DH1, 17, ber)

    def test_short_beats_long_at_high_ber(self):
        ber = 1 / 50
        assert p_payload_ok(PacketType.DM1, 17, ber) > \
            p_payload_ok(PacketType.DM5, 224, ber)

    def test_packet_ok_composes_stages(self):
        ber = 0.01
        combined = p_packet_ok(PacketType.DM1, 17, ber)
        manual = (p_sync_detect(ber) * p_header_ok(ber)
                  * p_payload_ok(PacketType.DM1, 17, ber))
        assert combined == pytest.approx(manual)

    def test_id_needs_only_sync(self):
        ber = 0.02
        assert p_packet_ok(PacketType.ID, 0, ber) == pytest.approx(p_sync_detect(ber))


class TestSamplers:
    def test_zero_noise_always_succeeds(self):
        model = StageErrorModel(0.0, np.random.default_rng(0))
        assert all(model.sample_sync() for _ in range(20))
        assert all(model.sample_header() for _ in range(20))
        assert all(model.sample_payload(PacketType.DM5, 224) for _ in range(20))

    def test_zero_noise_draws_nothing(self):
        """A draw-free channel calls no sampler at BER 0; that equals a
        statistical draw only because the samplers then draw nothing."""
        rng = np.random.default_rng(3)
        model = StageErrorModel(0.0, rng)
        before = rng.bit_generator.state
        assert model.sample_sync(0)
        assert model.sample_header()
        assert model.sample_payload(PacketType.DH5, 339)
        assert model.sample_stages(PacketType.DM1, 17, 0) == (True, True, True)
        assert rng.bit_generator.state == before

    def test_sampler_matches_closed_form(self):
        ber = 1 / 40
        model = StageErrorModel(ber, np.random.default_rng(7))
        n = 4000
        sync_rate = sum(model.sample_sync() for _ in range(n)) / n
        assert sync_rate == pytest.approx(p_sync_detect(ber), abs=0.03)
        header_rate = sum(model.sample_header() for _ in range(n)) / n
        assert header_rate == pytest.approx(p_header_ok(ber), abs=0.03)
        payload_rate = sum(
            model.sample_payload(PacketType.DM1, 17) for _ in range(n)) / n
        assert payload_rate == pytest.approx(
            p_payload_ok(PacketType.DM1, 17, ber), abs=0.03)

    def test_null_poll_payload_never_fails(self):
        model = StageErrorModel(0.4, np.random.default_rng(1))
        assert all(model.sample_payload(PacketType.POLL, 0) for _ in range(50))


class TestSampleStagesStreamEquivalence:
    """The batched ``sample_stages`` must be draw-for-draw identical to the
    separate sampler chain: same outcomes AND same RNG stream consumption
    (including the early exits).  A reordered or unconditional draw would
    silently shift the channel.stages stream and change every framed-packet
    figure — this is the stage-model analogue of the codec fast-path
    equivalence suite.
    """

    CASES = [
        (0.0, PacketType.DM1, 17, 7),
        (1 / 100, PacketType.DM1, 17, 7),
        (1 / 40, PacketType.DM5, 224, 7),
        (1 / 40, PacketType.DH5, 339, 0),
        (1 / 30, PacketType.NULL, 0, 7),
        (0.2, PacketType.DM3, 120, 7),
        # a strict correlator: chains end at every stage, about half at
        # sync
        (0.04, PacketType.DM1, 17, 2),
    ]

    @pytest.mark.parametrize("ber,ptype,payload_len,threshold", CASES)
    def test_outcomes_and_stream_match_separate_samplers(
            self, ber, ptype, payload_len, threshold):
        batched = StageErrorModel(ber, np.random.default_rng(42))
        chained = StageErrorModel(ber, np.random.default_rng(42))
        for _ in range(300):
            stages = batched.sample_stages(ptype, payload_len, threshold)
            synced = chained.sample_sync(threshold)
            header_ok = synced and chained.sample_header()
            payload_ok = header_ok and chained.sample_payload(
                ptype, payload_len)
            assert stages == (synced, header_ok, payload_ok)
        # both generators must be at the same stream position afterwards
        assert (batched._rng.integers(0, 2**63)
                == chained._rng.integers(0, 2**63))
