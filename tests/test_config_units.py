"""Configuration validation and time-unit helpers."""

import pytest

from repro import units
from repro.config import LinkConfig, NoiseConfig, RfConfig, SimulationConfig
from repro.errors import ConfigError


class TestUnits:
    def test_slot_structure(self):
        assert units.SLOT_NS == 625_000
        assert units.HALF_SLOT_NS * 2 == units.SLOT_NS
        assert units.TICK_NS == units.HALF_SLOT_NS
        assert units.SLOT_PAIR_NS == 2 * units.SLOT_NS

    def test_hop_rate_consistent_with_slots(self):
        assert units.HOP_RATE_HZ * units.SLOT_NS == units.SEC

    def test_scan_period_is_1_28s(self):
        assert units.SCAN_FREQ_PERIOD_NS == 1_280_000_000

    def test_slot_conversions_roundtrip(self):
        assert units.ns_to_slots(units.slots_to_ns(17)) == 17
        assert units.slots_to_ns(0.5) == units.HALF_SLOT_NS

    def test_format_time(self):
        assert units.format_time(312_500) == "312.5us"
        assert units.format_time(2_000_000_000) == "2.000s"
        assert units.format_time(1_500_000) == "1.500ms"
        assert units.format_time(42) == "42ns"


class TestNoiseConfig:
    def test_defaults(self):
        assert NoiseConfig().ber == 0.0

    def test_ber_bounds(self):
        with pytest.raises(ConfigError):
            NoiseConfig(ber=0.5)
        with pytest.raises(ConfigError):
            NoiseConfig(ber=-0.1)


class TestRfConfig:
    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError):
            RfConfig(modem_delay_ns=-1)


class TestLinkConfig:
    def test_paper_defaults(self):
        config = LinkConfig()
        assert config.inquiry_timeout_slots == 2048  # 1.28 s
        assert config.page_timeout_slots == 2048
        assert config.inq_resp_backoff_slots == 1024  # RAND(0..1023)
        assert config.train_size == 16
        assert config.sync_threshold == 7
        assert config.id_sync_threshold == 7
        assert config.active_listen_ns == 32_500  # the 2.6 % window

    def test_threshold_bounds(self):
        with pytest.raises(ConfigError):
            LinkConfig(sync_threshold=65)
        with pytest.raises(ConfigError):
            LinkConfig(id_sync_threshold=-1)

    def test_train_size_bounds(self):
        with pytest.raises(ConfigError):
            LinkConfig(train_size=33)

    def test_positive_timeouts(self):
        with pytest.raises(ConfigError):
            LinkConfig(t_poll_slots=0)


class TestSimulationConfig:
    def test_with_ber_preserves_rest(self):
        config = SimulationConfig(seed=5)
        noisy = config.with_ber(0.01)
        assert noisy.noise.ber == 0.01
        assert noisy.seed == 5
        assert config.noise.ber == 0.0  # original unchanged (frozen)

    def test_with_seed(self):
        config = SimulationConfig(seed=5).with_seed(9)
        assert config.seed == 9

    def test_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            SimulationConfig().seed = 3
