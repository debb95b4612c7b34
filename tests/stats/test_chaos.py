"""Fault-injection harness tests: schedule determinism and fire-once.

The chaos layer is only a trustworthy test harness if it is itself
deterministic: same chaos seed, same fault placement, on any host — and
every fault fires exactly once, so recovery always makes forward
progress.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.options import CHAOS_ENV_VAR, RunOptions
from repro.stats.chaos import (
    NET_FAULT_KINDS,
    ChaosConfig,
    ChaosError,
    maybe_inject,
    maybe_net_fault,
)
from repro.stats.lease import LeaseExecutor


class TestFromEnv:
    def test_unset_or_blank_disables_chaos(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
        assert RunOptions.from_env().chaos is None
        monkeypatch.setenv(CHAOS_ENV_VAR, "   ")
        assert RunOptions.from_env().chaos is None
        assert ChaosConfig.from_spec("") is None

    def test_parses_all_keys(self):
        config = ChaosConfig.from_spec(
            "seed=0x2a, crash=0.05, hang=0.1, exc=0.2, hang_s=1.5, state=/tmp/x")
        assert config == ChaosConfig(seed=42, crash=0.05, hang=0.1, exc=0.2,
                                     hang_s=1.5, state_dir="/tmp/x")

    def test_unknown_key_rejected_loudly(self):
        # a typo silently disabling chaos would defeat the harness
        with pytest.raises(ValueError, match="unknown"):
            ChaosConfig.from_spec("seed=1,crsh=0.5")

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            ChaosConfig.from_spec("crash")

    def test_executor_resolves_the_schedule_from_env(self, monkeypatch,
                                                     tmp_path):
        monkeypatch.setenv(CHAOS_ENV_VAR,
                           f"seed=5,exc=0.5,state={tmp_path / 'ledger'}")
        assert LeaseExecutor().chaos == ChaosConfig(
            seed=5, exc=0.5, state_dir=str(tmp_path / "ledger"))

    def test_env_schedule_gets_a_fire_once_ledger(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "seed=5,crash=0.1")
        # a crash schedule without a durable ledger would re-kill forever
        assert LeaseExecutor().chaos.state_dir is not None

    def test_probabilities_validated(self):
        with pytest.raises(ValueError, match="sum to <= 1"):
            ChaosConfig(crash=0.6, hang=0.6)
        with pytest.raises(ValueError):
            ChaosConfig(exc=-0.1)


class TestSchedule:
    SEEDS = [0x1000 + index * 7 for index in range(400)]

    def test_same_seed_same_schedule(self):
        a = ChaosConfig(seed=7, crash=0.05, hang=0.05, exc=0.1)
        b = ChaosConfig(seed=7, crash=0.05, hang=0.05, exc=0.1)
        assert a.schedule(self.SEEDS) == b.schedule(self.SEEDS)
        assert a.schedule(self.SEEDS)  # non-empty at these rates

    def test_different_seed_different_schedule(self):
        a = ChaosConfig(seed=7, crash=0.05, hang=0.05, exc=0.1)
        b = ChaosConfig(seed=8, crash=0.05, hang=0.05, exc=0.1)
        assert a.schedule(self.SEEDS) != b.schedule(self.SEEDS)

    def test_rates_roughly_respected(self):
        config = ChaosConfig(seed=3, exc=0.25)
        plan = config.schedule(self.SEEDS)
        assert set(plan.values()) == {"exc"}
        assert 0.15 < len(plan) / len(self.SEEDS) < 0.35

    def test_zero_rates_schedule_nothing(self):
        assert ChaosConfig(seed=3).schedule(self.SEEDS) == {}

    def test_fault_for_is_pure(self):
        config = ChaosConfig(seed=11, crash=0.3, hang=0.3, exc=0.3)
        for seed in self.SEEDS[:50]:
            assert config.fault_for(seed) == config.fault_for(seed)


class TestFireOnce:
    def test_exc_fires_once_per_ledger_dir(self, tmp_path):
        config = ChaosConfig(seed=1, exc=1.0, state_dir=str(tmp_path))
        with pytest.raises(ChaosError, match="injected"):
            maybe_inject(config, 23)
        # second attempt (any config instance sharing the ledger) is clean
        again = ChaosConfig(seed=1, exc=1.0, state_dir=str(tmp_path))
        maybe_inject(again, 23)
        # a different trial seed still has its own fault to fire
        with pytest.raises(ChaosError):
            maybe_inject(config, 24)

    def test_process_local_ledger_without_state_dir(self):
        config = ChaosConfig(seed=2, exc=1.0)
        with pytest.raises(ChaosError):
            maybe_inject(config, 55)
        maybe_inject(config, 55)  # fired already

    def test_hang_stalls_then_returns(self, tmp_path):
        config = ChaosConfig(seed=1, hang=1.0, hang_s=0.05,
                             state_dir=str(tmp_path))
        start = time.monotonic()
        maybe_inject(config, 7)
        assert time.monotonic() - start >= 0.05
        start = time.monotonic()
        maybe_inject(config, 7)  # fire-once: no second stall
        assert time.monotonic() - start < 0.05

    def test_none_config_is_inert(self):
        maybe_inject(None, 1)

    def test_error_quotes_replay_seed(self, tmp_path):
        config = ChaosConfig(seed=9, exc=1.0, state_dir=str(tmp_path))
        with pytest.raises(ChaosError, match="0x000000000000002a"):
            maybe_inject(config, 42)


class TestNetSchedule:
    """The fabric's network-fault stream: deterministic, independent of
    the process-fault bands, fire-once like every other fault."""

    SEEDS = [0x9000 + index * 13 for index in range(400)]

    def test_same_seed_same_net_schedule(self):
        a = ChaosConfig(seed=5, drop=0.1, blackhole=0.1, dup=0.1, delay=0.1)
        b = ChaosConfig(seed=5, drop=0.1, blackhole=0.1, dup=0.1, delay=0.1)
        assert a.net_schedule(self.SEEDS) == b.net_schedule(self.SEEDS)
        plan = a.net_schedule(self.SEEDS)
        assert plan and set(plan.values()) <= set(NET_FAULT_KINDS)

    def test_independent_of_process_stream(self):
        # same probabilities on both streams: the placements still differ,
        # because the network draw comes from its own stream tag
        config = ChaosConfig(seed=5, crash=0.1, hang=0.1, exc=0.2,
                             drop=0.1, blackhole=0.1, dup=0.2)
        process = config.schedule(self.SEEDS)
        net = config.net_schedule(self.SEEDS)
        assert set(process) != set(net)

    def test_from_spec_parses_net_keys(self):
        config = ChaosConfig.from_spec(
            "seed=3,drop=0.1,blackhole=0.05,dup=0.02,delay=0.01,"
            "blackhole_s=0.8,delay_s=0.2")
        assert config == ChaosConfig(seed=3, drop=0.1, blackhole=0.05,
                                     dup=0.02, delay=0.01, blackhole_s=0.8,
                                     delay_s=0.2)

    def test_net_probabilities_validated(self):
        with pytest.raises(ValueError, match="network fault"):
            ChaosConfig(drop=0.7, dup=0.7)
        with pytest.raises(ValueError, match="network fault"):
            ChaosConfig(blackhole=-0.1)

    def test_net_fault_fires_once_per_ledger(self, tmp_path):
        config = ChaosConfig(seed=1, drop=1.0, state_dir=str(tmp_path))
        assert maybe_net_fault(config, 23) == "drop"
        assert maybe_net_fault(config, 23) is None  # claimed already
        assert maybe_net_fault(config, 24) == "drop"

    def test_net_and_process_claims_do_not_collide(self, tmp_path):
        # "drop" at a seed must not consume the claim of a process fault
        # at the same seed (and vice versa): the tokens are prefixed
        config = ChaosConfig(seed=1, exc=1.0, drop=1.0,
                             state_dir=str(tmp_path))
        assert maybe_net_fault(config, 23) == "drop"
        with pytest.raises(ChaosError):
            maybe_inject(config, 23)

    def test_none_config_is_inert(self):
        assert maybe_net_fault(None, 1) is None


class TestLedgerLifecycle:
    """begin_run(): a fresh campaign must start with a live schedule, but
    a kill-and-resume minutes later must keep its own claims (no
    re-crash loop on resume)."""

    @staticmethod
    def _backdate(path: str, age_s: float) -> None:
        stamp = time.time() - age_s
        os.utime(path, (stamp, stamp))

    def test_expires_stale_claims_keeps_recent_ones(self, tmp_path):
        config = ChaosConfig(seed=1, exc=1.0, state_dir=str(tmp_path))
        with pytest.raises(ChaosError):
            maybe_inject(config, 23)  # recent claim
        with pytest.raises(ChaosError):
            maybe_inject(config, 24)
        stale = os.path.join(str(tmp_path), os.listdir(str(tmp_path))[0])
        self._backdate(stale, 2 * 3600)
        assert config.begin_run() == 1
        assert len(os.listdir(str(tmp_path))) == 1  # the recent claim stays

    def test_missing_state_dir_is_inert(self, tmp_path):
        assert ChaosConfig(seed=1).begin_run() == 0
        absent = ChaosConfig(seed=1, state_dir=str(tmp_path / "nope"))
        assert absent.begin_run() == 0

    def test_fresh_campaign_does_not_inherit_stale_ledger(self, tmp_path):
        """A campaign started days after the last one must see the full
        chaos schedule again: executor construction expires the stale
        claims."""
        state = tmp_path / "ledger"
        config = ChaosConfig(seed=1, exc=1.0, state_dir=str(state))
        with pytest.raises(ChaosError):
            maybe_inject(config, 23)  # yesterday's campaign fired it...
        for name in os.listdir(str(state)):
            self._backdate(os.path.join(str(state), name), 2 * 3600)
        executor = LeaseExecutor(chaos=config, max_retries=0)
        with pytest.raises(ChaosError):  # ...and today's schedule is live
            executor.map_keyed(lambda x: x, [1], [(0, 0, 0, 23)])

    def test_resume_within_ttl_keeps_claims(self, tmp_path):
        """The flip side: an immediate kill-and-resume must *not* re-fire
        the claims of its own run."""
        config = ChaosConfig(seed=1, exc=1.0, state_dir=str(tmp_path))
        with pytest.raises(ChaosError):
            maybe_inject(config, 23)
        executor = LeaseExecutor(chaos=config, max_retries=0)
        assert executor.map_keyed(lambda x: x, [7], [(0, 0, 0, 23)]) == [7]
