"""AFH subsystem: remapping kernel, classifier, controller and the
piconet-level wiring (master installs, slaves follow)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.api import Session
from repro.baseband.address import BdAddr
from repro.baseband.hop import (
    DEFAULT_REGISTRY,
    AfhMap,
    HopRegistry,
    HopSelector,
    afh_channel_register,
)
from repro.config import AfhConfig, ConfigError
from repro.link.afh import AfhController, ChannelClassifier
from repro.link.piconet import Piconet

from tests.baseband_reference import connection_reference


@pytest.fixture(autouse=True)
def fresh_afh_state():
    """Bare selectors share the module-level default registry; keep its
    AFH maps from leaking between tests."""
    DEFAULT_REGISTRY.clear_afh_maps()
    yield
    DEFAULT_REGISTRY.clear_afh_maps()


def _mask(used_channels) -> np.ndarray:
    mask = np.zeros(units.NUM_CHANNELS, dtype=bool)
    mask[list(used_channels)] = True
    return mask


class TestAfhRegister:
    def test_even_then_odd_ordering(self):
        register = afh_channel_register(_mask([1, 2, 5, 8, 40, 77]))
        assert register.tolist() == [2, 8, 40, 1, 5, 77]

    def test_map_validation(self):
        with pytest.raises(ValueError):
            AfhMap(np.zeros(units.NUM_CHANNELS, dtype=bool))  # empty set
        with pytest.raises(ValueError):
            AfhMap(np.ones(42, dtype=bool))  # wrong shape


class TestHopSelectorRemap:
    ADDRESS = 0x2A96EF2

    def test_connection_stays_in_used_set(self):
        selector = HopSelector(self.ADDRESS)
        used = _mask(range(20, 79))
        selector.set_afh_map(used)
        freqs = {selector.connection(4 * clk) for clk in range(2000)}
        assert freqs <= set(range(20, 79))
        assert len(freqs) > 40  # still spreads over the whole used set

    def test_used_selections_unchanged_remapped_follow_spec_rule(self):
        """Where the basic kernel already lands on a used channel the AFH
        sequence is identical; elsewhere it is register[index mod N]."""
        selector = HopSelector(self.ADDRESS)
        clks = np.arange(0, 4000, 2, dtype=np.int64)
        basic = selector.connection_many(clks)
        index = selector._connection_indices(clks)
        used = _mask([channel for channel in range(79) if channel % 3 != 1])
        selector.set_afh_map(used)
        adaptive = selector.connection_many(clks)
        register = afh_channel_register(used)
        n_used = len(register)
        for basic_freq, idx, freq in zip(basic, index, adaptive):
            if used[basic_freq]:
                assert freq == basic_freq
            else:
                assert freq == register[idx % n_used]

    def test_scalar_connection_matches_vectorized_under_afh(self):
        selector = HopSelector(self.ADDRESS)
        selector.set_afh_map(_mask(range(0, 40)))
        clks = [2 * k for k in range(300)]
        oracle = [connection_reference(selector, clk) for clk in clks]
        vectorized = selector.connection_many(np.array(clks, dtype=np.int64))
        assert vectorized.tolist() == oracle
        assert [selector.connection(clk) for clk in clks] == oracle

    def test_memo_misses_match_scalar_oracle_under_afh(self):
        """A memo miss remaps its one slot: the lookups of a fresh
        selector agree with the per-clock oracle."""
        used = _mask(list(range(10, 50)) + [77])
        clks = [4096 + 2 * k for k in range(150)]
        # a fresh registry: every lookup is a miss
        selector = HopSelector(self.ADDRESS, HopRegistry())
        selector.set_afh_map(used)
        served = [selector.connection(clk) for clk in clks]
        assert served == [connection_reference(selector, clk)
                          for clk in clks]
        assert all(isinstance(freq, int) for freq in served)

    def test_memo_invalidated_on_map_change(self):
        selector = HopSelector(self.ADDRESS)
        before = [selector.connection(2 * k) for k in range(200)]
        selector.set_afh_map(_mask(range(40, 60)))
        after = [selector.connection(2 * k) for k in range(200)]
        assert set(after) <= set(range(40, 60))
        selector.set_afh_map(None)
        assert [selector.connection(2 * k) for k in range(200)] == before

    def test_map_shared_across_selectors_of_same_address(self):
        """Master and slave selectors are distinct objects bound to the
        master's address; a map installed through one is seen by the
        other (the LMP_set_AFH stand-in)."""
        master_side = HopSelector(self.ADDRESS)
        slave_side = HopSelector(self.ADDRESS)
        other_piconet = HopSelector(0x1111111)
        master_side.set_afh_map(_mask(range(30)))
        assert slave_side.afh_map is not None
        assert all(slave_side.connection(2 * k) < 30 for k in range(100))
        assert other_piconet.afh_map is None

    def test_map_reaches_selectors_with_orphaned_memos(self):
        """A map install must reach selectors whose shared memo dict was
        orphaned by the 64-address memo-registry eviction (regression:
        such selectors kept serving stale pre-remap frequencies)."""
        first = HopSelector(self.ADDRESS)
        # evict the registry: 64 other addresses drop first's dict from it
        for address in range(64):
            HopSelector(address)
        second = HopSelector(self.ADDRESS)  # binds a fresh canonical dict
        clks = [2 * k for k in range(100)]
        assert [first.connection(clk) for clk in clks] == \
            [second.connection(clk) for clk in clks]
        first.set_afh_map(_mask(range(40, 60)))
        for selector in (first, second):
            assert all(40 <= selector.connection(clk) < 60 for clk in clks)
        first.set_afh_map(None)
        assert [first.connection(clk) for clk in clks] == \
            [second.connection(clk) for clk in clks]

    def test_set_afh_map_does_not_freeze_callers_mask(self):
        selector = HopSelector(self.ADDRESS)
        mask = _mask(range(30))
        selector.set_afh_map(mask)
        mask[5] = False  # the installed map copied; caller's stays writable
        assert selector.afh_map.used_mask[5]  # and the copy is unaffected

    def test_session_construction_leaves_other_registries_alone(self):
        """Regression: building a fresh Session used to clear the
        process-global map registry, stripping any live selector's
        installed map.  Registries are world-scoped now, so a new world
        must leave every other registry untouched."""
        selector = HopSelector(self.ADDRESS)
        selector.set_afh_map(_mask(range(30)))
        Session(seed=1)
        assert selector.afh_map is not None
        assert all(selector.connection(2 * k) < 30 for k in range(100))


class TestPiconetWiring:
    def test_set_channel_map_reaches_hop_sequence(self):
        piconet = Piconet(BdAddr(lap=0x9E8B33, uap=0x5A, nap=0x1234))
        full = piconet.hop_sequence(4096, 256)
        assert piconet.channel_map is None
        used = _mask(range(25, 79))
        piconet.set_channel_map(used)
        adapted = piconet.hop_sequence(4096, 256)
        assert adapted.min() >= 25
        assert piconet.channel_map is not None
        assert piconet.channel_map.sum() == 54
        piconet.set_channel_map(None)
        assert (piconet.hop_sequence(4096, 256) == full).all()


class TestClassifier:
    def test_per_accumulates(self):
        classifier = ChannelClassifier()
        for _ in range(4):
            classifier.record(7, ok=False)
        classifier.record(7, ok=True)
        classifier.record(9, ok=True)
        per = classifier.per()
        assert per[7] == pytest.approx(0.8)
        assert per[9] == 0.0
        assert per[8] == 0.0  # unsampled stays neutral
        assert classifier.tx_counts[7] == 5


def _controller(min_channels=20, min_samples=4, threshold=0.5,
                probe_interval=0):
    piconet = Piconet(BdAddr(lap=0x1A2B3C, uap=0x21, nap=0x4321),
                      registry=HopRegistry())
    config = AfhConfig(enabled=True, min_channels=min_channels,
                       min_samples=min_samples,
                       bad_per_threshold=threshold,
                       probe_interval_assessments=probe_interval)
    return AfhController(piconet, config), piconet


class TestController:
    def test_excludes_bad_channels_and_installs_map(self):
        controller, piconet = _controller()
        for channel in range(10):
            for _ in range(6):
                controller.classifier.record(channel, ok=False)
        for channel in range(10, 79):
            for _ in range(6):
                controller.classifier.record(channel, ok=True)
        controller.assess()
        assert controller.hop_set_size == 69
        assert controller.maps_installed == 1
        assert piconet.channel_map is not None
        assert not piconet.channel_map[:10].any()
        assert piconet.channel_map[10:].all()

    def test_undersampled_channels_not_classified(self):
        controller, piconet = _controller(min_samples=4)
        for _ in range(3):  # below min_samples
            controller.classifier.record(5, ok=False)
        controller.assess()
        assert controller.hop_set_size == 79
        assert piconet.channel_map is None

    def test_exclusion_is_sticky_across_assessments(self):
        controller, piconet = _controller()
        for _ in range(6):
            controller.classifier.record(3, ok=False)
        controller.assess()
        assert controller.hop_set_size == 78
        # later evidence on other channels must not resurrect channel 3
        for _ in range(6):
            controller.classifier.record(4, ok=False)
        controller.assess()
        assert controller.hop_set_size == 77
        assert not piconet.channel_map[3] and not piconet.channel_map[4]

    def test_min_channels_floor_readmits_least_bad(self):
        controller, piconet = _controller(min_channels=80 - 15)
        # mark 20 channels bad with distinct PERs: 0..9 hopeless, 10..19 mild
        for channel in range(10):
            for _ in range(8):
                controller.classifier.record(channel, ok=False)
        for channel in range(10, 20):
            for _ in range(4):
                controller.classifier.record(channel, ok=False)
            for _ in range(4):
                controller.classifier.record(channel, ok=True)
        controller.assess()
        # floor 65 allows only 14 exclusions: the mild 50 %-PER channels
        # are re-admitted before the hopeless 100 % ones (lowest index
        # first), so 10..15 come back and 16..19 stay out
        assert controller.hop_set_size == 65
        assert not piconet.channel_map[:10].any()
        assert piconet.channel_map[10:16].all()
        assert not piconet.channel_map[16:20].any()

    def test_reply_attribution(self):
        controller, _ = _controller()
        controller.note_tx(12)
        controller.note_reply()          # 12: success
        controller.note_tx(13)
        controller.note_tx(14)           # 13 timed out -> failure
        controller.note_reply()          # 14: success
        classifier = controller.classifier
        assert classifier.tx_counts[12] == 1 and classifier.fail_counts[12] == 0
        assert classifier.tx_counts[13] == 1 and classifier.fail_counts[13] == 1
        assert classifier.tx_counts[14] == 1 and classifier.fail_counts[14] == 0

    def test_probe_readmits_then_fresh_evidence_reexcludes(self):
        """Probation gives an excluded channel a fresh evidence window: it
        is re-admitted with its counters reset, and a still-present
        interferer re-excludes it through the ordinary path once
        min_samples fresh failures accumulate."""
        controller, piconet = _controller(probe_interval=2, min_samples=4)
        for _ in range(6):
            controller.classifier.record(3, ok=False)
        controller.assess()                      # 1st: excluded
        assert controller.hop_set_size == 78
        controller.assess()                      # 2nd: probe re-admits
        assert controller.probes_started == 1
        assert controller.hop_set_size == 79
        assert piconet.channel_map is None
        assert controller.classifier.tx_counts[3] == 0  # fresh window
        for _ in range(4):                       # still jammed
            controller.classifier.record(3, ok=False)
        controller.assess()                      # 3rd: fresh evidence bad
        assert controller.hop_set_size == 78
        assert not piconet.channel_map[3]

    def test_probe_keeps_channel_when_interferer_vacated(self):
        controller, piconet = _controller(probe_interval=2, min_samples=4)
        for _ in range(6):
            controller.classifier.record(7, ok=False)
        controller.assess()
        controller.assess()                      # probe re-admits 7
        assert controller.hop_set_size == 79
        for _ in range(6):                       # jammer gone: clean traffic
            controller.classifier.record(7, ok=True)
        controller.assess()
        assert controller.hop_set_size == 79
        assert piconet.channel_map is None

    def test_probes_rotate_over_the_excluded_set(self):
        controller, _ = _controller(probe_interval=1, min_samples=2)
        for channel in (10, 20, 30):
            for _ in range(4):
                controller.classifier.record(channel, ok=False)
        # one probe per assessment; the cursor walks the excluded set in
        # channel order, so three assessments re-admit all three (each
        # probe resets that channel's counters, leaving no evidence to
        # re-exclude any of them)
        for _ in range(3):
            controller.assess()
        assert controller.probes_started == 3
        assert controller.hop_set_size == 79
        assert (controller.classifier.tx_counts[[10, 20, 30]] == 0).all()

    def test_maybe_assess_waits_one_interval(self):
        controller, _ = _controller()
        for _ in range(6):
            controller.classifier.record(3, ok=False)
        controller.maybe_assess(100)     # arms the schedule
        assert controller.maps_installed == 0
        controller.maybe_assess(100 + controller._interval_pairs - 1)
        assert controller.maps_installed == 0
        controller.maybe_assess(100 + controller._interval_pairs)
        assert controller.maps_installed == 1


class TestAfhConfigValidation:
    def test_bounds(self):
        with pytest.raises(ConfigError):
            AfhConfig(min_channels=0)
        with pytest.raises(ConfigError):
            AfhConfig(min_channels=80)
        with pytest.raises(ConfigError):
            AfhConfig(bad_per_threshold=0.0)
        with pytest.raises(ConfigError):
            AfhConfig(min_samples=0)
        with pytest.raises(ConfigError):
            AfhConfig(assess_interval_slots=0)
        with pytest.raises(ConfigError):
            AfhConfig(probe_interval_assessments=-1)


class TestEndToEnd:
    def test_piconet_folds_out_jammed_channels(self):
        """A live master/slave pair under a 20-channel static interferer
        converges onto a clean hop set and keeps exchanging data on it."""
        from repro.experiments.ext_afh import build_afh_session

        session, pairs = build_afh_session(20, afh_enabled=True, seed=77)
        master, slave = pairs[0]
        session.run_slots(1600)
        piconet = master.piconet
        assert piconet.channel_map is not None
        assert not piconet.channel_map[:20].any(), \
            "every jammed channel must leave the hop set"
        assert piconet.channel_map.sum() >= 20  # N_min respected
        # the adapted sequence avoids the jammed block entirely
        clk = master.clock.clk(session.sim.now)
        assert piconet.hop_sequence(clk, 512).min() >= 20
        # and the link still delivers on the adapted set
        before = slave.rx_buffer.total_bytes
        session.run_slots(400)
        assert slave.rx_buffer.total_bytes > before
