"""World-scoped hop state: HopRegistry bounds, eviction and isolation.

The registry replaced the process-global ``HopSelector`` class tables, so
these tests pin its contract: both tables are bounded at the same address
count (the old code evicted memos at 64 addresses but let ``_afh_maps``
grow forever — the leak this PR fixes), map installs invalidate memoized
frequencies through the generation counter, and two registries never see
each other's state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.baseband.hop import HopRegistry, HopSelector


def _mask(excluded: list[int]) -> np.ndarray:
    mask = np.ones(units.NUM_CHANNELS, dtype=bool)
    mask[excluded] = False
    return mask


class TestMemoBound:
    def test_memo_table_dropped_wholesale_at_bound(self):
        registry = HopRegistry()
        for address in range(registry.MAX_ADDRESSES):
            registry.bind_memo(address)
        assert len(registry.connection_memos) == registry.MAX_ADDRESSES
        registry.bind_memo(10_000)
        assert list(registry.connection_memos) == [10_000]

    def test_live_selector_survives_memo_eviction(self):
        """A selector holding an orphaned memo dict keeps serving correct
        frequencies (the kernel is pure in (address, clk, map))."""
        registry = HopRegistry()
        selector = HopSelector(0x123456, registry)
        expected = [selector.connection(2 * k) for k in range(8)]
        for address in range(registry.MAX_ADDRESSES + 1):
            registry.bind_memo(1 << 27 | address)
        assert [selector.connection(2 * k) for k in range(8)] == expected


def _saturated_pair(detached: bool = True):
    """A paged-up pair under saturated DM1 traffic, on the object kernel
    alone unless ``detached`` is False, and its world's connection memos."""
    from repro.api import Session
    from repro.baseband.packets import PacketType
    from repro.link.traffic import SaturatedTraffic

    from tests.kernels import detach

    session = Session(seed=5, ber=0.0)
    if detached:
        detach(session)
    master = session.add_device("master")
    slave = session.add_device("slave")
    assert session.run_page(master, slave).success
    SaturatedTraffic(master, 1, ptype=PacketType.DM1).start()
    return session, session.channel.hop_registry.connection_memos


def _saturated_pair_memo_run(slots: int):
    """Peak entries of any connection memo over a saturated object-kernel
    link run ``slots`` long, in 100-slot runs."""
    session, memos = _saturated_pair()
    peak = 0
    for _ in range(slots // 100):
        session.run_slots(100)
        peak = max(peak, max(len(memo) for memo in memos.values()))
    return peak


def _count_misses(monkeypatch) -> list[int]:
    """The clocks of every scalar kernel evaluation (a connection-memo
    miss) from here on."""
    misses = []
    miss = HopSelector._connection_miss

    def counted(selector, clk):
        misses.append(clk)
        return miss(selector, clk)

    monkeypatch.setattr(HopSelector, "_connection_miss", counted)
    return misses


class TestSlotLoopMemoBound:
    SLOTS = 3000

    def test_memo_stays_within_the_bound(self):
        assert HopSelector._MEMO_MAX < self.SLOTS  # the run must hit it
        peak = _saturated_pair_memo_run(self.SLOTS)
        assert peak <= HopSelector._MEMO_MAX

    def test_bound_adds_no_kernel_evaluations(self, monkeypatch):
        """A miss evaluates the kernel at one clock, so the bound adds no
        evaluation when the run makes as many misses with it as without."""
        misses = _count_misses(monkeypatch)
        _saturated_pair_memo_run(self.SLOTS)
        bounded = list(misses)
        misses.clear()
        monkeypatch.setattr(HopSelector, "_MEMO_MAX", 1 << 30)
        assert _saturated_pair_memo_run(self.SLOTS) > 1 << 11
        assert len(bounded) >= self.SLOTS  # one evaluation per slot pair
        assert misses == bounded

    def test_an_absorbed_window_prefills_within_the_bound(self):
        """The slot engine fills at most half a memo at a time, so one
        long absorbed window leaves every memo within the bound as well."""
        session, memos = _saturated_pair(detached=False)
        session.run_slots(100)  # past the page procedure's last event
        absorbed = session.slot_engine.windows_absorbed
        session.run_slots(self.SLOTS)
        assert session.slot_engine.windows_absorbed == absorbed + 1
        assert max(len(memo) for memo in memos.values()) \
            <= HopSelector._MEMO_MAX

    def test_an_absorbed_window_fills_each_memo_row_once(self, monkeypatch):
        """A slave shares its master's memo and start clock, whose row the
        batched pass has just filled, so the prefill passes each memo row
        once, and the handlers then resolve every lookup with a hit."""
        from repro.experiments.ext_interference import build_campaign_session
        from repro.sim import soa

        session, pairs = build_campaign_session(3, 97)
        rows = []
        fill = soa.connection_windows_many

        def recorded(selectors, starts, window):
            rows.extend((id(selector._connection_memo), start)
                        for selector, start in zip(selectors, starts))
            return fill(selectors, starts, window)

        monkeypatch.setattr(soa, "connection_windows_many", recorded)
        misses = _count_misses(monkeypatch)
        absorbed = session.slot_engine.windows_absorbed
        session.run_slots(800)
        assert session.slot_engine.windows_absorbed == absorbed + 1
        # 800 slots take two prefills of one row per piconet
        assert len(rows) == 2 * len(pairs)
        assert len(set(rows)) == len(rows)
        assert misses == []


class TestAfhMapEviction:
    """Regression: the AFH-map table is bounded like the memo table.

    The pre-registry code evicted connection memos at 64 addresses but
    never evicted ``_afh_maps`` — a fresh-address Monte-Carlo campaign
    with AFH on leaked one map (mask + register arrays) per trial for the
    life of the process.
    """

    def test_maps_bounded_at_max_addresses(self):
        registry = HopRegistry()
        n = registry.MAX_ADDRESSES
        for address in range(n + 16):
            registry.set_afh_map(address, _mask([0, 1]))
        assert len(registry.afh_maps) == n

    def test_eviction_is_fifo_oldest_installed_first(self):
        registry = HopRegistry()
        n = registry.MAX_ADDRESSES
        for address in range(n):
            registry.set_afh_map(address, _mask([0]))
        registry.set_afh_map(9_999, _mask([1]))
        assert registry.afh_map(0) is None  # oldest install evicted
        assert registry.afh_map(1) is not None
        assert registry.afh_map(9_999) is not None
        assert len(registry.afh_maps) == n

    def test_reinstall_does_not_evict(self):
        """Replacing an existing address's map is not a fresh install —
        the table stays full without evicting anyone else."""
        registry = HopRegistry()
        n = registry.MAX_ADDRESSES
        for address in range(n):
            registry.set_afh_map(address, _mask([0]))
        registry.set_afh_map(3, _mask([5]))
        assert len(registry.afh_maps) == n
        assert registry.afh_map(0) is not None
        assert registry.afh_map(3).used_mask[5] == False  # noqa: E712

    def test_evicted_addresss_memo_is_cleared(self):
        """Eviction silently un-installs a map, so the evicted address's
        memoized (remapped) frequencies must not survive it."""
        registry = HopRegistry()
        selector = HopSelector(0, registry)
        registry.set_afh_map(0, _mask(list(range(40))))
        remapped = [selector.connection(2 * k) for k in range(64)]
        assert all(freq >= 40 for freq in remapped)
        for address in range(1, registry.MAX_ADDRESSES + 1):
            registry.set_afh_map(address, _mask([0]))
        assert registry.afh_map(0) is None
        plain = [selector.connection(2 * k) for k in range(64)]
        bare = HopSelector(0, HopRegistry())
        assert plain == [bare.connection(2 * k) for k in range(64)]


class TestGenerationInvalidation:
    def test_map_install_invalidates_memoized_frequencies(self):
        registry = HopRegistry()
        selector = HopSelector(0x5A5A5A, registry)
        before = [selector.connection(2 * k) for k in range(64)]
        registry.set_afh_map(0x5A5A5A, _mask(list(range(39))))
        after = [selector.connection(2 * k) for k in range(64)]
        assert all(freq >= 39 for freq in after)
        assert after != before

    def test_map_clear_restores_basic_sequence(self):
        registry = HopRegistry()
        selector = HopSelector(0x5A5A5A, registry)
        before = [selector.connection(2 * k) for k in range(64)]
        registry.set_afh_map(0x5A5A5A, _mask(list(range(39))))
        selector.connection(0)
        registry.set_afh_map(0x5A5A5A, None)
        assert [selector.connection(2 * k) for k in range(64)] == before

    def test_clearing_an_absent_map_is_free(self):
        registry = HopRegistry()
        generation = registry.generation
        registry.set_afh_map(42, None)
        assert registry.generation == generation


class TestWorldIsolation:
    def test_same_address_different_worlds_different_maps(self):
        """The headline fix at kernel level: one hop address can carry a
        different adaptive map in each world."""
        address = 0xABCDEF
        world_a, world_b = HopRegistry(), HopRegistry()
        sel_a = HopSelector(address, world_a)
        sel_b = HopSelector(address, world_b)
        world_a.set_afh_map(address, _mask(list(range(40, 79))))
        world_b.set_afh_map(address, _mask(list(range(39))))
        clks = [2 * k for k in range(128)]
        freqs_a = [sel_a.connection(clk) for clk in clks]
        freqs_b = [sel_b.connection(clk) for clk in clks]
        assert all(freq < 40 for freq in freqs_a)
        assert all(freq >= 39 for freq in freqs_b)

    def test_clear_in_one_world_leaves_the_other(self):
        address = 7
        world_a, world_b = HopRegistry(), HopRegistry()
        world_a.set_afh_map(address, _mask([0]))
        world_b.set_afh_map(address, _mask([1]))
        world_a.clear_afh_maps()
        assert world_a.afh_map(address) is None
        assert world_b.afh_map(address) is not None

    def test_selectors_share_memos_within_a_world_only(self):
        address = 0x111111
        world_a, world_b = HopRegistry(), HopRegistry()
        sel_a1 = HopSelector(address, world_a)
        sel_a2 = HopSelector(address, world_a)
        sel_b = HopSelector(address, world_b)
        assert sel_a1._connection_memo is sel_a2._connection_memo
        assert sel_a1._connection_memo is not sel_b._connection_memo


class TestAfhMapValidation:
    def test_rejects_wrong_shape(self):
        registry = HopRegistry()
        with pytest.raises(ValueError):
            registry.set_afh_map(0, np.ones(10, dtype=bool))

    def test_rejects_empty_hop_set(self):
        registry = HopRegistry()
        with pytest.raises(ValueError):
            registry.set_afh_map(0, np.zeros(units.NUM_CHANNELS, dtype=bool))
