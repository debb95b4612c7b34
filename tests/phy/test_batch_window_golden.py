"""Golden-digest equivalence: batched-sync channel + table-driven hop
kernel vs test-local scalar oracles.

Two multi-piconet scenarios (statistical and bit-accurate channels) are
run twice in-process — once on the fast paths (one ``Channel._sync_batch``
event per multi-listener transmission, connection hops served by the
shared memo and, on a miss, the kernel's PERM5 lookup tables) and once
with both replaced by scalar oracles: a one-listener sync stage per
listener (the decomposition the ``Channel.sync`` docstring argues is
byte-identical) and the per-clock hop formula of
``tests/baseband_reference.py``, which walks the PERM5 butterfly bit by
bit and shares nothing with the tables.  Their *physical outcomes*
(collisions, transmissions, delivered bytes, per-device packet counts)
must match bit for bit.  The outcomes are additionally pinned against
sha256 digests captured on the tree that still scheduled one sync event
per listener and filled hops one clock at a time, so a matched pair of
bugs in the fast path and its oracle cannot slip through.  Memo misses
are also checked clock by clock against the same per-clock oracle.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.baseband.hop import HopRegistry, HopSelector
from repro.experiments.ext_interference import build_campaign_session
from repro.phy.channel import Channel

from tests.baseband_reference import connection_reference
from tests.kernels import object_kernel

#: sha256 prefixes of the scenario outcomes (same goldens as
#: ``tests/sim/test_soa_equivalence.py``).
GOLDEN_STAT = "ea87f0b01df77318"
GOLDEN_BIT = "cd5dc5712ed5b940"


def _run_scenario(n_piconets: int, seed: int, observe_slots: int,
                  ber: float = 0.0, bit_accurate: bool = False) -> tuple:
    """Build ``n_piconets`` saturated piconets (the campaign's own bring-up
    protocol) and return the physical outcome tuple of the run on the
    object kernel, whose fast paths and oracles are compared here."""
    with object_kernel():
        session, pairs = build_campaign_session(n_piconets, seed, ber=ber,
                                                bit_accurate=bit_accurate)
    session.run_slots(observe_slots)
    return (
        session.channel.collisions,
        session.channel.transmissions,
        tuple(slave.rx_buffer.total_bytes for _, slave in pairs),
        tuple(master.connection_master.stats_tx_packets
              for master, _ in pairs),
        tuple(slave.connection_slave.stats_rx_packets for _, slave in pairs),
    )


def _digest(outcome: tuple) -> str:
    return hashlib.sha256(json.dumps(outcome).encode()).hexdigest()[:16]


_SYNC_EVENT = Channel._sync_batch


def _sync_per_listener(self, tx, receivers):
    """Scalar oracle for ``Channel._sync_batch``: admit, decode and deliver
    one listener at a time, as consecutive per-listener events would."""
    for listener in receivers:
        _SYNC_EVENT(self, tx, [listener])


def _install_scalar_oracles(monkeypatch) -> None:
    """Route every multi-listener sync and every connection-state hop
    lookup through the scalar oracles.  The scenarios run with the slot
    engine detached: the engine prefills hops in bulk and calls the sync
    stage without the event, and its equivalence is pinned separately."""
    monkeypatch.setattr(Channel, "_sync_batch", _sync_per_listener)
    monkeypatch.setattr(HopSelector, "connection", connection_reference)


@pytest.mark.parametrize("name,kwargs,golden", [
    ("statistical", dict(n_piconets=3, seed=97, observe_slots=800),
     GOLDEN_STAT),
    ("bit_accurate", dict(n_piconets=2, seed=53, observe_slots=400,
                          ber=0.002, bit_accurate=True), GOLDEN_BIT),
])
def test_fast_paths_match_scalar_golden(name, kwargs, golden, monkeypatch):
    fast = _run_scenario(**kwargs)
    _install_scalar_oracles(monkeypatch)
    scalar = _run_scenario(**kwargs)
    assert fast == scalar, f"{name}: fast paths diverge from scalar oracles"
    assert _digest(fast) == golden, \
        f"{name}: outcomes diverge from the golden digest"
    assert fast[0] > 0  # the scenario does collide


def test_hop_memo_misses_match_scalar_oracle():
    """`connection()` served by memo misses and hits equals the per-clock
    oracle for every clock, across addresses and parities."""
    rng = np.random.default_rng(11)
    for address in rng.integers(0, 1 << 28, size=8):
        clk_base = int(rng.integers(0, 1 << 26)) & ~1
        clks = [clk_base + 2 * k for k in range(150)] + \
               [clk_base + 1 + 2 * k for k in range(10)] + \
               [int(rng.integers(0, 1 << 27)) for _ in range(20)]
        # a fresh registry: the first lookup of each clock is a miss
        selector = HopSelector(int(address), HopRegistry())
        served = [selector.connection(clk) for clk in clks]
        assert served == [connection_reference(selector, clk)
                          for clk in clks]
        assert all(isinstance(freq, int) for freq in served)


def test_piconet_hop_sequence_matches_connection():
    from repro.baseband.address import BdAddr
    from repro.link.piconet import Piconet

    addr = BdAddr(lap=0x9E8B33, uap=0x5A, nap=0x1234)
    piconet = Piconet(addr)
    clk_start = 4096
    window = piconet.hop_sequence(clk_start, 64)
    selector = HopSelector(addr.hop_address)
    assert [int(freq) for freq in window] == \
        [selector.connection(clk_start + 2 * k) for k in range(64)]
