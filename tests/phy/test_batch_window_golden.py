"""Golden-digest equivalence: one sync event per transmission and the
table-driven hop kernel vs test-local scalar oracles.

Campaign scenarios (statistical at BER 0 and 0.002, bit-accurate at
0.002) and a three-slave piconet on both channel modes are run twice
in-process: once as the object kernel runs them (one
``Channel._sync_batch`` event per transmission, which decodes and
delivers each admitted listener in turn; connection hops served by the
shared memo and, on a miss, the kernel's PERM5 lookup tables) and once
with both replaced by scalar oracles: a one-listener sync stage per
listener (the decomposition the ``Channel.sync`` docstring argues is
byte-identical) and the per-clock hop formula of
``tests/baseband_reference.py``, which walks the PERM5 butterfly bit by
bit and shares nothing with the tables.  In the noisy worlds each
listener's decode draws from the channel's noise or stage stream between
two deliveries, so they also pin that no delivery draws from those
streams.  Their *physical outcomes* (collisions, transmissions, delivered
bytes, per-device packet counts) must match bit for bit.  The outcomes
are additionally pinned against sha256 digests, so a matched pair of
bugs in the fast path and its oracle cannot slip through: two were
captured on the tree that still scheduled one sync event per listener
and filled hops one clock at a time, the other three on the tree that
still decoded a transmission's listeners in one batch.  Memo misses are also
checked clock by clock against the same per-clock oracle.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.api import Session
from repro.baseband.hop import HopRegistry, HopSelector
from repro.baseband.packets import PacketType
from repro.experiments.common import paper_config
from repro.experiments.ext_interference import build_campaign_session
from repro.link.traffic import SaturatedTraffic
from repro.phy.channel import Channel

from tests.baseband_reference import connection_reference
from tests.kernels import object_kernel

#: sha256 prefixes of the scenario outcomes (same goldens as
#: ``tests/sim/test_soa_equivalence.py``; the bit-accurate ones were
#: captured again once an addressed slave NAKed the packets whose payload
#: failed).
GOLDEN_STAT = "ea87f0b01df77318"
GOLDEN_BIT = "2c1e58b4e6943fc6"
#: the statistical campaign world at BER 0.002, which draws stage outcomes
GOLDEN_STAT_NOISY = "7a20bcbbb2ec06bc"
#: a three-slave piconet, statistical and bit-accurate channels
GOLDEN_PICONET_STAT = "6738ed498cb5eaee"
GOLDEN_PICONET_BIT = "d8518b5c19a3fae5"


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


def _run_piconet(seed: int, observe_slots: int, ber: float,
                 bit_accurate: bool = False) -> tuple:
    """A master pages up three slaves and saturates each with its own
    packet type.  Every master packet reaches three listening slaves, so
    each of its noisy syncs decodes three listeners.  Returns the same
    kind of outcome tuple as :func:`_run_scenario`."""
    with object_kernel():
        session = Session(config=paper_config(ber=ber, seed=seed,
                                              bit_accurate=bit_accurate))
    master = session.add_device("master")
    slaves = [session.add_device(f"slave{i}") for i in (1, 2, 3)]
    piconet = session.build_piconet(master, slaves)
    for slave, ptype in zip(slaves, (PacketType.DM1, PacketType.DH3,
                                     PacketType.DM5)):
        SaturatedTraffic(master, piconet.am_addr_of(slave),
                         ptype=ptype).start()
    session.run_slots(observe_slots)
    return (
        session.channel.collisions,
        session.channel.transmissions,
        tuple(slave.rx_buffer.total_bytes for slave in slaves),
        master.connection_master.stats_tx_packets,
        tuple(slave.connection_slave.stats_rx_packets for slave in slaves),
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
    ("statistical_noisy", dict(n_piconets=3, seed=97, observe_slots=800,
                               ber=0.002), GOLDEN_STAT_NOISY),
])
def test_fast_paths_match_scalar_golden(name, kwargs, golden, monkeypatch):
    fast = _run_scenario(**kwargs)
    _install_scalar_oracles(monkeypatch)
    scalar = _run_scenario(**kwargs)
    assert fast == scalar, f"{name}: fast paths diverge from scalar oracles"
    assert _digest(fast) == golden, \
        f"{name}: outcomes diverge from the golden digest"
    assert fast[0] > 0  # the scenario does collide


@pytest.mark.parametrize("name,kwargs,golden", [
    ("statistical", dict(seed=3, observe_slots=600, ber=0.02),
     GOLDEN_PICONET_STAT),
    ("bit_accurate", dict(seed=3, observe_slots=600, ber=0.002,
                          bit_accurate=True), GOLDEN_PICONET_BIT),
])
def test_multi_listener_decode_matches_scalar_golden(name, kwargs, golden,
                                                     monkeypatch):
    """Noisy transmissions that several listeners decode at one sync
    instant give the outcomes of one sync stage per listener."""
    locked_counts = []
    sync = Channel.sync

    def counting_sync(self, tx, receivers):
        locked = sync(self, tx, receivers)
        locked_counts.append(len(locked))
        return locked

    monkeypatch.setattr(Channel, "sync", counting_sync)
    fast = _run_piconet(**kwargs)
    # syncs after which three listeners go on to the header stage
    assert sum(count == 3 for count in locked_counts) > 100, \
        f"{name}: too few three-listener decodes to pin"
    _install_scalar_oracles(monkeypatch)
    scalar = _run_piconet(**kwargs)
    assert fast == scalar, f"{name}: multi-listener decode diverges"
    assert _digest(fast) == golden, \
        f"{name}: outcomes diverge from the golden digest"


def _stream_positions(channel: Channel) -> tuple:
    """Where the channel's stage and noise streams stand."""
    return tuple(rng.bit_generator.state["state"]
                 for rng in (channel.stage_model._rng, channel.noise._rng))


@pytest.mark.parametrize("name,kwargs", [
    ("statistical", dict(seed=3, observe_slots=600, ber=0.02)),
    ("bit_accurate", dict(seed=3, observe_slots=600, ber=0.002,
                          bit_accurate=True)),
])
def test_nothing_between_decodes_draws_from_the_channel_streams(
        name, kwargs, monkeypatch):
    """``Channel.sync`` decodes a transmission's next listener after the
    previous listener's delivery.  That equals decoding every listener
    first only if no delivery, and nothing else between two decodes,
    draws from the channel's stage or noise stream: each decode must
    start where the previous one left them."""
    spans = []
    full_decode = Channel._full_decode

    def recording_decode(self, tx, listener):
        start = _stream_positions(self)
        result = full_decode(self, tx, listener)
        spans.append((tx, start, _stream_positions(self)))
        return result

    monkeypatch.setattr(Channel, "_full_decode", recording_decode)
    _run_piconet(**kwargs)
    # decodes of a listener that follows another of the same transmission
    followers = sum(tx is previous_tx for (previous_tx, _, _), (tx, _, _)
                    in zip(spans, spans[1:]))
    assert followers > 200, f"{name}: too few multi-listener decodes"
    assert any(start != end for _, start, end in spans)  # decodes draw
    for (_, _, end), (_, start, _) in zip(spans, spans[1:]):
        assert start == end, f"{name}: a draw between two decodes"


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
