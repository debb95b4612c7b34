"""Spatial layer: geometry units, link-budget laws, and the flat-world
byte-identity contract.

Three layers of evidence:

* unit tests over :mod:`repro.phy.geometry` — models, mobility, the
  topology's gain cache and the layout helpers;
* Hypothesis laws — received power is non-increasing in distance and the
  topology's pairwise gain is symmetric, for arbitrary model parameters
  and placements;
* the identity contract — a world carrying a :class:`FlatLoss` topology
  (devices placed and all) reproduces the *same pre-PR golden digests*
  as a world with no topology at all, on both kernels, and a genuinely
  spatial world is byte-identical between the object kernel (slot engine
  detached) and the SoA micro-kernel including its capture stream.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.api import Session
from repro.baseband.address import BdAddr
from repro.baseband.packets import PacketType
from repro.config import SirConfig
from repro.errors import ConfigError
from repro.experiments.common import page_up_pair, paper_config
from repro.experiments.ext_interference import (
    build_campaign_session,
    build_spatial_session,
)
from repro.link.piconet import ParkParams, Piconet
from repro.link.traffic import SaturatedTraffic
from repro.phy.geometry import (
    FlatLoss,
    LogDistancePathLoss,
    Position,
    Topology,
    WaypointMobility,
    cluster_layout,
    grid_layout,
    ring_layout,
    uniform_disc_layout,
)

from tests.kernels import kernel
from tests.sim.test_soa_equivalence import (
    GOLDEN_BIT,
    GOLDEN_STAT,
    _digest,
    _outcome,
)


# ----------------------------------------------------------------------
# Units: positions and path-loss models
# ----------------------------------------------------------------------

def test_position_distance():
    assert Position(0.0, 0.0).distance_to(Position(3.0, 4.0)) == 5.0


def test_flat_loss_is_unit_gain_everywhere():
    model = FlatLoss()
    for d in (0.0, 0.1, 1.0, 1000.0):
        assert model.loss_db(d) == 0.0
        assert model.gain(d) == 1.0


def test_log_distance_reference_point():
    model = LogDistancePathLoss(exponent=2.0, reference_loss_db=40.0)
    assert model.loss_db(1.0) == pytest.approx(40.0)
    # +20 dB per decade at exponent 2
    assert model.loss_db(10.0) == pytest.approx(60.0)
    assert model.gain(1.0) == pytest.approx(1e-4)


def test_log_distance_clamps_below_reference():
    model = LogDistancePathLoss(exponent=3.0)
    assert model.loss_db(0.0) == model.loss_db(model.reference_distance_m)
    assert model.gain(0.01) == model.gain(1.0)


def test_log_distance_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        LogDistancePathLoss(exponent=0.0)
    with pytest.raises(ConfigError):
        LogDistancePathLoss(reference_loss_db=-1.0)
    with pytest.raises(ConfigError):
        LogDistancePathLoss(reference_distance_m=0.0)


# ----------------------------------------------------------------------
# Units: mobility
# ----------------------------------------------------------------------

def test_waypoint_mobility_walks_and_parks():
    mobility = WaypointMobility(speed_mps=2.0)
    mobility.set_route("walker", [(0.0, 0.0), (10.0, 0.0)])
    assert mobility.position_at("walker", 0.0) == Position(0.0, 0.0)
    assert mobility.position_at("walker", 2.5) == Position(5.0, 0.0)
    # parks at the final waypoint forever
    assert mobility.position_at("walker", 100.0) == Position(10.0, 0.0)
    assert mobility.position_at("stranger", 1.0) is None


def test_waypoint_mobility_rejects_empty_route():
    with pytest.raises(ConfigError):
        WaypointMobility().set_route("k", [])


def test_topology_advance_moves_on_cadence_epochs():
    mobility = WaypointMobility(speed_mps=1.0)
    mobility.set_route("m", [(0.0, 0.0), (100.0, 0.0)])
    topology = Topology(mobility=mobility, cadence_slots=64)
    topology.place("m", (0.0, 0.0))
    topology.place("rx", (0.0, 1.0))
    window_ns = 64 * units.SLOT_NS
    topology.advance_to(0)
    assert topology.position_of("m") == Position(0.0, 0.0)
    # within the same epoch: position is frozen
    topology.advance_to(window_ns - 1)
    assert topology.position_of("m") == Position(0.0, 0.0)
    # next epoch: the walker has covered one window of travel
    topology.advance_to(window_ns)
    moved = topology.position_of("m")
    assert moved is not None and moved.x == pytest.approx(window_ns / 1e9)
    # the gain cache was invalidated by the move
    d = topology.distance("m", "rx")
    assert topology.gain("m", "rx") == pytest.approx(topology.model.gain(d))


# ----------------------------------------------------------------------
# Units: topology registry
# ----------------------------------------------------------------------

def test_topology_unplaced_keys_see_unit_gain():
    topology = Topology()
    topology.place("a", (0.0, 0.0))
    assert topology.gain("a", "ghost") == 1.0
    assert topology.gain("ghost", "a") == 1.0
    assert topology.gain(None, "a") == 1.0
    assert topology.distance("a", "ghost") is None


def test_topology_gain_matches_model_and_reacts_to_moves():
    topology = Topology(model=LogDistancePathLoss(exponent=2.0))
    topology.place("a", (0.0, 0.0))
    topology.place("b", (10.0, 0.0))
    assert topology.gain("a", "b") == pytest.approx(1e-6)
    topology.place("b", (1.0, 0.0))  # move: cache must not serve stale gain
    assert topology.gain("a", "b") == pytest.approx(1e-4)


def test_topology_gain_from_free_position():
    topology = Topology(model=LogDistancePathLoss(exponent=2.0))
    topology.place("rx", (0.0, 0.0))
    assert topology.gain_from(Position(10.0, 0.0), "rx") == pytest.approx(1e-6)
    assert topology.gain_from(None, "rx") == 1.0
    assert topology.gain_from(Position(0.0, 0.0), "unplaced") == 1.0


def test_topology_snapshot_is_dense_and_cached():
    topology = Topology(model=LogDistancePathLoss(exponent=2.0))
    keys = ["a", "b", "c"]
    topology.place_all(keys, [(0.0, 0.0), (1.0, 0.0), (10.0, 0.0)])
    matrix = topology.snapshot(keys)
    assert [row[i] for i, row in enumerate(matrix)] == [1.0, 1.0, 1.0]
    assert matrix[0][2] == pytest.approx(1e-6)
    assert matrix[0][1] == topology.gain("a", "b")


def test_topology_flat_model_is_not_spatial():
    assert not Topology(model=FlatLoss()).is_spatial
    assert Topology().is_spatial


def test_topology_rejects_bad_cadence():
    with pytest.raises(ConfigError):
        Topology(cadence_slots=0)


# ----------------------------------------------------------------------
# Units: layout helpers
# ----------------------------------------------------------------------

def test_ring_layout_on_circle():
    ring = ring_layout(8, 5.0, center=(1.0, -1.0))
    assert len(ring) == 8
    for p in ring:
        assert math.hypot(p.x - 1.0, p.y + 1.0) == pytest.approx(5.0)


def test_grid_layout_pitch_and_count():
    grid = grid_layout(6, 2.0)
    assert len(grid) == 6
    assert grid[1].x - grid[0].x == pytest.approx(2.0)
    assert grid[3].y - grid[0].y == pytest.approx(2.0)


def test_uniform_disc_layout_inside_radius():
    rng = np.random.default_rng(3)
    disc = uniform_disc_layout(50, 4.0, rng)
    assert len(disc) == 50
    assert all(math.hypot(p.x, p.y) <= 4.0 + 1e-9 for p in disc)


def test_cluster_layout_centres_on_target():
    rng = np.random.default_rng(3)
    cluster = cluster_layout(200, (5.0, 5.0), 0.5, rng)
    assert len(cluster) == 200
    assert sum(p.x for p in cluster) / 200 == pytest.approx(5.0, abs=0.2)


def test_layouts_reject_nonpositive_counts():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        ring_layout(0, 1.0)
    with pytest.raises(ConfigError):
        grid_layout(0, 1.0)
    with pytest.raises(ConfigError):
        uniform_disc_layout(0, 1.0, rng)
    with pytest.raises(ConfigError):
        cluster_layout(0, (0, 0), 1.0, rng)


# ----------------------------------------------------------------------
# Placement API (README's "Spatial layer" example)
# ----------------------------------------------------------------------

def test_session_place_installs_a_log_distance_topology_keyed_by_addr():
    session = Session(seed=7)
    master = session.add_device("master")
    slave = session.add_device("slave")
    assert session.channel.topology is None
    assert session.place(master, (0.0, 0.0)) == Position(0.0, 0.0)
    topology = session.channel.topology
    assert isinstance(topology, Topology)
    assert type(topology.model) is LogDistancePathLoss
    assert topology.is_spatial
    # later calls reuse the topology; every key is the device's BD_ADDR
    session.place(slave, (1.0, 0.0))
    session.place("jammer", (3.0, 4.0))
    assert session.channel.topology is topology
    assert topology.positions() == {master.addr: Position(0.0, 0.0),
                                    slave.addr: Position(1.0, 0.0),
                                    "jammer": Position(3.0, 4.0)}
    assert master.position == Position(0.0, 0.0)
    assert slave.position == Position(1.0, 0.0)


def test_device_place_installs_the_topology_and_moves_by_addr():
    session = Session(seed=8)
    device = session.add_device("dev")
    assert device.place((2.0, 1.0)) == Position(2.0, 1.0)
    topology = session.channel.topology
    assert type(topology.model) is LogDistancePathLoss
    assert topology.position_of(device.addr) == Position(2.0, 1.0)
    device.place(Position(-1.0, 0.5))  # a move, in the same topology
    assert session.channel.topology is topology
    assert device.position == Position(-1.0, 0.5)
    assert topology.positions() == {device.addr: Position(-1.0, 0.5)}


def test_position_is_none_in_a_flat_world():
    session = Session(seed=9)
    device = session.add_device("dev")
    assert device.position is None
    assert session.channel.topology is None  # reading installs nothing
    # a topology in which the device was never placed: still None
    session.install_topology()
    assert device.position is None


def test_piconet_place_rings_the_active_slaves_in_am_addr_order():
    session = Session(seed=10)
    master = session.add_device("master")
    piconet = Piconet(master.addr, registry=session.hop_registry)
    # added out of AM_ADDR order, and one parked: the ring follows AM_ADDR
    slaves = {am_addr: BdAddr(0x100 + am_addr) for am_addr in (3, 1, 2, 4)}
    for am_addr, addr in slaves.items():
        piconet.add_slave(addr, am_addr)
    piconet.park_slave(4, ParkParams(beacon_interval_slots=100, pm_addr=1))
    topology = Topology()
    placed = piconet.place(topology, center=(5.0, 0.0), spread_m=2.0)
    ring = ring_layout(3, 2.0, (5.0, 0.0))
    expected = {master.addr: Position(5.0, 0.0),
                slaves[1]: ring[0], slaves[2]: ring[1], slaves[3]: ring[2]}
    assert placed == expected
    assert topology.positions() == expected
    for am_addr in (1, 2, 3):
        assert topology.position_of(slaves[am_addr]).distance_to(
            Position(5.0, 0.0)) == pytest.approx(2.0)


def test_readme_spatial_example_runs():
    """README's example on a paged-up pair: the placed world runs on."""
    session = Session(seed=7)
    master = session.add_device("master")
    slave = session.add_device("slave")
    assert session.run_page(master, slave).success
    topology = session.install_topology(LogDistancePathLoss(exponent=3.0))
    session.place(master, (0.0, 0.0))
    session.place(slave, (1.0, 0.0))
    placed = master.piconet.place(topology, center=(5.0, 0.0), spread_m=1.0)
    assert placed == {master.addr: Position(5.0, 0.0),
                      slave.addr: Position(6.0, 0.0)}
    assert slave.position == Position(6.0, 0.0)
    master.enqueue_data(1, b"placed", PacketType.DM1)
    session.run_slots(40)
    assert [item.payload for item in slave.rx_buffer.drain()] == [b"placed"]


# ----------------------------------------------------------------------
# Laws (Hypothesis)
# ----------------------------------------------------------------------

@given(exponent=st.floats(min_value=1.0, max_value=6.0),
       reference=st.floats(min_value=0.0, max_value=80.0),
       d1=st.floats(min_value=0.0, max_value=1000.0),
       d2=st.floats(min_value=0.0, max_value=1000.0))
@settings(max_examples=200, deadline=None)
def test_rx_power_non_increasing_in_distance(exponent, reference, d1, d2):
    """The physical law the campaign leans on: moving the receiver
    farther never raises received power."""
    model = LogDistancePathLoss(exponent=exponent, reference_loss_db=reference)
    near, far = sorted((d1, d2))
    assert model.gain(near) >= model.gain(far)
    assert 0.0 < model.gain(far) <= model.gain(0.0)


@given(ax=st.floats(min_value=-100, max_value=100),
       ay=st.floats(min_value=-100, max_value=100),
       bx=st.floats(min_value=-100, max_value=100),
       by=st.floats(min_value=-100, max_value=100),
       exponent=st.floats(min_value=1.0, max_value=6.0))
@settings(max_examples=200, deadline=None)
def test_pairwise_gain_symmetric(ax, ay, bx, by, exponent):
    """Reciprocity: the topology's link budget has no direction."""
    topology = Topology(model=LogDistancePathLoss(exponent=exponent))
    topology.place("a", (ax, ay))
    topology.place("b", (bx, by))
    assert topology.gain("a", "b") == topology.gain("b", "a")
    assert topology.distance("a", "b") == topology.distance("b", "a")


# ----------------------------------------------------------------------
# Identity contract: FlatLoss topology == no topology (golden digests)
# ----------------------------------------------------------------------

def _run_flat_topology_scenario(engine: str, kwargs: dict,
                                slots: int) -> tuple:
    """The golden campaign scenario with a FlatLoss topology installed
    and every device *placed* — the placements must be inert."""
    with kernel(engine):
        session, pairs = build_campaign_session(**kwargs)
    topology = session.install_topology(FlatLoss())
    for index, (master, slave) in enumerate(pairs):
        topology.place(master.addr, (5.0 * index, 0.0))
        topology.place(slave.addr, (5.0 * index, 123.0))  # absurdly far
    session.run_slots(slots)
    return _outcome(session, pairs), session.slot_engine.windows_absorbed


@pytest.mark.parametrize("engine", ["object", "soa"])
@pytest.mark.parametrize("name,kwargs,slots,golden", [
    ("statistical", dict(n_piconets=3, seed=97), 800, GOLDEN_STAT),
    ("bit_accurate", dict(n_piconets=2, seed=53, ber=0.002,
                          bit_accurate=True), 400, GOLDEN_BIT),
])
def test_flat_topology_matches_no_topology_golden(engine, name, kwargs,
                                                  slots, golden):
    outcome, absorbed = _run_flat_topology_scenario(engine, kwargs, slots)
    assert _digest(outcome) == golden, \
        f"{name}/{engine}: a FlatLoss topology changed the physics"
    assert (absorbed > 0) == (engine == "soa")


# ----------------------------------------------------------------------
# Spatial worlds: engine equivalence and physical sanity
# ----------------------------------------------------------------------

def _run_spatial_world(engine: str, radius_m: float) -> tuple:
    with kernel(engine):
        session, pairs = build_spatial_session(3, radius_m, seed=97,
                                               capture=True)
    session.run_slots(600)
    return (_outcome(session, pairs), session.capture.events(),
            session.slot_engine.windows_absorbed)


@pytest.mark.parametrize("radius_m", [0.5, 2.0])
def test_soa_equivalent_on_spatial_world(radius_m):
    """A genuinely spatial world (log-distance gains, per-pair capture
    decisions) must be byte-identical across engines — outcomes and
    capture stream record for record — and non-vacuously absorbed."""
    obj_outcome, obj_events, _ = _run_spatial_world("object", radius_m)
    soa_outcome, soa_events, absorbed = _run_spatial_world("soa", radius_m)
    assert soa_outcome == obj_outcome
    assert soa_events == obj_events
    assert absorbed > 0


def test_spacing_out_interferers_improves_delivery():
    """Physical sanity at the campaign's scale: the same piconets spread
    over a 50 m ring deliver at least as much on every link — and
    strictly more in aggregate — than crammed onto a 0.5 m ring."""
    near_session, near_pairs = build_spatial_session(3, 0.5, seed=97)
    near_session.run_slots(800)
    far_session, far_pairs = build_spatial_session(3, 50.0, seed=97)
    far_session.run_slots(800)
    near = [slave.rx_buffer.total_bytes for _, slave in near_pairs]
    far = [slave.rx_buffer.total_bytes for _, slave in far_pairs]
    assert all(f >= n for f, n in zip(far, near))
    assert sum(far) > sum(near)


def test_mobility_declines_soa_absorption_but_stays_equivalent():
    """A mobile world must fall back to the object kernel (positions can
    change mid-window) and still produce object-kernel outcomes."""
    def build(engine):
        mobility = WaypointMobility(speed_mps=5.0)
        config = dataclasses.replace(
            paper_config(seed=11, t_poll_slots=4000),
            sir=SirConfig(capture_threshold_db=10.0))
        with kernel(engine):
            session = Session(config=config)
        pairs = [page_up_pair(session, index, label="mobility")
                 for index in range(2)]
        topology = session.install_topology(
            LogDistancePathLoss(exponent=3.0), mobility=mobility)
        topology.place(pairs[0][0].addr, (0.0, 0.0))
        topology.place(pairs[0][1].addr, (1.0, 0.0))
        topology.place(pairs[1][0].addr, (0.0, 1.5))
        topology.place(pairs[1][1].addr, (1.0, 1.5))
        # the second master wanders away from the observed pair
        mobility.set_route(pairs[1][0].addr, [(0.0, 1.5), (0.0, 40.0)])
        for master, _ in pairs:
            SaturatedTraffic(master, 1).start()
        session.run_slots(600)
        return _outcome(session, pairs), session.slot_engine.windows_absorbed

    obj_outcome, _ = build("object")
    soa_outcome, absorbed = build("soa")
    assert soa_outcome == obj_outcome
    assert absorbed == 0  # mobile worlds must decline the micro-kernel
