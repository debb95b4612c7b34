"""An inquiry or page train that sleeps through the IDs nobody can hear
leaves the world as sending them would.

Each world runs twice: as built, and as an observed twin in which both
enable signals of every radio have a subscriber from the start, so no
train sleeps.  The host drives both through the same steps: ``run_until``
chunks that end mid-slot, reads of signals and counters, a probe attached
mid-run, a third device that starts a scan, a page or a connection, and
``stop()``.  Every read, the outcome, the counters and every radio's
settled signals must agree.  Named examples pin the edge cases: a
receiver opening at the instant an ID is due, a timeout between a slot's
two IDs, a train swap inside a sleep, and a spatial world with mobility.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.api import Session
from repro.experiments.common import paper_config
from repro.link.page import PageTarget
from repro.link.states import DeviceState
from repro.phy.geometry import WaypointMobility
from repro.phy.rf import RxExpect

TIMEOUT_SLOTS = 2048


def observe(session: Session) -> None:
    for device in session.devices:
        device.rf.enable_tx.subscribe(lambda old, new: None)
        device.rf.enable_rx.subscribe(lambda old, new: None)


def radio_state(session: Session) -> list[tuple]:
    return [(signal.name, signal.value, signal.last_change_ns)
            for device in session.devices
            for signal in (device.rf.enable_tx, device.rf.enable_rx)]


class World:
    """One world of a twin pair: ``a`` inquires or pages ``b``; ``c`` and
    ``d`` stand by for the host's steps."""

    def __init__(self, kind: str, ber: float, seed: int, observed: bool,
                 timeout_slots: int = TIMEOUT_SLOTS, spatial: bool = False,
                 scanner: bool = True, aligned: bool = False, **link):
        self.session = session = Session(config=paper_config(
            ber=ber, seed=seed, sync_threshold=0, **link))
        self.a, self.b = session.add_device("a"), session.add_device("b")
        # `aligned` puts c and d on a's clock grid (modulo a half slot)
        phase = self.a.clock.phase_ns if aligned else None
        self.c = session.add_device("c", clock_phase_ns=phase)
        self.d = session.add_device(
            "d", clock_phase_ns=None if phase is None
            else (phase + units.HALF_SLOT_NS) % units.SLOT_PAIR_NS)
        if spatial:
            mobility = WaypointMobility(speed_mps=40.0)
            topology = session.install_topology(mobility=mobility,
                                                cadence_slots=8)
            for index, device in enumerate(session.devices):
                topology.place(device.addr, (3.0 * index, 0.0))
            mobility.set_route(self.b.addr, [(3.0, 0.0), (60.0, 0.0)])
        if observed:
            observe(session)
        self.log: list = []
        self.results: list = []
        if kind == "inquiry":
            if scanner:
                self.b.start_inquiry_scan()
            self.procedure = self.a.start_inquiry(
                timeout_slots=timeout_slots, on_complete=self.results.append)
        else:
            if scanner:
                self.b.start_page_scan()
            self.procedure = self.a.start_page(
                PageTarget(addr=self.b.addr, clock_estimate=self.b.clock),
                timeout_slots=timeout_slots, on_complete=self.results.append)

    # -- host steps ---------------------------------------------------------

    def run(self, ns: int) -> None:
        self.session.run_until(self.session.sim.now + ns)

    def read(self, index: int) -> None:
        device = self.session.devices[index % 4]
        signal = device.rf.enable_rx if index & 4 else device.rf.enable_tx
        self.log.append(("read", self.session.sim.now, signal.name,
                         signal.value, signal.last_change_ns,
                         self.procedure.id_transmissions,
                         self.session.channel.transmissions))

    def probe(self, index: int) -> None:
        device = self.session.devices[index % 4]
        signal = device.rf.enable_rx if index & 4 else device.rf.enable_tx
        sim = self.session.sim
        signal.subscribe(lambda old, new: self.log.append(
            ("probe", sim.now, signal.name, old, new)))

    def third(self, action: str) -> None:
        c, d = self.c, self.d
        if c.state is not DeviceState.STANDBY or c.connection_master \
                or d.state is not DeviceState.STANDBY:
            return
        if action == "inquiry_scan":
            c.start_inquiry_scan()
        elif action == "page_scan":
            c.start_page_scan()
        elif action == "page":
            c.start_page(PageTarget(addr=self.b.addr,
                                    clock_estimate=self.b.clock),
                         timeout_slots=256)
        else:  # a connection: c pages d, then polls it
            d.start_page_scan()
            c.start_page(PageTarget(addr=d.addr, clock_estimate=d.clock),
                         timeout_slots=256)

    def stop(self) -> None:
        if self.a._procedure is self.procedure:
            self.a.stop_procedure()

    def finish(self) -> tuple:
        sim = self.session.sim
        guard = sim.now + (TIMEOUT_SLOTS + 64) * units.SLOT_NS
        while not self.results and sim.now < guard \
                and not self.procedure._done:
            self.run(64 * units.SLOT_NS)
        channel = self.session.channel
        outcome = [(result.success, result.duration_slots,
                    result.id_transmissions) for result in self.results]
        return (outcome, self.log, sim.now, channel.transmissions,
                channel.collisions, self.procedure.id_transmissions,
                self.procedure.koffset, self.procedure._train_tx_slots,
                radio_state(self.session))


def twins(kind, ber, seed, steps, **options) -> tuple:
    outcomes = []
    for observed in (False, True):
        world = World(kind, ber, seed, observed, **options)
        for step, argument in steps:
            if argument is None:
                getattr(world, step)()
            else:
                getattr(world, step)(argument)
        outcomes.append(world.finish())
    return tuple(outcomes)


def assert_twins(kind, ber, seed, steps, **options) -> None:
    asleep, observed = twins(kind, ber, seed, steps, **options)
    assert asleep == observed


host_step = st.one_of(
    st.tuples(st.just("run"), st.integers(1, 400 * units.SLOT_NS)),
    st.tuples(st.just("run"), st.integers(1, units.SLOT_PAIR_NS)),
    st.tuples(st.just("read"), st.integers(0, 7)),
    st.tuples(st.just("probe"), st.integers(0, 7)),
    st.tuples(st.just("third"), st.sampled_from(
        ["inquiry_scan", "page_scan", "page", "connection"])),
    st.tuples(st.just("stop"), st.none()),
)


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(["inquiry", "page"]),
       ber=st.sampled_from([0.0, 1 / 50, 1 / 30]),
       seed=st.integers(0, 10_000),
       steps=st.lists(host_step, max_size=12))
def test_host_steps_match_the_observed_twin(kind, ber, seed, steps):
    assert_twins(kind, ber, seed, steps)


# -- named edge cases ---------------------------------------------------------

class Spy:
    """A listener that records the packets its radio syncs on."""

    def __init__(self):
        self.heard = []

    def on_sync(self, tx, matched):
        self.heard.append((tx.start_ns, tx.freq, matched))
        return False

    def on_header(self, tx, header_ok, am_addr):
        return False

    def on_reception(self, reception):
        return None


def _due_id(kind: str) -> tuple[int, int]:
    """The first ID due after 300 slots of a lone train (nobody scanning),
    and its frequency, read from an awake train."""
    reference = World(kind, 0.0, 5, observed=True, scanner=False)
    reference.run(300 * units.SLOT_NS + 7)
    procedure = reference.procedure
    slot = reference.a.clock.next_tick_time(reference.session.sim.now, 4, 0)
    return slot, procedure.selector.page(procedure._train_clock.clk(slot),
                                         procedure.koffset)


@pytest.mark.parametrize("kind", ["inquiry", "page"])
def test_receiver_opening_when_an_id_is_due(kind):
    """``d`` opens a receiver on the train's frequency at the very instant
    an ID is due on it: it hears the ID in both twins."""
    slot, freq = _due_id(kind)
    outcomes = []
    for observed in (False, True):
        world = World(kind, 0.0, 5, observed, scanner=False)
        world.session.run_until(slot)
        spy = Spy()
        world.d.rf.rx_on(freq, RxExpect(world.procedure._id_packet.lap))
        world.d.rf.listener = spy
        world.run(units.SLOT_NS)
        world.d.rf.rx_off()
        assert spy.heard == [(slot, freq, True)]
        outcomes.append(world.finish())
    assert outcomes[0] == outcomes[1]


def test_timeout_between_a_slots_two_ids():
    """A 301-slot inquiry started 500 us before an even slot times out
    125 us after the first ID of its 151st slot: 301 IDs."""
    results = []
    for observed in (False, True):
        session = Session(config=paper_config(seed=3, sync_threshold=0))
        inquirer = session.add_device("inquirer")
        session.add_device("idle")
        if observed:
            observe(session)
        slot = inquirer.clock.next_tick_time(10 * units.SLOT_NS, 4, 0)
        session.run_until(slot - 500 * units.US)
        result = session.run_inquiry(inquirer, None, timeout_slots=301)
        assert result.id_transmissions == 301
        results.append((result, session.channel.transmissions,
                        radio_state(session)))
    assert results[0] == results[1]


@pytest.mark.parametrize("seed", [0, 1, 2, 4])
def test_train_swap_inside_a_sleep(seed):
    """With one repetition per train, the trains swap every 8 pairs, so
    every sleep spans swaps; a mid-sleep read and a probe attached later
    see what an awake train leaves."""
    assert_twins("inquiry", 0.0, seed,
                 [("run", 700 * units.SLOT_NS + 3), ("read", 0),
                  ("run", 333 * units.SLOT_NS), ("probe", 0),
                  ("run", 5 * units.SLOT_NS)],
                 train_repetitions=1)


def test_third_devices_on_the_train_clock_grid():
    """c pages d and polls it on a's clock grid, so their packets start at
    the instants of a's IDs; a resumed train would send after them, so a
    stays awake (found by a twin search over aligned worlds)."""
    assert_twins("page", 1 / 30, 8753,
                 [("run", 30_686_496), ("third", "connection"),
                  ("run", 148_811_365), ("read", 1)], aligned=True)


@pytest.mark.parametrize("kind", ["inquiry", "page"])
@pytest.mark.parametrize("ber", [0.0, 1 / 50])
def test_spatial_world_with_mobility(kind, ber):
    assert_twins(kind, ber, 11, [("run", 900 * units.SLOT_NS),
                                 ("read", 5), ("third", "connection")],
                 spatial=True)
