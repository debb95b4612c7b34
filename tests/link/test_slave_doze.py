"""A connection slave that dozes through the listen windows its sleeping
master cannot reach leaves the world as listening in them would.

Each fig10-, fig11- and fig12-shaped world (a pair paged up at BER 0 whose
master polls rarely and sleeps in between) runs twice: as built, and as an
observed twin in which both enable signals of every radio have a
subscriber from the start, so no slave dozes.  The host drives both
through the same steps: ``run_until`` chunks that end anywhere, runs to a
point inside or just past one of the slave's windows, reads of signals
(also in the delta after a window's edge), enqueues, a probe attached
mid-run, direct calls of the slave's ``enter_hold``, ``enter_sniff``,
``exit_sniff`` and ``stop`` and of its device's ``stop_procedure``, and a
third device that joins the world, sends a packet into one of the
slave's windows or starts an inquiry.  Every read and probe notification,
the outcomes, the counters, the master's RF activity and every radio's
settled signals must agree.  The unobserved twin runs with the slot
engine attached and detached.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.api import Session
from repro.baseband.packets import Packet, PacketType
from repro.experiments.common import paper_config
from repro.link.connection import ConnectionSlave
from repro.link.page import PageTarget
from repro.link.piconet import HoldParams, SniffParams
from repro.link.traffic import DutyCycleTraffic, PeriodicTraffic
from repro.power.rf_activity import RfActivityProbe

from tests.kernels import kernel

PAIR_NS = units.SLOT_PAIR_NS
#: the keep-alive poll interval of each shape (slots)
T_POLL = {"fig10": 4000, "fig11": 4000, "fig12": 100}


def observe(devices) -> None:
    for device in devices:
        device.rf.enable_tx.subscribe(lambda old, new: None)
        device.rf.enable_rx.subscribe(lambda old, new: None)


def radio_state(session: Session) -> list[tuple]:
    return [(signal.name, signal.value, signal.last_change_ns)
            for device in session.devices
            for signal in (device.rf.enable_tx, device.rf.enable_rx)]


class World:
    """One world of a twin pair: ``master`` polls ``slave``; the master's
    RF activity is probed in the fig10 and fig11 shapes."""

    def __init__(self, shape: str, seed: int, observed: bool,
                 engine: str = "soa"):
        with kernel(engine):
            self.session = session = Session(config=paper_config(
                ber=0.0, seed=seed, t_poll_slots=T_POLL[shape]))
        self.observed = observed
        self.master = master = session.add_device("master")
        self.slave = slave = session.add_device("slave")
        if observed:
            observe(session.devices)
        slave.start_page_scan()
        box = []
        master.start_page(PageTarget(addr=slave.addr,
                                     clock_estimate=slave.clock),
                          on_complete=box.append)
        while not box:
            session.run_slots(16)
        assert box[0].success
        self.handler = slave.connection_slave
        self.probe = None
        if shape == "fig10":
            DutyCycleTraffic(master, 1, duty=0.02, ptype=PacketType.DM1,
                             payload_len=17).start()
        elif shape == "fig11":
            PeriodicTraffic(master, 1, period_slots=100,
                            ptype=PacketType.DM1, payload_len=17).start()
        if shape != "fig12":
            self.probe = RfActivityProbe(master)
        self.log: list = []

    # -- host steps ---------------------------------------------------------

    def run(self, ns: int) -> None:
        self.session.run_until(self.session.sim.now + ns)

    def _next_window(self) -> int:
        return self.handler.clock.next_tick_time(self.session.sim.now, 4, 0)

    def window(self, offset_ns: int) -> None:
        """Run to ``offset_ns`` past the opening of the slave's next
        window, and read its receiver there."""
        self.session.run_until(self._next_window() + offset_ns)
        self.read(1)

    def edge(self, spec: tuple) -> None:
        """In the delta after the opening (``close`` False) or the close
        of the slave's next window, read its receiver or attach a probe
        to it."""
        close, action = spec
        sim = self.session.sim
        at = self._next_window() + (self.handler._listen_ns if close else 0)
        act = (lambda: self.read(1)) if action == "read" \
            else (lambda: self.probe_slave(1))
        sim.schedule_abs(at, lambda: sim.schedule_delta(act))
        self.session.run_until(at + 1)

    def read(self, index: int) -> None:
        device = (self.master, self.slave)[index & 1]
        signal = device.rf.enable_rx if index < 2 else device.rf.enable_tx
        self.log.append(("read", self.session.sim.now, signal.name,
                         signal.value, signal.last_change_ns,
                         self.session.channel.transmissions))

    def enqueue(self, ptype: str) -> None:
        self.master.enqueue_data(1, b"payload", PacketType[ptype])

    def probe_slave(self, index: int) -> None:
        rf = self.slave.rf
        signal = rf.enable_rx if index else rf.enable_tx
        sim = self.session.sim
        signal.subscribe(lambda old, new: self.log.append(
            ("probe", sim.now, sim.delta, signal.name, old, new)))

    def mode(self, name: str) -> None:
        handler = self.handler
        if name == "enter_hold":
            handler.enter_hold(HoldParams(hold_slots=60))
        elif name == "enter_sniff":
            handler.enter_sniff(SniffParams(t_sniff_slots=40))
        else:
            getattr(handler, name)()

    def _third(self):
        session = self.session
        if len(session.devices) == 2:
            device = session.add_device("third")
            if self.observed:
                observe([device])
        return session.devices[2]

    def third(self) -> None:
        device = self._third()
        if device.active_handler is None:
            if device.rf.tx_busy:  # let the packet it sent end first
                self.session.run_until(device.rf.tx_until_ns)
            device.start_inquiry(timeout_slots=600)

    def inject(self, offset_ns: int) -> None:
        """The third device sends a broadcast NULL under the master's
        access code, ``offset_ns`` into the slave's next window, on that
        window's frequency."""
        device = self._third()
        handler = self.handler
        at = self._next_window()
        freq = handler.selector.connection(handler.clock.clk(at))
        self.session.run_until(at + offset_ns)
        master = self.master.addr
        if not device.rf.tx_busy and device.active_handler is None:
            device.rf.transmit(freq, Packet(ptype=PacketType.NULL,
                                            lap=master.lap), uap=master.uap)

    def stop_procedure(self) -> None:
        self.slave.stop_procedure()

    def finish(self) -> tuple:
        session = self.session
        self.run(300 * units.SLOT_NS)
        master = self.master.connection_master
        handler = self.handler
        sample = None if self.probe is None else self.probe.sample()
        return (self.log, session.sim.now, session.channel.transmissions,
                session.channel.collisions,
                master.stats_tx_packets, master.stats_rx_packets,
                handler.stats_tx_packets, handler.stats_rx_packets,
                handler.mode, self.slave.rx_buffer.total_received,
                self.master.rx_buffer.total_received,
                sample, radio_state(session))


def twins(shape, seed, steps, engine="soa") -> tuple:
    outcomes = []
    for observed in (False, True):
        world = World(shape, seed, observed, engine)
        for step, argument in steps:
            if step == "probe":
                world.probe_slave(argument)
            elif argument is None:
                getattr(world, step)()
            else:
                getattr(world, step)(argument)
        outcomes.append(world.finish())
    return tuple(outcomes)


def assert_twins(shape, seed, steps, engine="soa") -> None:
    dozing, observed = twins(shape, seed, steps, engine)
    assert dozing == observed


host_step = st.one_of(
    st.tuples(st.just("run"), st.integers(1, 400 * units.SLOT_NS)),
    st.tuples(st.just("run"), st.integers(1, PAIR_NS)),
    st.tuples(st.just("window"), st.integers(0, 40_000)),
    st.tuples(st.just("read"), st.integers(0, 3)),
    st.tuples(st.just("enqueue"), st.sampled_from(["DM1", "DH3", "DM5"])),
    st.tuples(st.just("probe"), st.integers(0, 1)),
    st.tuples(st.just("mode"), st.sampled_from(
        ["enter_hold", "enter_sniff", "exit_sniff", "stop"])),
    st.tuples(st.just("third"), st.none()),
    st.tuples(st.just("inject"), st.integers(0, 40_000)),
    st.tuples(st.just("edge"), st.tuples(st.booleans(),
                                         st.sampled_from(["read", "probe"]))),
    st.tuples(st.just("stop_procedure"), st.none()),
)


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(sorted(T_POLL)),
       engine=st.sampled_from(["object", "soa"]),
       seed=st.integers(0, 10_000),
       steps=st.lists(host_step, max_size=12))
def test_host_steps_match_the_observed_twin(shape, engine, seed, steps):
    assert_twins(shape, seed, steps, engine)


# -- named edge cases ---------------------------------------------------------

@pytest.mark.parametrize("engine", ["object", "soa"])
@pytest.mark.parametrize("shape", sorted(T_POLL))
def test_unobserved_slave_dozes_and_matches_its_twin(shape, engine,
                                                    monkeypatch):
    """Without host steps the slave dozes through most pairs: it opens far
    fewer windows than its observed twin, which listens at every pair."""
    opened = {}
    listen = ConnectionSlave.listen
    for observed in (False, True):
        world = World(shape, 5, observed, engine)
        calls = []

        def counted(self, calls=calls):
            calls.append(self)
            return listen(self)

        monkeypatch.setattr(ConnectionSlave, "listen", counted)
        world.run(4000 * units.SLOT_NS)
        monkeypatch.setattr(ConnectionSlave, "listen", listen)
        opened[observed] = len(calls)
    assert opened[True] == 2000
    assert opened[False] < opened[True] // 4
    assert_twins(shape, 5, [("run", 4000 * units.SLOT_NS)], engine)


@pytest.mark.parametrize("offset_ns", [0, 1, 32_499, 32_500, 32_501, 40_000])
def test_reads_at_window_edges(offset_ns):
    """Reads at a window's opening (its event not run yet), inside it, at
    its close and past it, with a long doze before."""
    assert_twins("fig12", 7, [("run", 60 * units.SLOT_NS),
                              ("window", offset_ns), ("read", 3),
                              ("window", offset_ns), ("probe", 1),
                              ("run", 90 * units.SLOT_NS)])


@pytest.mark.parametrize("close", [False, True])
@pytest.mark.parametrize("action", ["read", "probe"])
def test_later_delta_of_a_window_edge(close, action):
    """A read or a probe in the delta after a dozed window's edge sees
    the edge's write committed."""
    assert_twins("fig12", 13, [("run", 70 * units.SLOT_NS),
                               ("edge", (close, action)), ("read", 1),
                               ("run", 90 * units.SLOT_NS)])


@pytest.mark.parametrize("step", [("mode", "stop"), ("mode", "enter_hold"),
                                  ("mode", "enter_sniff"), ("third", None),
                                  ("probe", 0), ("enqueue", "DM5"),
                                  ("stop_procedure", None)])
@pytest.mark.parametrize("offset_ns", [0, 20_000, 32_500])
def test_steps_inside_a_dozed_window(step, offset_ns):
    """Each kind of wake-up lands on a window's opening, inside it, or on
    its close; the receiver is read just after it."""
    assert_twins("fig12", 11, [("run", 70 * units.SLOT_NS),
                               ("window", offset_ns), step, ("run", 1),
                               ("read", 1), ("run", 200 * units.SLOT_NS)])


@pytest.mark.parametrize("offset_ns", [0, 1, 20_000, 32_499, 32_500])
def test_a_packet_sent_into_a_dozed_window(offset_ns):
    """A third radio sends into one of the slave's dozed windows: the
    slave hears it when the window is open at its start."""
    dozing, observed = twins("fig12", 17, [("run", 70 * units.SLOT_NS),
                                           ("inject", offset_ns)])
    assert dozing == observed
    heard = dozing[7]  # the slave's received packets
    reference = twins("fig12", 17, [("run", 70 * units.SLOT_NS)])[1][7]
    assert heard == reference + (1 if offset_ns < 32_500 else 0)


@pytest.mark.parametrize("engine", ["object", "soa"])
def test_no_doze_while_a_reply_is_due(engine):
    """A short DM5 asks for a reply five slots after it: the slave may
    not doze while that reply is still to go out (found by a twin search
    while the master still sent such a packet again at the next pair; the
    slot engine used to fail on the reply's wake-up)."""
    assert_twins("fig12", 1, [("enqueue", "DM5"), ("enqueue", "DM1")],
                 engine)


def _fellow_inquires(seed: int, observed: bool) -> tuple:
    session = Session(config=paper_config(ber=0.0, seed=seed,
                                          t_poll_slots=100))
    master = session.add_device("master")
    leaver = session.add_device("leaver")
    stayer = session.add_device("stayer")
    if observed:
        observe(session.devices)
    session.build_piconet(master, [leaver, stayer])
    session.run_slots(77)
    leaver.detach()
    results = []
    leaver.start_inquiry(timeout_slots=800, on_complete=results.append)
    session.run_slots(900)
    return (results[0].id_transmissions, session.sim.now,
            session.channel.transmissions, session.channel.collisions,
            stayer.connection_slave.stats_rx_packets, radio_state(session))


@pytest.mark.parametrize("seed", range(6))
def test_a_fellow_slave_leaves_and_inquires_beside_a_dozing_slave(seed):
    """One of two slaves leaves the piconet and starts an inquiry while the
    other dozes: the dozing slave wakes as the train starts, so the train
    sleeps only through IDs its windows cannot hear."""
    assert _fellow_inquires(seed, False) == _fellow_inquires(seed, True)


def _train_beside_a_dozing_slave(observed: bool) -> tuple:
    session = Session(config=paper_config(ber=0.0, seed=21,
                                          t_poll_slots=4000))
    master = session.add_device("master")
    slave = session.add_device("slave")
    if observed:
        observe(session.devices)
    assert session.run_page(master, slave).success
    session.run_slots(300)
    third = session.add_device("third")
    if observed:
        observe([third])
    # put the third device's even slots 10 us into the slave's windows
    window = slave.connection_slave.clock.next_tick_time(session.sim.now,
                                                         4, 0)
    at = window + 10_000
    clock = third.clock
    base = -at % units.TICK_NS
    clock.phase_ns = next(
        base + k * units.TICK_NS for k in range(4)
        if ((at + base + k * units.TICK_NS) // units.TICK_NS
            + clock.offset_ticks) % 4 == 0)
    syncs = []
    on_sync = ConnectionSlave.on_sync

    def spy(handler, tx, matched):
        syncs.append((session.sim.now, tx.freq, matched))
        return on_sync(handler, tx, matched)

    ConnectionSlave.on_sync = spy
    try:
        third.start_inquiry(timeout_slots=2000)
        session.run_slots(2100)
    finally:
        ConnectionSlave.on_sync = on_sync
    return syncs, session.channel.transmissions, radio_state(session)


def test_a_train_starting_beside_a_dozing_slave():
    """A third device whose even slots start 10 us into the dozing slave's
    windows starts an inquiry: the slave wakes as the train starts, so the
    train does not sleep through the IDs its windows hear."""
    dozing = _train_beside_a_dozing_slave(False)
    observed = _train_beside_a_dozing_slave(True)
    assert dozing == observed
    assert dozing[0]  # the slave's windows hear some of the IDs
