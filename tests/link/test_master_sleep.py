"""The master's slot loop sleeps through pairs at which its polling policy
cannot act, and every change that can make the policy act earlier wakes it.

The reference for "nothing was skipped" is the same world with a policy
that keeps the per-pair wake-up (:meth:`PollingPolicy.next_due`'s
default): both must put the same packets on the air at the same instants.
The worlds run on the object kernel alone (slot engine detached): the
tests spy on its handlers, which an absorbed window never calls.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import units
from repro.api import Session
from repro.baseband.address import BdAddr
from repro.baseband.packets import PacketType
from repro.config import SimulationConfig
from repro.link.buffers import OutboundData
from repro.link.connection import ConnectionMaster
from repro.link.hold import HoldSchedule
from repro.link.piconet import HoldParams, ParkParams, Piconet, SniffParams
from repro.link.polling import PollingPolicy, RoundRobinPolicy
from repro.link.states import ConnectionMode
from repro.link.traffic import PeriodicTraffic

from tests.kernels import detach

PAIR_NS = units.SLOT_PAIR_NS


class EveryPairPolicy(RoundRobinPolicy):
    """Round-robin choices with the per-pair wake-up of the base class."""

    next_due = PollingPolicy.next_due


def _session(seed, **link):
    config = SimulationConfig(seed=seed).with_ber(0.0)
    if link:
        config = dataclasses.replace(
            config, link=dataclasses.replace(config.link, **link))
    return detach(Session(config=config))


def _connected(seed=71, policy=None, **link):
    session = _session(seed, **link)
    master = session.add_device("master")
    slave = session.add_device("slave")
    assert session.run_page(master, slave).success
    if policy is not None:
        master.connection_master.policy = policy
    return session, master, slave


def _spy_transmits(device):
    """Record ``(time_ns, purpose)`` of every packet ``device`` sends."""
    sent = []
    transmit = device.rf.transmit

    def spy(freq, packet, uap=0, meta=None, power_dbm=0.0):
        sent.append((device.sim.now, meta.purpose if meta else None))
        return transmit(freq, packet, uap=uap, meta=meta, power_dbm=power_dbm)

    device.rf.transmit = spy
    return sent


def _spy_rx_off(device):
    """Record the instants ``device`` powers its receiver down."""
    closed = []
    rx_off = device.rf.rx_off

    def spy():
        closed.append(device.sim.now)
        rx_off()

    device.rf.rx_off = spy
    return closed


def _count_even_slots(master_side):
    """Count the slot-loop events the master dispatches from now on."""
    calls = []
    even_slot = master_side._even_slot

    def counted():
        calls.append(master_side.device.sim.now)
        even_slot()

    master_side._even_slot = counted
    return calls


def _boundary(device, pair):
    return device.clock.time_at_tick(4 * pair)


def _sleep(session, master):
    """Run the object kernel until the idle master's pending wake-up lies
    beyond the next pair, i.e. it sleeps (an absorbed SoA window steps
    every pair)."""
    side = master.connection_master
    for _ in range(64):
        session.sim.run(until_ns=session.sim.now + 2 * units.SLOT_NS)
        event = side._wake_event
        if event.pending and event.time_ns > session.sim.now + PAIR_NS:
            return event.time_ns
    raise AssertionError("the idle master never went to sleep")


# -- next_due never skips an action -------------------------------------------

_slave_state = st.fixed_dictionaries({
    "mode": st.sampled_from(["active", "sniff", "hold_before", "hold_inside",
                             "hold_after", "resync"]),
    "t_sniff": st.integers(min_value=1, max_value=60),
    "n_attempt": st.integers(min_value=1, max_value=4),
    "d_sniff": st.integers(min_value=0, max_value=59),
    "hold_len": st.integers(min_value=1, max_value=80),
    "hold_offset": st.integers(min_value=1, max_value=80),
    "last_poll": st.integers(min_value=-200, max_value=0),
    "queued": st.booleans(),
    "also_resync": st.booleans(),
})


def _bare_master(t_poll_slots, resync_slots):
    config = SimulationConfig(seed=3)
    config = dataclasses.replace(config, link=dataclasses.replace(
        config.link, t_poll_slots=t_poll_slots,
        hold_resync_poll_slots=resync_slots))
    session = detach(Session(config=config))
    device = session.add_device("m")
    device.piconet = Piconet(device.addr, registry=device.hop_registry)
    return device, ConnectionMaster(device, device.piconet)


def _apply(master, device, am_addr, spec, pair):
    link = device.piconet.add_slave(BdAddr(0x1000 + am_addr), am_addr)
    link.last_poll_slot = pair + spec["last_poll"]
    if spec["queued"]:
        device.tx_buffer_for(am_addr).load(OutboundData(
            payload=b"x", ptype=PacketType.DM1, enqueued_ns=0))
    mode = spec["mode"]
    if mode == "sniff":
        t_sniff = spec["t_sniff"]
        link.mode = ConnectionMode.SNIFF
        link.sniff = SniffParams(t_sniff_slots=t_sniff,
                                 n_attempt_slots=min(spec["n_attempt"], t_sniff),
                                 d_sniff_slots=spec["d_sniff"] % t_sniff)
    elif mode.startswith("hold"):
        start = {"hold_before": pair + spec["hold_offset"],
                 "hold_inside": pair - spec["hold_offset"] // 2,
                 "hold_after": pair - spec["hold_offset"] - spec["hold_len"],
                 }[mode]
        link.mode = ConnectionMode.HOLD
        master.hold_schedules[am_addr] = HoldSchedule(
            start_slot=start, end_slot=start + spec["hold_len"])
        if spec["also_resync"]:
            master._resync_needed.add(am_addr)
    elif mode == "resync":
        link.mode = ConnectionMode.HOLD
        master._resync_needed.add(am_addr)


def _hold_state(master):
    return ({am: (s.start_slot, s.end_slot)
             for am, s in master.hold_schedules.items()},
            set(master._resync_needed))


def _spec(mode, **fields):
    spec = {"mode": mode, "t_sniff": 10, "n_attempt": 1, "d_sniff": 3,
            "hold_len": 30, "hold_offset": 10, "last_poll": -5,
            "queued": False, "also_resync": False}
    spec.update(fields)
    return spec


@settings(max_examples=300, deadline=None)
@given(slaves=st.lists(_slave_state, min_size=1, max_size=3),
       pair=st.integers(min_value=0, max_value=10_000),
       t_poll_slots=st.integers(min_value=2, max_value=400),
       resync_slots=st.integers(min_value=2, max_value=40),
       beacon=st.one_of(st.none(), st.integers(min_value=1, max_value=200)))
# a T_poll deadline inside a hold that has not begun waits for its end
@example(slaves=[_spec("hold_before")], pair=1000, t_poll_slots=40,
         resync_slots=6, beacon=None)
# queued data for a sniffing slave waits for its attempt window
@example(slaves=[_spec("sniff", queued=True)], pair=1000, t_poll_slots=400,
         resync_slots=6, beacon=None)
# a hold past its window is expired at once; a resync poll rides its grid
@example(slaves=[_spec("hold_after"), _spec("resync", last_poll=-300)],
         pair=1001, t_poll_slots=40, resync_slots=8, beacon=7)
def test_next_due_skips_no_action(slaves, pair, t_poll_slots, resync_slots,
                                  beacon):
    device, master = _bare_master(t_poll_slots, resync_slots)
    for am_addr, spec in enumerate(slaves, start=1):
        _apply(master, device, am_addr, spec, pair)
    master._beacon_interval_pairs = beacon
    policy = master.policy
    due = policy.next_due(master, pair)
    assert due is not None and due >= pair
    for x in range(pair, due):
        before = _hold_state(master)
        master._expire_holds(x)
        assert _hold_state(master) == before, f"hold bookkeeping due at {x}"
        assert policy.choose(master, x) is None, f"action skipped at {x}"
    # and next_due is tight: something happens at the pair it names
    before = _hold_state(master)
    master._expire_holds(due)
    assert _hold_state(master) != before or policy.choose(master, due) is not None


def test_exhaustive_and_base_policies_wake_every_pair():
    device, master = _bare_master(4000, 6)
    device.piconet.add_slave(BdAddr(0x1001), 1)
    assert PollingPolicy().next_due(master, 17) == 17
    assert RoundRobinPolicy().next_due(master, 17) == 17  # never polled yet


# -- sleeping is invisible on air ---------------------------------------------

def _drive_modes(session, master, slave):
    """A schedule of data and mode changes, applied at mid-pair instants."""
    side = master.connection_master
    slave_side = slave.connection_slave
    sim = session.sim
    steps = [
        (37, lambda: master.enqueue_data(1, b"a" * 9, PacketType.DM1)),
        (190, lambda: (side.set_sniff(1, SniffParams(t_sniff_slots=40)),
                       slave_side.enter_sniff(SniffParams(t_sniff_slots=40)))),
        (333, lambda: master.enqueue_data(1, b"b" * 9, PacketType.DM1)),
        (610, lambda: (side.exit_sniff(1), slave_side.exit_sniff())),
        (700, lambda: (side.set_hold(1, HoldParams(hold_slots=150)),
                       slave_side.enter_hold(HoldParams(hold_slots=150)))),
        (760, lambda: master.enqueue_data(1, b"c" * 9, PacketType.DM1)),
        (1100, lambda: master.enqueue_data(1, b"d" * 9, PacketType.DM3)),
    ]
    start = sim.now
    for slot, action in steps:
        sim.schedule_abs(start + slot * units.SLOT_NS + 101, action)
    session.run_slots(1600)


def _drive_jammed_multislot(session, master, slave):
    """Short three-slot packets, whose reply window opens after the next
    pair, with half the channels jammed: corrupted replies fail sync and
    leave the master's receiver open until its slot loop closes it."""
    session.channel.add_static_interferer(range(0, 79, 2))
    PeriodicTraffic(master, 1, period_slots=30, ptype=PacketType.DM3,
                    payload_len=9).start()
    session.run_slots(1600)


@pytest.mark.parametrize("drive", [_drive_modes, _drive_jammed_multislot],
                         ids=["modes", "jammed_multislot"])
def test_sleeping_master_matches_a_per_pair_master(drive):
    logs = []
    for policy in (RoundRobinPolicy(), EveryPairPolicy()):
        session, master, slave = _connected(seed=72, policy=policy,
                                            t_poll_slots=200)
        sent = _spy_transmits(master)
        closed = _spy_rx_off(master)
        calls = _count_even_slots(master.connection_master)
        drive(session, master, slave)
        logs.append((sent, closed, [i.payload for i in slave.rx_buffer.drain()],
                     len(calls)))
    (sent, closed, received, wakeups), (ref_sent, ref_closed, ref_received,
                                        pairs) = logs
    assert sent == ref_sent
    assert closed == ref_closed
    assert received == ref_received and received
    assert wakeups < pairs


def test_enqueue_wakes_at_the_next_boundary():
    session, master, slave = _connected(seed=73, t_poll_slots=4000)
    side = master.connection_master
    wake_at = _sleep(session, master)
    sent = _spy_transmits(master)
    pair = side.pair_index() + 3
    enqueue_ns = _boundary(master, pair) - 777  # mid-pair
    session.sim.schedule_abs(enqueue_ns, lambda: master.enqueue_data(
        1, b"late", PacketType.DM1))
    session.run_slots(12)
    assert sent[0] == (_boundary(master, pair), "data")
    assert _boundary(master, pair) < wake_at


def test_enqueue_at_an_unserved_boundary_goes_out_at_that_instant():
    session, master, slave = _connected(seed=74, t_poll_slots=4000)
    side = master.connection_master
    _sleep(session, master)
    sent = _spy_transmits(master)
    at = _boundary(master, side.pair_index() + 5)
    session.sim.schedule_abs(at, lambda: master.enqueue_data(
        1, b"now", PacketType.DM1))
    session.run_slots(12)
    assert sent[0] == (at, "data")
    assert [i.payload for i in slave.rx_buffer.drain()] == [b"now"]


def test_enqueue_at_a_served_boundary_waits_for_the_next_pair():
    session, master, slave = _connected(seed=75, t_poll_slots=4000)
    wake_at = _sleep(session, master)  # the next keep-alive deadline
    sent = _spy_transmits(master)
    session.run_until(wake_at + 1)
    assert sent == [(wake_at, "poll")]
    # the loop, armed while it polled, serves the next pair before an
    # enqueue scheduled now for that same instant
    served = wake_at + PAIR_NS
    session.sim.schedule_abs(served, lambda: master.enqueue_data(
        1, b"next", PacketType.DM1))
    session.run_slots(8)
    assert sent[1:] == [(served + PAIR_NS, "data")]


# -- every re-arm hook wakes a sleeping master --------------------------------

def _sleeping_mid_pair(seed, prepare=None):
    """A connected pair whose master sleeps, stopped mid-pair."""
    session, master, slave = _connected(seed=seed, t_poll_slots=4000)
    side = master.connection_master
    if prepare is not None:
        prepare(side)
    _sleep(session, master)
    session.run_until(_boundary(master, side.pair_index() + 1) + 5_000)
    return side


def _assert_woken(side):
    """The pending wake-up is the next pair boundary."""
    assert side._wake_event.pending
    assert side._wake_event.time_ns == _boundary(side.device,
                                                 side.pair_index() + 1)


def _add_second_slave(side):
    side.piconet.add_slave(BdAddr(0x2002), 2)
    side.add_slave(2)


#: hook name -> (state to set up before sleeping, the re-arming call)
_HOOKS = {
    "set_sniff": (None, lambda side: side.set_sniff(1, SniffParams(t_sniff_slots=20))),
    "exit_sniff": (lambda side: side.set_sniff(1, SniffParams(t_sniff_slots=2000)),
                   lambda side: side.exit_sniff(1)),
    "set_hold": (None, lambda side: side.set_hold(1, HoldParams(hold_slots=40))),
    "park": (None, lambda side: side.park(1, ParkParams(beacon_interval_slots=100))),
    "unpark": (lambda side: side.park(1, ParkParams(beacon_interval_slots=4000,
                                                    pm_addr=3)),
               lambda side: side.unpark(3)),
    "add_slave": (None, _add_second_slave),
}


@pytest.mark.parametrize("name", sorted(_HOOKS))
def test_each_rearm_hook_wakes_a_sleeping_master(name):
    prepare, hook = _HOOKS[name]
    side = _sleeping_mid_pair(seed=76, prepare=prepare)
    hook(side)
    _assert_woken(side)


def test_wake_keeps_a_wake_up_already_at_the_next_boundary():
    side = _sleeping_mid_pair(seed=80)
    side.wake()
    first = side._wake_event
    side.wake()
    assert side._wake_event is first and first.pending


def test_paging_another_slave_leaves_one_wake_up():
    session, master, slave = _connected(seed=83, t_poll_slots=4000)
    _sleep(session, master)
    second = session.add_device("second")
    assert session.run_page(master, second).success
    assert len(_live_even_slots(session.sim)) == 1
    session.run_slots(20)
    assert len(_live_even_slots(session.sim)) == 1
    assert second.connection_slave.stats_rx_packets >= 1


# -- the idle cost -------------------------------------------------------------

def test_idle_pair_dispatches_a_handful_of_wake_ups_per_t_poll():
    session, master, slave = _connected(seed=81, t_poll_slots=4000)
    session.run_slots(20)
    calls = _count_even_slots(master.connection_master)
    polled = slave.connection_slave.stats_rx_packets
    periods = 3
    session.run_slots(4000 * periods)
    assert slave.connection_slave.stats_rx_packets - polled == periods
    assert periods <= len(calls) <= 3 * periods


# -- the SoA engine hands the wake-up back -------------------------------------

def _live_even_slots(sim):
    return [entry for entry in sim._queue._heap
            if getattr(getattr(entry[3], "callback", entry[3]), "__func__",
                       None) is ConnectionMaster._even_slot]


def test_soa_window_hands_back_the_wake_up_handle():
    session, master, slave = _connected(seed=82, t_poll_slots=4000)
    _sleep(session, master)
    session.sim._slot_engine = session.slot_engine  # attach it again
    absorbed = session.slot_engine.windows_absorbed
    session.run_slots(300)
    assert session.slot_engine.windows_absorbed == absorbed + 1
    assert len(_live_even_slots(session.sim)) == 1
    master.enqueue_data(1, b"after soa", PacketType.DM1)
    assert len(_live_even_slots(session.sim)) == 1
    session.run_slots(8)
    assert [i.payload for i in slave.rx_buffer.drain()] == [b"after soa"]
    assert len(_live_even_slots(session.sim)) == 1
