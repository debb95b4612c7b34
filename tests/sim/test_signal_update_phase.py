"""The update phase: signal writes commit between deltas, with no event.

``test_signal.py`` pins the ``sc_signal`` contract itself; these tests pin
how the kernel keeps it without a commit event per write — across run
bounds, ``stop()``, subscriber chains and radios whose ``enable_tx``
nobody watches.
"""

import pytest

from repro import Session
from repro.baseband.packets import Packet, PacketType
from repro.experiments.ext_interference import build_campaign_session
from repro.power.rf_activity import RfActivityProbe
from repro.sim.signal import Signal
from repro.sim.trace import TraceRecorder

from tests.kernels import kernel


def _campaign(engine: str):
    """The two-piconet campaign world, on the object kernel alone for
    ``"object"`` and with its slot engine attached for ``"soa"``."""
    with kernel(engine):
        session, _ = build_campaign_session(2, 97)
    return session


class TestVisibility:
    def test_write_is_invisible_until_its_delta_ends(self, sim):
        sig = Signal(sim, "s", 0)
        seen = []

        def writer():
            sig.write(1)
            sim.schedule_delta(lambda: seen.append(("next", sig.read())))

        sim.schedule(10, writer)
        sim.schedule(10, lambda: seen.append(("peer", sig.read())))
        sim.run()
        assert seen == [("peer", 0), ("next", 1)]

    def test_bounded_run_commits_before_returning(self, sim):
        sig = Signal(sim, "s", 0)
        sim.schedule(10, lambda: sig.write(1))
        sim.run(until_ns=100)
        assert sig.read() == 1
        assert sig.last_change_ns == 10
        assert sim.now == 100

    def test_bounded_run_with_events_left_commits_at_the_write_time(self, sim):
        sig = Signal(sim, "s", 0)
        sim.schedule(10, lambda: sig.write(1))
        sim.schedule(500, lambda: None)
        sim.run(until_ns=100)
        assert (sig.read(), sig.last_change_ns) == (1, 10)

    def test_write_stays_pending_across_stop(self, sim):
        sig = Signal(sim, "s", 0)
        seen = []

        def writer():
            sig.write(1)
            sim.stop()

        sim.schedule(10, writer)
        sim.schedule(10, lambda: seen.append(sig.read()))
        sim.schedule(20, lambda: seen.append(sig.read()))
        sim.run()
        assert sig.read() == 0  # the writing delta is not over yet
        sim.run()
        # the resumed run finishes the writing delta first
        assert seen == [0, 1]
        assert sig.last_change_ns == 10

    def test_write_between_runs_commits_in_the_next_run(self, sim):
        sig = Signal(sim, "s", 0)
        sim.run(until_ns=50)
        sig.write(1)
        assert sig.read() == 0
        sim.run(until_ns=60)
        assert (sig.read(), sig.last_change_ns) == (1, 50)

    def test_event_scheduled_back_at_delta_zero_precedes_the_commit(self,
                                                                   sim):
        sig = Signal(sim, "s", 0)
        seen = []

        def writer():  # runs at delta 1
            sig.write(1)
            sim.schedule(0, lambda: seen.append((sim.delta, sig.read())))
            sim.schedule_delta(lambda: seen.append((sim.delta, sig.read())))

        sim.schedule(10, lambda: sim.schedule_delta(writer))
        sim.run()
        # the delta-0 event belongs to no later delta than the write's
        assert seen == [(0, 0), (2, 1)]

    def test_max_events_leaves_the_write_pending(self, sim):
        sig = Signal(sim, "s", 0)
        sim.schedule(10, lambda: sig.write(1))
        sim.schedule(10, lambda: None)
        assert sim.run(max_events=1) == 1
        assert sig.read() == 0
        sim.run()
        assert sig.read() == 1


class TestSubscriberChains:
    def test_subscriber_writes_and_delta_calls_land_one_delta_later(self, sim):
        a = Signal(sim, "a", 0)
        b = Signal(sim, "b", 0)
        seen = []

        def on_a(old, new):
            seen.append(("a", sim.now, sim.delta))
            b.write(new)
            sim.schedule_delta(lambda: seen.append(("delta", sim.now,
                                                    sim.delta, b.read())))

        a.subscribe(on_a)
        b.subscribe(lambda old, new: seen.append(("b", sim.now, sim.delta)))
        sim.schedule(10, lambda: a.write(1))
        sim.run()
        assert seen == [("a", 10, 1), ("b", 10, 2), ("delta", 10, 2, 1)]

    def test_update_phase_commits_in_first_write_order(self, sim):
        a = Signal(sim, "a", 0)
        b = Signal(sim, "b", 0)
        order = []
        a.subscribe(lambda old, new: order.append("a"))
        b.subscribe(lambda old, new: order.append("b"))
        sim.schedule(5, lambda: (b.write(1), a.write(1), b.write(2)))
        sim.run()
        assert order == ["b", "a"]
        assert b.read() == 2


def _dh5(device):
    return Packet(ptype=PacketType.DH5, lap=device.addr.lap,
                  payload=bytes(100))


def _radio():
    session = Session(seed=1)
    return session.sim, session.add_device("d")


class TestUnobservedEnableTx:
    """A radio without an ``enable_tx`` subscriber does not write it; a
    probe or tracer attached later sees the waveform the writes would
    have made (the values below were measured with every write kept)."""

    def test_probe_attached_mid_transmission(self):
        sim, device = _radio()
        sim.schedule(1_000, lambda: device.rf.transmit(5, _dh5(device)))
        sim.run(until_ns=501_000)
        probe = RfActivityProbe(device)
        sim.run(until_ns=20_000_000)
        end = 1_000 + _dh5(device).duration_ns
        assert probe._tx.on_time_ns() == end - 501_000

    def test_probe_attached_in_the_transmitting_delta(self):
        sim, device = _radio()
        box = []
        sim.schedule(1_000, lambda: (
            device.rf.transmit(5, _dh5(device)),
            box.append(RfActivityProbe(device)),
            box.append(TraceRecorder(sim).watch(device.rf.enable_tx))))
        sim.run(until_ns=20_000_000)
        probe, traced = box
        end = 1_000 + _dh5(device).duration_ns
        assert probe._tx.on_time_ns() == _dh5(device).duration_ns
        # the rise is still pending when the tracer attaches
        assert traced.times == [1_000, 1_000, end]
        assert traced.values == [False, True, False]

    def test_probe_attached_at_the_packet_end(self):
        sim, device = _radio()
        box = []
        end = 1_000 + _dh5(device).duration_ns
        sim.schedule(end, lambda: (
            box.append(RfActivityProbe(device)),
            box.append(TraceRecorder(sim).watch(device.rf.enable_tx))))
        sim.schedule(1_000, lambda: device.rf.transmit(5, _dh5(device)))
        sim.run(until_ns=20_000_000)
        probe, traced = box
        assert probe._tx.on_time_ns() == 0
        # the fall commits when delta 0 of the end time is over
        assert (traced.times, traced.values) == ([end, end], [True, False])

    def test_tracer_attached_after_a_back_to_back_transmit(self):
        sim, device = _radio()
        box = []
        end = 1_000 + _dh5(device).duration_ns
        sim.schedule(1_000, lambda: device.rf.transmit(5, _dh5(device)))
        sim.schedule(end, lambda: (
            device.rf.transmit(6, _dh5(device)),
            box.append(TraceRecorder(sim).watch(device.rf.enable_tx))))
        sim.run(until_ns=20_000_000)
        # enable_tx never fell between the two packets
        assert box[0].times == [end, end + _dh5(device).duration_ns]
        assert box[0].values == [True, False]

    @pytest.mark.parametrize("watched", [False, True])
    def test_last_change_across_back_to_back_transmits(self, watched):
        """A packet sent in delta 0 of the previous one's end keeps
        enable_tx high from the first rise; one sent a delta later follows
        the fall, as the update phase commits it between the deltas."""
        sim, device = _radio()
        if watched:
            device.rf.enable_tx.subscribe(lambda old, new: None)
        duration = _dh5(device).duration_ns
        first_end = 1_000 + duration
        seen = []

        def read(tag):
            signal = device.rf.enable_tx
            seen.append((tag, signal.read(), signal.last_change_ns))

        def send(tag):
            device.rf.transmit(5, _dh5(device))
            read(tag)

        sim.schedule(1_000, lambda: device.rf.transmit(5, _dh5(device)))
        sim.schedule(first_end, lambda: send("delta 0"))
        second_end = first_end + duration
        sim.schedule(second_end,
                     lambda: sim.schedule_delta(lambda: send("delta 1")))
        third_end = second_end + duration
        sim.schedule(first_end + 100, lambda: read("second"))
        sim.schedule(second_end + 100, lambda: read("third"))
        sim.schedule(third_end + 100, lambda: read("off"))
        sim.run(until_ns=third_end + 50)
        read("bounded")
        sim.run(until_ns=20_000_000)
        assert seen == [
            ("delta 0", True, 1_000), ("second", True, 1_000),
            ("delta 1", False, second_end), ("third", True, second_end),
            ("bounded", False, third_end), ("off", False, third_end)]

    def test_tracer_attached_mid_transmission(self):
        sim, device = _radio()
        sim.schedule(1_000, lambda: device.rf.transmit(5, _dh5(device)))
        sim.schedule(9_000_000, lambda: device.rf.transmit(5, _dh5(device)))
        sim.run(until_ns=400_000)
        traced = TraceRecorder(sim).watch(device.rf.enable_tx)
        sim.run(until_ns=20_000_000)
        duration = _dh5(device).duration_ns
        assert traced.times == [400_000, 1_000 + duration, 9_000_000,
                                9_000_000 + duration]
        assert traced.values == [True, False, True, False]


def _queued(sim) -> set:
    names = set()
    for _t, _d, _s, callback in sim._queue._heap:
        callback = getattr(callback, "callback", callback)  # EventHandle
        callback = getattr(callback, "func", callback)
        names.add(getattr(callback, "__qualname__", repr(callback)))
    return names


def _piconet(trace: bool) -> Session:
    session = Session(seed=3, trace=trace)
    master = session.add_device("master")
    slave = session.add_device("slave")
    session.build_piconet(master, [slave])
    master.enqueue_data(1, bytes(17), PacketType.DM1)
    session.run_slots(20)
    return session


UNOBSERVED = {"Signal._commit", "RfFrontEnd._tx_done", "Channel._expire",
              "Channel._scan_listeners"}


def test_unobserved_world_queues_no_commit_tx_done_or_expire():
    session = _piconet(trace=False)
    for _ in range(2_000):
        session.sim.run(max_events=1)
        assert not _queued(session.sim) & UNOBSERVED


def test_traced_world_still_schedules_tx_done():
    session = _piconet(trace=True)
    seen = set()
    for _ in range(2_000):
        session.sim.run(max_events=1)
        seen |= _queued(session.sim)
    assert "RfFrontEnd._tx_done" in seen
    assert not seen & {"Signal._commit", "Channel._expire",
                       "Channel._scan_listeners"}


@pytest.mark.parametrize("engine", ["object", "soa"])
def test_enable_rx_follows_the_receiver_after_a_run(engine):
    """An unobserved radio skips the enable_rx writes and settles the
    signal from its receiver record, so a probe attached between runs
    starts from the right value on either kernel."""
    session = _campaign(engine)
    for slots in (40.5, 17.25, 3.1):
        session.run_slots(slots)
        assert [device.rf.enable_rx.read() for device in session.devices] \
            == [device.rf.rx_open for device in session.devices]
    if engine == "soa":
        assert session.slot_engine.windows_absorbed > 0


def test_enable_tx_settles_alike_after_soa_windows():
    """An unobserved enable_tx settles from the radio's transmissions,
    which both kernels keep through the same handlers."""
    seen = {}
    for engine in ("object", "soa"):
        session = _campaign(engine)
        seen[engine] = []
        for slots in (40.5, 17.25, 3.1, 200):
            session.run_slots(slots)
            seen[engine].append([
                (device.rf.enable_tx.read(),
                 device.rf.enable_tx.last_change_ns)
                for device in session.devices])
    assert session.slot_engine.windows_absorbed > 0
    assert seen["soa"] == seen["object"]


def test_enable_rx_settles_alike_after_soa_windows():
    """An unobserved enable_rx settles from the radio's receiver-write
    record, which both kernels keep through the same handlers."""
    seen = {}
    for engine in ("object", "soa"):
        session = _campaign(engine)
        seen[engine] = []
        for slots in (40.5, 17.25, 3.1, 200):
            session.run_slots(slots)
            seen[engine].append([
                (device.rf.enable_rx.read(),
                 device.rf.enable_rx.last_change_ns)
                for device in session.devices])
    assert session.slot_engine.windows_absorbed > 0
    assert seen["soa"] == seen["object"]
