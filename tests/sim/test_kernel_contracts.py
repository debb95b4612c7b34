"""Two kernel contracts, each checked against a test-local oracle.

* Listener scans run in the update phase that ends the transmitting
  delta.  The oracle is a channel that scans through an event one delta
  later (``schedule_delta``): both must deliver the same receptions and
  record the same capture stream.
* A radio whose ``enable_rx`` nobody subscribes to keeps its receiver
  writes in a record of its own.  The oracle is an observed twin, a world
  whose radio carries a no-op subscriber from construction and so writes
  the signal: reads, ``last_change_ns`` and a probe attached at any step
  must agree.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baseband.clock import BtClock
from repro.baseband.packets import Packet, PacketType
from repro.config import SimulationConfig
from repro.phy.channel import Channel
from repro.phy.rf import RfFrontEnd, RxExpect
from repro.power.rf_activity import RfActivityProbe
from repro.sim.capture import TimelineCapture
from repro.sim.module import Module
from repro.sim.rng import RandomStreams
from repro.sim.simulator import Simulator

LAP = 0x9E8B33


class DeltaEventScans(Channel):
    """The oracle: each listener scan is an event one delta after its
    transmission."""

    def transmit(self, *args, **kwargs):
        tx = super().transmit(*args, **kwargs)
        self._unscanned.remove(tx)
        if not self._unscanned:
            self.sim._update_hooks.remove(self._scan_hook)
        self.sim.schedule_delta(partial(self._scan_listeners, tx))
        return tx


class Recorder:
    """A link-controller stand-in logging every staged delivery."""

    def __init__(self, sim, index, log):
        self._sim = sim
        self._index = index
        self._log = log

    def _tx(self, tx):
        return tx.radio.attach_index, tx.start_ns

    def on_sync(self, tx, matched):
        self._log.append(("sync", self._sim.now, self._index, self._tx(tx),
                          matched))
        return matched

    def on_header(self, tx, header_ok, am_addr):
        self._log.append(("header", self._sim.now, self._index,
                          self._tx(tx), header_ok, am_addr))
        return True

    def on_reception(self, reception):
        result = reception.result
        self._log.append(("end", self._sim.now, self._index,
                          self._tx(reception.tx), result.synced,
                          result.header_ok, result.payload_ok,
                          reception.collided))


_PACKETS = {
    "id": lambda: Packet(ptype=PacketType.ID, lap=LAP),
    "poll": lambda: Packet(ptype=PacketType.POLL, lap=LAP, am_addr=1),
    "dm1": lambda: Packet(ptype=PacketType.DM1, lap=LAP, am_addr=1,
                          payload=bytes(9)),
}

_scan_action = st.tuples(
    st.sampled_from([1_000, 1_000, 40_000, 75_000, 400_000]),  # time
    st.integers(min_value=0, max_value=3),                     # radio
    st.sampled_from(["tx", "rx_on", "rx_retune", "rx_off"]),
    st.integers(min_value=0, max_value=1),                     # channel
    st.sampled_from(sorted(_PACKETS)),
)


def _scan_world(channel_cls, carrier_sense, ber, actions):
    sim = Simulator()
    config = SimulationConfig(seed=7).with_ber(ber)
    config = dataclasses.replace(config, rf=dataclasses.replace(
        config.rf, carrier_sense=carrier_sense))
    channel = channel_cls(sim, "channel", config, RandomStreams(7))
    channel.capture = TimelineCapture()
    top = Module(sim, "top")
    log: list = []
    radios = []
    for index in range(4):
        radio = RfFrontEnd(sim, f"rf{index}", top, channel, BtClock())
        radio.listener = Recorder(sim, index, log)
        radios.append(radio)

    def act(radio, kind, freq, packet):
        if kind == "tx":
            if not radio.tx_busy:
                radio.transmit(freq, _PACKETS[packet]())
        elif kind == "rx_on":
            radio.rx_on(freq, RxExpect(LAP))
        elif kind == "rx_retune":
            radio.rx_retune(freq)
        else:
            radio.rx_off()

    for time_ns, index, kind, freq, packet in actions:
        sim.schedule_abs(time_ns, partial(act, radios[index], kind, freq,
                                          packet))
    sim.run(until_ns=2_000_000)
    stream = [event.describe() for event in channel.capture.events()]
    return log, stream, channel.transmissions, channel.collisions


@settings(max_examples=120, deadline=None)
@given(actions=st.lists(_scan_action, min_size=1, max_size=24),
       carrier_sense=st.booleans(),
       ber=st.sampled_from([0.0, 0.02]))
def test_update_phase_scans_match_delta_event_scans(actions, carrier_sense,
                                                   ber):
    assert _scan_world(Channel, carrier_sense, ber, actions) \
        == _scan_world(DeltaEventScans, carrier_sense, ber, actions)


def test_update_phase_scans_see_co_timed_retunes():
    """A receiver opened after the transmission, at the same instant, is
    still found: the scan waits for the delta to end."""
    actions = [(1_000, 0, "tx", 1, "dm1"), (1_000, 1, "rx_on", 1, "dm1")]
    log, _, _, _ = _scan_world(Channel, True, 0.0, actions)
    assert [entry[0] for entry in log] == ["sync", "header", "end"]


# -- the unobserved receiver's record -----------------------------------------

_ops = st.lists(st.tuples(st.sampled_from(["on", "off"]), st.booleans()),
                min_size=1, max_size=3)

_step = st.one_of(
    st.tuples(st.just("at"), st.sampled_from([0, 0, 10, 100, 250]), _ops,
              st.booleans()),
    st.tuples(st.just("run_until"), st.sampled_from([0, 5, 10, 100, 500])),
    st.tuples(st.just("run_max"), st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("run")),
    st.tuples(st.just("direct"), _ops),
)


class _RxWorld:
    def __init__(self, observed: bool):
        self.sim = Simulator()
        config = SimulationConfig(seed=3)
        channel = Channel(self.sim, "channel", config, RandomStreams(3))
        self.rf = RfFrontEnd(self.sim, "rf", Module(self.sim, "top"),
                             channel, BtClock())
        if observed:
            self.rf.enable_rx.subscribe(lambda old, new: None)
        self.reads: list = []
        self.probe = None
        self.sim.run(until_ns=1_000)  # changes stamp a nonzero time

    def state(self):
        signal = self.rf.enable_rx
        return signal.read(), signal.last_change_ns

    def apply(self, ops):
        for op, read in ops:
            if op == "on":
                self.rf.rx_on(3, RxExpect(LAP))
            else:
                self.rf.rx_off()
            if read:
                self.reads.append((self.sim.now, self.state()))

    def step(self, step):
        kind = step[0]
        sim = self.sim
        if kind == "at":
            _, offset, ops, stop = step

            def event():
                self.apply(ops)
                if stop:
                    sim.stop()

            sim.schedule(offset, event)
        elif kind == "run_until":
            sim.run(until_ns=sim.now + step[1])
        elif kind == "run_max":
            sim.run(max_events=step[1])
        elif kind == "run":
            sim.run()
        else:
            self.apply(step[1])

    def attach_probe(self):
        device = SimpleNamespace(sim=self.sim, rf=self.rf)
        self.probe = RfActivityProbe(device)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.tuples(_step, st.booleans()), min_size=1,
                      max_size=30),
       probe_at=st.integers(min_value=0, max_value=30))
@example(steps=[(("at", 0, [("on", False)], False), False),
                (("run",), False), (("direct", [("off", False)]), True)],
         probe_at=99)
def test_unobserved_enable_rx_matches_an_observed_twin(steps, probe_at):
    """Reads come after chosen steps only: a read settles the record, so
    reading after every step would hide a write that mistakes a finished
    delta for the pending one."""
    plain, twin = _RxWorld(observed=False), _RxWorld(observed=True)
    for index, (step, check) in enumerate(steps + [(("run",), True)]):
        if index == probe_at:
            plain.attach_probe()
            twin.attach_probe()
        plain.step(step)
        twin.step(step)
        if check:
            assert plain.state() == twin.state()
        assert plain.reads == twin.reads
    if plain.probe is not None:
        for world in (plain, twin):
            world.sim.run(until_ns=world.sim.now + 1_000)
        assert plain.probe._rx.on_time_ns() == twin.probe._rx.on_time_ns()
        assert plain.probe.sample() == twin.probe.sample()
