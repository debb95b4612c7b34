"""TimelineCapture unit tests: ring bound, typed records, query/filter,
replay rendering and the three export paths (signals, VCD bridge, JSONL).
"""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import pytest

from repro import Session
from repro.baseband.packets import Packet, PacketType
from repro.sim.capture import (
    KINDS,
    SCHEMA_VERSION,
    TimelineCapture,
    TimelineEvent,
    read_jsonl,
)
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder


def _fake_tx(path="m0.rf", freq=17, ptype="DM1", purpose="data",
             start_ns=0, duration_ns=366_000, corrupted=False,
             power_mw=1.0, interference_mw=0.0, sim=None):
    """The attribute subset of a Transmission the recorders read; the
    radio's ``sim`` is the clock its deferred ``tx_end`` waits for."""
    return SimpleNamespace(
        radio=SimpleNamespace(path=path,
                              sim=Simulator() if sim is None else sim),
        freq=freq,
        packet=SimpleNamespace(ptype=SimpleNamespace(value=ptype)),
        meta=SimpleNamespace(purpose=purpose), start_ns=start_ns,
        duration_ns=duration_ns, corrupted=corrupted, power_mw=power_mw,
        interference_mw=interference_mw)


class TestRecording:
    def test_typed_records_land_with_kind_and_counts(self):
        cap = TimelineCapture()
        cap.hop(1000, "m0", clk=4, freq=33)
        cap.tx_start(1000, _fake_tx(start_ns=1000, duration_ns=366,
                                    corrupted=True))
        # the first record stamped after the packet end brings its tx_end
        cap.capture_loss(1400, _fake_tx(interference_mw=2.0))
        cap.arq_retx(2000, "m0", freq=5, am_addr=1, seqn=0)
        cap.afh_map(3000, "afh.9E8B33", n_used=59, excluded=[0, 1])
        cap.assess(3000, "afh.9E8B33", n_bad=2, installed=True)
        assert len(cap) == 7
        assert cap.counts() == {kind: 1 for kind in KINDS}
        assert [event.kind for event in cap.events()] == list(KINDS)

    def test_capture_loss_sir_margin(self):
        cap = TimelineCapture()
        cap.capture_loss(0, _fake_tx(power_mw=1.0, interference_mw=2.0))
        cap.capture_loss(0, _fake_tx(power_mw=1.0, interference_mw=0.0))
        with_sir, without = cap.events(kind="capture_loss")
        assert with_sir.data["sir_db"] == pytest.approx(-3.01)
        assert without.data["sir_db"] is None

    def test_ring_is_bounded_but_counts_are_not(self):
        cap = TimelineCapture(capacity=8)
        for k in range(20):
            cap.hop(k, "m0", clk=2 * k, freq=k % 79)
        assert len(cap) == 8
        assert cap.counts()["hop"] == 20
        # oldest evicted first: the retained ring is the tail
        assert [event.t_ns for event in cap.events()] == list(range(12, 20))

    def test_tx_end_lands_once_the_clock_passes_the_packet_end(self):
        sim = Simulator()
        cap = TimelineCapture()
        tx = _fake_tx(start_ns=1000, duration_ns=366, sim=sim)
        cap.tx_start(1000, tx)
        sim.run(until_ns=1366)  # an end event at the bound would not fire
        assert cap.counts() == {"tx_start": 1}
        tx.corrupted = True
        sim.run(until_ns=1367)
        assert cap.counts() == {"tx_start": 1, "tx_end": 1}
        (end,) = cap.events(kind="tx_end")
        assert (end.t_ns, end.src, end.freq) == (1366, "m0.rf", 17)
        assert end.data == {"ptype": "DM1", "corrupted": True}

    def test_unbounded_drain_records_every_end(self):
        sim = Simulator()
        cap = TimelineCapture()
        cap.tx_start(0, _fake_tx(duration_ns=500, sim=sim))
        sim.run(until_ns=100)
        assert "tx_end" not in cap.counts()
        sim.run()  # every event of the world has fired
        assert [event.t_ns for event in cap.events(kind="tx_end")] == [500]

    def test_ends_at_one_instant_record_in_transmit_order(self):
        cap = TimelineCapture()
        cap.tx_start(10, _fake_tx(path="a.rf", start_ns=10, duration_ns=90))
        cap.tx_start(50, _fake_tx(path="b.rf", start_ns=50, duration_ns=50))
        cap.tx_start(60, _fake_tx(path="c.rf", start_ns=60, duration_ns=20))
        cap.hop(100, "m0", clk=0, freq=3)
        assert [(event.kind, event.t_ns, event.src)
                for event in cap.events()][3:] == [
            ("tx_end", 80, "c.rf"), ("tx_end", 100, "a.rf"),
            ("tx_end", 100, "b.rf"), ("hop", 100, "m0")]

    def test_a_full_ring_keeps_the_newest_records_in_time_order(self):
        # tx_end records are kept apart from the other kinds; a bounded
        # capture must still retain exactly the newest records of the
        # one time-ordered stream, an end in front of its instant's others
        def rows(cap):
            return [(event.t_ns, event.kind, event.src, event.data)
                    for event in cap.events()]

        sim = Simulator()
        bounded, unbounded = TimelineCapture(capacity=7), TimelineCapture()
        t = 0
        for k in range(600):
            t += 40 * (k % 3)  # every third record shares its instant
            tx = _fake_tx(path=f"r{k % 5}.rf", freq=k % 79, start_ns=t,
                          duration_ns=80 * (k % 4 + 1), corrupted=k % 7 == 0,
                          sim=sim)
            for cap in (bounded, unbounded):
                cap.hop(t, "m0", clk=k, freq=k % 79)
                if k % 2:
                    cap.tx_start(t, tx)
            if k % 13 == 0:  # each query trims to the capacity exactly
                assert rows(bounded) == rows(unbounded)[-7:]
        assert rows(bounded) == rows(unbounded)[-7:]
        assert bounded.counts() == unbounded.counts()
        assert unbounded.counts()["tx_end"] > 250

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TimelineCapture(capacity=0)


class TestQuery:
    @pytest.fixture
    def cap(self):
        cap = TimelineCapture()
        cap.hop(100, "m0", clk=0, freq=7)
        cap.hop(200, "m1", clk=0, freq=7)
        cap.hop(300, "m0", clk=2, freq=11)
        cap.tx_start(300, _fake_tx(path="m0.rf", freq=11))
        return cap

    def test_filter_by_kind_freq_and_window(self, cap):
        assert len(cap.events(kind="hop")) == 3
        assert len(cap.events(freq=7)) == 2
        assert [event.t_ns for event in cap.events(start_ns=200,
                                                   end_ns=300)] == [200]

    def test_src_matches_exact_or_dotted_prefix(self, cap):
        assert len(cap.events(src="m0")) == 3  # m0 and m0.rf, not m1
        assert len(cap.events(src="m0.rf")) == 1
        assert cap.events(src="m") == []

    def test_replay_renders_one_line_per_match(self, cap):
        lines = list(cap.replay(kind="hop", src="m0"))
        assert len(lines) == 2
        assert "hop" in lines[0] and "ch=7" in lines[0] and "clk=0" in lines[0]


class TestExport:
    def test_to_signals_one_per_kind_in_causal_order(self):
        cap = TimelineCapture()
        cap.tx_start(50, _fake_tx())
        cap.hop(10, "m0", clk=0, freq=3)
        cap.hop(20, "m0", clk=2, freq=4)
        signals = cap.to_signals()
        assert [signal.name for signal in signals] == \
            ["timeline.hop", "timeline.tx_start"]
        hop = signals[0]
        assert hop.times == [10, 20]
        assert all(isinstance(value, str) for value in hop.values)

    def test_inject_bridges_into_vcd(self):
        sim = Simulator()
        recorder = TraceRecorder(sim)
        cap = TimelineCapture()
        cap.hop(1000, "m0", clk=0, freq=42)
        cap.inject(recorder)
        vcd = recorder.to_vcd()
        assert "timeline" in vcd
        assert "hop" in vcd

    def test_to_jsonl_round_trips(self):
        cap = TimelineCapture()
        cap.hop(100, "m0", clk=6, freq=9)
        cap.afh_map(200, "afh.1", n_used=59, excluded=[0, 1])
        buffer = io.StringIO()
        assert cap.to_jsonl(buffer) == 2
        first, second = [json.loads(line)
                         for line in buffer.getvalue().splitlines()]
        assert first == {"t_ns": 100, "kind": "hop", "src": "m0",
                         "freq": 9, "clk": 6}
        assert second["excluded"] == [0, 1]
        assert second["freq"] is None

    def test_read_jsonl_round_trips_v2_capture_loss(self):
        """Schema v2: the spatial resolver's per-pair distance_m/rx_dbm
        survive the write→read cycle exactly."""
        cap = TimelineCapture()
        cap.capture_loss(1200, _fake_tx(), sir_db=-4.5, distance_m=2.83,
                         rx_dbm=-49.04)
        cap.capture_loss(1300, _fake_tx(interference_mw=2.0))  # flat caller
        buffer = io.StringIO()
        cap.to_jsonl(buffer)
        buffer.seek(0)
        spatial, flat = read_jsonl(buffer)
        assert (spatial.t_ns, spatial.kind, spatial.freq) == \
            (1200, "capture_loss", 17)
        assert spatial.data["sir_db"] == -4.5
        assert spatial.data["distance_m"] == 2.83
        assert spatial.data["rx_dbm"] == -49.04
        # flat-resolver records carry the v2 columns as None
        assert flat.data["sir_db"] == pytest.approx(-3.01)
        assert flat.data["distance_m"] is None
        assert flat.data["rx_dbm"] is None

    def test_read_jsonl_backfills_v1_records(self):
        """A v1 archive (written before distance_m/rx_dbm existed) reads
        losslessly: missing detail fields come back as None."""
        v1_lines = "\n".join([
            json.dumps({"t_ns": 500, "kind": "capture_loss", "src": "s0.rf",
                        "freq": 40, "ptype": "DM1", "sir_db": -3.0}),
            json.dumps({"t_ns": 900, "kind": "hop", "src": "m0",
                        "freq": 12, "clk": 8}),
        ])
        loss, hop = read_jsonl(io.StringIO(v1_lines))
        assert loss.data == {"ptype": "DM1", "sir_db": -3.0,
                             "distance_m": None, "rx_dbm": None}
        assert hop.data == {"clk": 8}

    def test_schema_version_is_pinned(self):
        # bump this alongside any _FIELDS change, with a back-compat test
        assert SCHEMA_VERSION == 2

    def test_read_jsonl_preserves_unknown_kinds_and_fields(self):
        lines = json.dumps({"t_ns": 1, "kind": "from_the_future",
                            "src": "x", "freq": None, "novel": 7})
        (event,) = read_jsonl(io.StringIO(lines))
        assert event.kind == "from_the_future"
        assert event.data == {"novel": 7}


class TestDescribe:
    def test_describe_includes_channel_and_details(self):
        event = TimelineEvent(123, "capture_loss", "s0.rf", 40,
                              {"sir_db": -3.0})
        line = event.describe()
        assert "capture_loss" in line and "s0.rf" in line
        assert "ch=40" in line and "sir_db=-3.0" in line

    def test_describe_omits_channel_when_absent(self):
        line = TimelineEvent(5, "assess", "afh.1").describe()
        assert "ch=" not in line


class TestTxEndInAWorld:
    def test_bounded_run_that_drains_mid_packet(self):
        """A run whose queue drains before its bound leaves a packet on
        the air unrecorded: a later overlapping transmit still corrupts
        it, and its tx_end lands at the packet end, in time order."""
        session = Session(seed=1, capture=True)
        first = session.add_device("first")
        second = session.add_device("second")
        packet = Packet(ptype=PacketType.DH5, lap=first.addr.lap,
                        payload=bytes(100))
        end = 1_000 + packet.duration_ns
        sim = session.sim
        sim.schedule(1_000, lambda: first.rf.transmit(5, packet))
        sim.run(until_ns=200_000)
        assert sim.pending_events == 0
        assert session.capture.counts() == {"tx_start": 1}
        sim.schedule(100_000, lambda: second.rf.transmit(5, packet))
        sim.run(until_ns=5_000_000)
        records = session.capture.events()
        assert [(event.kind, event.t_ns, event.src) for event in records] \
            == [("tx_start", 1_000, "first.rf"),
                ("tx_start", 300_000, "second.rf"),
                ("capture_loss", 300_000, "first.rf"),
                ("capture_loss", 300_000, "second.rf"),
                ("tx_end", end, "first.rf"),
                ("tx_end", 300_000 + packet.duration_ns, "second.rf")]
        assert [event.data["corrupted"] for event in records[4:]] \
            == [True, True]

