"""The Session facade."""

import pytest

from repro import Session, units
from repro.errors import ProtocolError


class TestSessionBasics:
    def test_devices_share_one_channel(self, session):
        a = session.add_device("a")
        b = session.add_device("b")
        assert a.rf in session.channel.radios
        assert b.rf in session.channel.radios

    def test_unique_random_addresses(self, session):
        addresses = {session.add_device(f"d{i}").addr for i in range(8)}
        assert len(addresses) == 8

    def test_explicit_address_and_phase(self, session):
        from repro.baseband.address import BdAddr

        device = session.add_device("d", addr=BdAddr(lap=0x42),
                                    clock_phase_ns=1000)
        assert device.addr.lap == 0x42
        assert device.clock.phase_ns == 1000

    def test_run_slots_advances_time(self, session):
        session.run_slots(10)
        assert session.sim.now == 10 * units.SLOT_NS
        assert session.now_slots == 10.0

    def test_seed_determinism_end_to_end(self):
        def formation_time(seed):
            s = Session(seed=seed)
            m = s.add_device("m")
            sl = s.add_device("s")
            return s.run_page(m, sl).duration_slots

        assert formation_time(77) == formation_time(77)
        # different seeds give different clock phases, hence timings
        assert formation_time(77) != formation_time(78)

    def test_trace_opt_in(self):
        session = Session(seed=1, trace=True)
        device = session.add_device("d")
        assert f"d.rf.enable_rx_rf" in session.trace.signals

    def test_probe_helper(self, session):
        device = session.add_device("d")
        probe = session.probe(device)
        session.run_slots(5)
        assert probe.sample().total_activity == 0.0

    def test_topology_appears_with_the_first_placement(self, session):
        device = session.add_device("d")
        assert session.topology is None  # a flat world
        position = session.place(device, (1.5, -2.0))
        assert session.topology is session.channel.topology
        assert session.topology.position_of(device.addr) == position
        assert device.position == position


class TestBuildPiconet:
    def test_builds_in_order(self, session):
        master = session.add_device("m")
        slaves = [session.add_device(f"s{i}") for i in range(2)]
        handle = session.build_piconet(master, slaves)
        assert handle.am_addr_of(slaves[0]) == 1
        assert handle.am_addr_of(slaves[1]) == 2

    def test_too_short_timeout_reports_failure(self):
        session = Session(seed=3)
        master = session.add_device("m")
        slave = session.add_device("s")
        result = session.run_page(master, slave, timeout_slots=2)
        assert not result.success
        # the slave's scan was cleaned up; a retry with a sane timeout works
        retry = session.run_page(master, slave)
        assert retry.success

    def test_build_piconet_raises_on_failure(self):
        import dataclasses

        from repro.config import SimulationConfig

        config = dataclasses.replace(
            SimulationConfig(seed=4),
            link=dataclasses.replace(SimulationConfig().link,
                                     page_timeout_slots=2))
        session = Session(config=config)
        master = session.add_device("m")
        slave = session.add_device("s")
        with pytest.raises(ProtocolError):
            session.build_piconet(master, [slave])
