"""Traffic generators and polling policies."""

import pytest

from repro.baseband.packets import PacketType
from repro.errors import ConfigError
from repro.link.traffic import (
    DutyCycleTraffic,
    PeriodicTraffic,
    SaturatedTraffic,
)
from tests.conftest import make_session


def connected(seed=60, **cfg):
    session = make_session(seed=seed, **cfg)
    master = session.add_device("master")
    slave = session.add_device("slave")
    assert session.run_page(master, slave).success
    return session, master, slave


class TestTrafficSources:
    def test_periodic_rate(self):
        session, master, slave = connected(seed=61)
        source = PeriodicTraffic(master, 1, period_slots=50,
                                 ptype=PacketType.DM1, payload_len=10)
        source.start()
        session.run_slots(500)
        assert source.generated == pytest.approx(10, abs=1)

    def test_duty_cycle_rate(self):
        session, master, slave = connected(seed=62)
        source = DutyCycleTraffic(master, 1, duty=0.01,
                                  ptype=PacketType.DM1, payload_len=17)
        source.start()
        session.run_slots(4000)  # 2000 pairs -> ~20 payloads at 1 %
        assert source.generated == pytest.approx(20, abs=2)

    def test_saturated_keeps_buffer_full(self):
        session, master, slave = connected(seed=64)
        SaturatedTraffic(master, 1, ptype=PacketType.DH1).start()
        session.run_slots(100)
        assert len(master.tx_buffer_for(1)) >= 1

    def test_payload_length_validation(self):
        session, master, slave = connected(seed=65)
        with pytest.raises(ConfigError):
            PeriodicTraffic(master, 1, period_slots=10,
                            ptype=PacketType.DM1, payload_len=18)

    def test_duty_validation(self):
        session, master, slave = connected(seed=66)
        with pytest.raises(ConfigError):
            DutyCycleTraffic(master, 1, duty=1.5)


class TestPollingPolicies:
    def test_round_robin_shares_polls(self):
        session = make_session(seed=67)
        master = session.add_device("master")
        slaves = [session.add_device(f"s{i}") for i in range(3)]
        session.build_piconet(master, slaves)
        session.run_slots(600)
        counts = [s.connection_slave.stats_rx_packets for s in slaves]
        assert all(c > 5 for c in counts)
        assert max(counts) < 4 * min(counts)

    def test_data_preferred_over_poll(self):
        session, master, slave = connected(seed=69, t_poll_slots=4)
        master.enqueue_data(1, b"payload", PacketType.DM1)
        session.run_slots(20)
        assert slave.rx_buffer.total_received == 1
