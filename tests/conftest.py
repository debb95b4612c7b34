"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.config import SimulationConfig
from repro.sim.simulator import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def session() -> Session:
    """A zero-noise session with a fixed seed."""
    return Session(seed=1234, ber=0.0)


@pytest.fixture
def tiny_experiments(monkeypatch):
    """Scale every registered experiment down to a seconds-level run:
    2 trials per point and short observation windows / small grids for the
    scripted extensions.  Used by the registry smoke and parallel
    equivalence suites, which execute many experiments end-to-end."""
    from repro.baseband.packets import PacketType
    from repro.experiments import (
        ext_afh,
        ext_interference,
        ext_packet_throughput,
        fig06_inquiry_ber,
        fig07_page_ber,
        fig08_failure_probability,
        fig10_master_rf_activity,
    )
    from repro.options import JOBS_ENV_VAR

    monkeypatch.setenv("REPRO_TRIALS", "2")
    # a developer's exported REPRO_JOBS would override the explicit jobs=
    # arguments under test and make sequential-vs-parallel checks vacuous
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    tiny_grid = [(0.0, "0"), (1 / 60, "1/60"), (1 / 30, "1/30")]
    for module in (fig06_inquiry_ber, fig07_page_ber,
                   fig08_failure_probability):
        monkeypatch.setattr(module, "PAPER_BER_GRID", tiny_grid)
    monkeypatch.setattr(ext_interference, "PICONET_COUNTS", [1, 2])
    monkeypatch.setattr(ext_interference, "OBSERVE_SLOTS", 600)
    monkeypatch.setattr(ext_afh, "INTERFERER_COUNTS", [0, 20])
    monkeypatch.setattr(ext_afh, "LEARN_SLOTS", 1000)
    monkeypatch.setattr(ext_afh, "OBSERVE_SLOTS", 600)
    monkeypatch.setattr(ext_packet_throughput, "PACKET_TYPES",
                        [PacketType.DM1, PacketType.DH5])
    monkeypatch.setattr(ext_packet_throughput, "BER_POINTS",
                        [(0.0, "0"), (0.01, "1/100")])
    monkeypatch.setattr(ext_packet_throughput, "OBSERVE_SLOTS", 600)
    monkeypatch.setattr(fig06_inquiry_ber, "EXTENDED_TIMEOUT_SLOTS", 4096)
    monkeypatch.setattr(fig10_master_rf_activity, "OBSERVE_SLOTS", 2000)


def make_session(seed: int = 0, ber: float = 0.0, trace: bool = False,
                 **link_overrides) -> Session:
    """Session factory; extra keyword arguments override LinkConfig fields."""
    import dataclasses

    config = SimulationConfig(seed=seed).with_ber(ber)
    if link_overrides:
        config = dataclasses.replace(
            config, link=dataclasses.replace(config.link, **link_overrides))
    return Session(config=config, trace=trace)
