"""What inquiry and page leave on radios nobody observes.

Each fig08-shaped world (the paper profile at sync threshold 0 and the
2048-slot application timeout) runs twice: as built, and as an observed
twin in which both enable signals of every radio have a subscriber from
the start.  A radio with a subscriber writes its signals as it goes, so
the twin is the reference.  An unobserved radio may instead keep records
and settle its signals from them when read (and an inquirer or pager may
account for the IDs nobody can hear without sending them); whatever it
does, the outcome, the counters and the settled signals must match the
twin's.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.experiments.common import paper_config

TIMEOUT_SLOTS = 2048
SEEDS = (0, 1, 2, 3, 4, 5)
BERS = (0.0, 1 / 50, 1 / 30)


def observe(session: Session) -> None:
    """Subscribe to both enable signals of every radio of ``session``."""
    for device in session.devices:
        device.rf.enable_tx.subscribe(lambda old, new: None)
        device.rf.enable_rx.subscribe(lambda old, new: None)


def radio_state(session: Session) -> list[tuple]:
    """Every radio's enable signals as read after the run."""
    state = []
    for device in session.devices:
        for signal in (device.rf.enable_tx, device.rf.enable_rx):
            state.append((signal.name, signal.value, signal.last_change_ns))
    return state


def channel_state(session: Session) -> tuple:
    channel = session.channel
    return (session.sim.now, channel.transmissions, channel.collisions)


def inquiry_world(ber: float, seed: int, observed: bool) -> tuple:
    session = Session(config=paper_config(ber=ber, seed=seed,
                                          sync_threshold=0))
    inquirer = session.add_device("inquirer")
    scanner = session.add_device("scanner")
    if observed:
        observe(session)
    result = session.run_inquiry(inquirer, scanner,
                                 timeout_slots=TIMEOUT_SLOTS)
    outcome = (result.success, result.duration_slots, result.id_transmissions,
               [(found.addr, found.heard_at_ns,
                 found.clock_estimate.ticks(session.sim.now))
                for found in result.discovered])
    return outcome, channel_state(session), radio_state(session)


def page_world(ber: float, seed: int, observed: bool) -> tuple:
    session = Session(config=paper_config(ber=ber, seed=seed,
                                          sync_threshold=0))
    master = session.add_device("master")
    slave = session.add_device("slave")
    if observed:
        observe(session)
    result = session.run_page(master, slave, timeout_slots=TIMEOUT_SLOTS)
    outcome = (result.success, result.duration_slots, result.am_addr,
               result.id_transmissions, result.fhs_transmissions,
               slave.state, slave.connection_slave is not None)
    return outcome, channel_state(session), radio_state(session)


@pytest.mark.parametrize("ber", BERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_inquiry_matches_its_observed_twin(seed, ber):
    assert inquiry_world(ber, seed, observed=False) \
        == inquiry_world(ber, seed, observed=True)


@pytest.mark.parametrize("ber", BERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_page_matches_its_observed_twin(seed, ber):
    assert page_world(ber, seed, observed=False) \
        == page_world(ber, seed, observed=True)
