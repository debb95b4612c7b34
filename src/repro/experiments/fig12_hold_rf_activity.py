"""Fig. 12 — slave RF activity vs Thold: active mode vs repeated hold.

Paper: with no data traffic, the active-mode slave sits at a constant
~2.6 % (the per-slot uncertainty windows plus the master's keep-alive
sync packets); a slave that repeatedly holds for Thold slots pays a fixed
resynchronisation cost per cycle, so its activity falls like 1/Thold and
only beats active mode for Thold ≳ 120 slots.
"""

from __future__ import annotations

from typing import Optional

from repro import units
from repro.api import Session
from repro.experiments.common import (
    ExperimentResult,
    map_points,
    page_up,
    paper_config,
)
from repro.link.piconet import HoldParams
from repro.link.states import ConnectionMode
from repro.power.rf_activity import RfActivityProbe

T_HOLDS = [30, 60, 120, 240, 480, 1000]
KEEPALIVE_POLL_SLOTS = 100


class HoldCycler:
    """Re-enters hold mode every time the slave returns to active."""

    def __init__(self, session: Session, master, slave, hold_slots: int):
        self.session = session
        self.master = master
        self.slave = slave
        self.hold_slots = hold_slots
        self.cycles = 0
        self._check()

    def _check(self) -> None:
        connection = self.slave.connection_slave
        master_side = self.master.connection_master
        if connection is not None and master_side is not None \
                and connection.mode is ConnectionMode.ACTIVE:
            am = connection.am_addr
            master_side.set_hold(am, HoldParams(hold_slots=self.hold_slots))
            connection.enter_hold(HoldParams(hold_slots=self.hold_slots))
            self.cycles += 1
        self.session.sim.schedule(4 * units.SLOT_NS, self._check)


def _build(seed: int) -> tuple[Session, object, object]:
    session = Session(config=paper_config(
        ber=0.0, seed=seed, t_poll_slots=KEEPALIVE_POLL_SLOTS))
    master = session.add_device("master")
    slave = session.add_device("slave")
    slave.start_page_scan()
    page_up(session, master, slave, "fig12")
    return session, master, slave


def _measure_hold(seed: int, t_hold: int) -> tuple[float, int]:
    """Hold arm at one Thold: (slave activity, completed hold cycles)."""
    session, master, slave = _build(seed)
    cycler = HoldCycler(session, master, slave, t_hold)
    observe = max(12000, 12 * t_hold)
    session.run_slots(400)
    probe = RfActivityProbe(slave)
    session.run_slots(observe)
    return probe.sample().total_activity, cycler.cycles


def run(trials: int = 1, seed: int = 12,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Active baseline plus the paper's Thold sweep."""
    # active arm: no traffic, keep-alive polling only
    session, master, slave = _build(seed)
    probe = RfActivityProbe(slave)
    session.run_slots(600)
    probe.reset()
    session.run_slots(12000)
    active_activity = probe.sample().total_activity

    result = ExperimentResult(
        experiment_id="fig12",
        title="Fig. 12 — slave RF activity (TX+RX) vs Thold",
        headers=["Thold/TS", "hold activity %", "active activity %",
                 "hold wins", "cycles"],
        paper_expectation=("active flat ~2.6 %; hold ~1/Thold; crossover "
                           "~120 TS"),
        notes=(f"no data traffic; keep-alive poll every "
               f"{KEEPALIVE_POLL_SLOTS} slots; eager resync polls every "
               "6 slots after hold expiry"),
    )
    tasks = [(seed + 100 + index, t_hold)
             for index, t_hold in enumerate(T_HOLDS)]
    measured = map_points(_measure_hold, tasks, jobs=jobs)
    for t_hold, (activity, cycles) in zip(T_HOLDS, measured):
        result.rows.append([
            t_hold,
            round(activity * 100, 3),
            round(active_activity * 100, 3),
            "yes" if activity < active_activity else "no",
            cycles,
        ])
    return result
