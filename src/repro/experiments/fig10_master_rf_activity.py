"""Fig. 10 — master RF activity (TX and RX separately) as a function of
the channel duty cycle.

Paper: both grow linearly with duty cycle and stay well under 1 %; the TX
curve sits above RX (the master's receiver only opens in the slot
following its own transmission, per the polling scheme).
"""

from __future__ import annotations

from typing import Optional

from repro.api import Session
from repro.baseband.packets import PacketType
from repro.experiments.common import (
    ExperimentResult,
    map_points,
    page_up,
    paper_config,
)
from repro.link.traffic import DutyCycleTraffic
from repro.power.rf_activity import RfActivityProbe

DUTIES = [0.0025, 0.005, 0.01, 0.015, 0.02]
OBSERVE_SLOTS = 16000
WARMUP_SLOTS = 400


def run_point(duty: float, seed: int) -> tuple[float, float]:
    """Measure (tx_activity, rx_activity) of the master at one duty cycle."""
    session = Session(config=paper_config(ber=0.0, seed=seed,
                                          t_poll_slots=4000))
    master = session.add_device("master")
    slave = session.add_device("slave")
    slave.start_page_scan()
    page_up(session, master, slave, "fig10")
    traffic = DutyCycleTraffic(master, 1, duty=duty,
                               ptype=PacketType.DM1, payload_len=17)
    traffic.start()
    probe = RfActivityProbe(master)
    session.run_slots(WARMUP_SLOTS)
    probe.reset()
    session.run_slots(OBSERVE_SLOTS)
    sample = probe.sample()
    return sample.tx_activity, sample.rx_activity


def run(trials: int = 1, seed: int = 10,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Sweep the paper's duty-cycle range (0..2 %)."""
    result = ExperimentResult(
        experiment_id="fig10",
        title="Fig. 10 — master RF activity vs channel duty cycle",
        headers=["duty cycle", "TX activity %", "RX activity %", "TX/RX"],
        paper_expectation=("both linear in duty; TX above RX; < 1 % "
                           "in the 0-2 % duty range"),
        notes=(f"DM1 traffic to one slave, {OBSERVE_SLOTS}-slot windows; "
               "duty = fraction of master TX slots carrying data"),
    )
    tasks = [(duty, seed + index) for index, duty in enumerate(DUTIES)]
    measured = map_points(run_point, tasks, jobs=jobs)
    for duty, (tx, rx) in zip(DUTIES, measured):
        ratio = tx / rx if rx > 0 else float("inf")
        result.rows.append([
            f"{duty * 100:.2f}%",
            round(tx * 100, 4),
            round(rx * 100, 4),
            round(ratio, 2),
        ])
    return result
