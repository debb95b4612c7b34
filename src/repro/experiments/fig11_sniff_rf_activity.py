"""Fig. 11 — slave RF activity (TX+RX) vs Tsniff: active mode vs sniff mode.

Paper: with the master sending data every 100 slots, the active-mode curve
is flat (~3.3 %); the sniff-mode curve falls like 1/Tsniff, crossing the
active curve around Tsniff ≈ 30 slots and saving ~30 % at Tsniff = 100
(the longest period that loses no data for this traffic).
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
from repro.link.traffic import PeriodicTraffic
from repro.power.rf_activity import RfActivityProbe

T_SNIFFS = [20, 40, 60, 80, 100]
TRAFFIC_PERIOD_SLOTS = 100
OBSERVE_SLOTS = 12000
WARMUP_SLOTS = 600


def _measure(seed: int, t_sniff_slots: int | None) -> tuple[float, int]:
    """Slave total RF activity with sniff (or active when None); also the
    number of payloads delivered (sniff must not lose data)."""
    session = Session(config=paper_config(ber=0.0, seed=seed,
                                          t_poll_slots=4000))
    master = session.add_device("master")
    slave = session.add_device("slave")
    slave.start_page_scan()
    page_up(session, master, slave, "fig11")
    traffic = PeriodicTraffic(master, 1, period_slots=TRAFFIC_PERIOD_SLOTS,
                              ptype=PacketType.DM1, payload_len=17)
    traffic.start()
    if t_sniff_slots is not None:
        master.lm.request_sniff(1, t_sniff_slots=t_sniff_slots,
                                n_attempt_slots=1)
    session.run_slots(WARMUP_SLOTS)
    probe = RfActivityProbe(slave)
    delivered_before = slave.rx_buffer.total_received
    session.run_slots(OBSERVE_SLOTS)
    sample = probe.sample()
    delivered = slave.rx_buffer.total_received - delivered_before
    return sample.total_activity, delivered


def run(trials: int = 1, seed: int = 11,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Active baseline plus the paper's Tsniff sweep."""
    active_activity, active_delivered = _measure(seed, None)
    result = ExperimentResult(
        experiment_id="fig11",
        title="Fig. 11 — slave RF activity (TX+RX) vs Tsniff",
        headers=["Tsniff/TS", "sniff activity %", "active activity %",
                 "sniff wins", "payloads"],
        paper_expectation=("active flat ~3.3 %; sniff ~1/Tsniff with "
                           "crossover ~30 TS and ~30 % saving at 100 TS"),
        notes=(f"master sends DM1 every {TRAFFIC_PERIOD_SLOTS} slots; "
               f"{OBSERVE_SLOTS}-slot windows; N_attempt = 1"),
    )
    tasks = [(seed + 100 + index, t_sniff)
             for index, t_sniff in enumerate(T_SNIFFS)]
    measured = map_points(_measure, tasks, jobs=jobs)
    for t_sniff, (sniff_activity, delivered) in zip(T_SNIFFS, measured):
        result.rows.append([
            t_sniff,
            round(sniff_activity * 100, 3),
            round(active_activity * 100, 3),
            "yes" if sniff_activity < active_activity else "no",
            f"{delivered}/{active_delivered}",
        ])
    return result
