"""Extension — ACL throughput of every packet type vs BER.

The paper names this analysis as a goal of the platform ("the effect of the
use of different type of packets (DH1, DH3, DH5, DM1, DM3, DM5) in the
throughput ... in presence of noise") without showing the figure. Expected
shape (well known from the Bluetooth literature): DH packets win at low
BER thanks to lower overhead; as BER rises, FEC-protected DM packets and
shorter packets win, with crossovers in between.

The zero-noise column should approach the spec's asymmetric maximum rates:
DM1 108.8, DH1 172.8, DM3 387.2, DH3 585.6, DM5 477.8, DH5 723.2 kb/s.
"""

from __future__ import annotations

from typing import Optional

from repro import units
from repro.api import Session
from repro.baseband.packets import PacketType
from repro.experiments.common import (
    ExperimentResult,
    map_points,
    page_up,
    paper_config,
)
from repro.link.traffic import SaturatedTraffic

PACKET_TYPES = [PacketType.DM1, PacketType.DH1, PacketType.DM3,
                PacketType.DH3, PacketType.DM5, PacketType.DH5]
BER_POINTS = [(0.0, "0"), (0.0005, "1/2000"), (0.002, "1/500"),
              (0.005, "1/200"), (0.01, "1/100"), (1 / 30, "1/30")]
OBSERVE_SLOTS = 6000


def measure_goodput_kbps(ptype: PacketType, ber: float, seed: int) -> float:
    """Master->slave saturated goodput with ARQ, in kb/s."""
    session = Session(config=paper_config(ber=ber, seed=seed,
                                          t_poll_slots=4000))
    master = session.add_device("master")
    slave = session.add_device("slave")
    slave.start_page_scan()
    page_up(session, master, slave, "throughput")
    traffic = SaturatedTraffic(master, 1, ptype=ptype)
    traffic.start()
    session.run_slots(200)  # pipeline warm-up
    bytes_before = slave.rx_buffer.total_bytes
    start_ns = session.sim.now
    session.run_slots(OBSERVE_SLOTS)
    delivered_bytes = slave.rx_buffer.total_bytes - bytes_before
    elapsed_s = (session.sim.now - start_ns) / units.SEC
    return delivered_bytes * 8 / 1000 / elapsed_s


def run(trials: int = 1, seed: int = 20,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Goodput matrix: packet types x BER grid."""
    result = ExperimentResult(
        experiment_id="ext_throughput",
        title="Extension — ACL goodput (kb/s) per packet type vs BER",
        headers=["BER"] + [pt.value for pt in PACKET_TYPES] + ["best"],
        paper_expectation=("named in the paper's goals: DH/long packets win "
                           "at low BER, DM/short win as BER grows"),
        notes=f"saturated master->slave ACL link with ARQ, {OBSERVE_SLOTS}-slot windows",
    )
    tasks = [(ptype, ber, seed + 31 * row_index + col_index)
             for row_index, (ber, _) in enumerate(BER_POINTS)
             for col_index, ptype in enumerate(PACKET_TYPES)]
    rates_flat = map_points(measure_goodput_kbps, tasks, jobs=jobs)
    for row_index, (_, label) in enumerate(BER_POINTS):
        rates = rates_flat[row_index * len(PACKET_TYPES):
                           (row_index + 1) * len(PACKET_TYPES)]
        best = PACKET_TYPES[max(range(len(rates)), key=rates.__getitem__)]
        result.rows.append([label] + [round(r, 1) for r in rates] + [best.value])
    return result
