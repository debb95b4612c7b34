"""Fig. 9 — two slaves posed in sniff mode: the receive-enable waveform
collapses to periodic bursts at the sniff anchor points.

Asserts, per the paper's figure: sniffing slaves open far fewer receive
windows than an active slave over the same interval, and the window count
matches the anchor schedule (one attempt window per Tsniff).
"""

from __future__ import annotations

from typing import Optional

from repro.api import Session
from repro.baseband.packets import PacketType
from repro.experiments.common import ExperimentResult, page_up, paper_config
from repro.link.traffic import PeriodicTraffic
from repro.power.rf_activity import RfActivityProbe

T_SNIFF_SLOTS = 24
OBSERVE_SLOTS = 2400


def run(trials: int = 1, seed: int = 9,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Master + 3 slaves; slaves 2 and 3 go to sniff mode via LMP."""
    session = Session(config=paper_config(ber=0.0, seed=seed,
                                          t_poll_slots=8))
    master = session.add_device("master")
    slaves = [session.add_device(f"slave{i}") for i in (1, 2, 3)]
    for slave in slaves:
        slave.start_page_scan()
        page_up(session, master, slave, "fig9 scenario")

    traffic = PeriodicTraffic(master, 1, period_slots=50,
                              ptype=PacketType.DM1, payload_len=17)
    traffic.start()

    master.lm.request_sniff(2, t_sniff_slots=T_SNIFF_SLOTS, n_attempt_slots=1)
    master.lm.request_sniff(3, t_sniff_slots=T_SNIFF_SLOTS, n_attempt_slots=1)
    session.run_slots(100)  # let the LMP negotiation apply

    probes = {d.basename: RfActivityProbe(d) for d in [master] + slaves}
    session.run_slots(OBSERVE_SLOTS)
    samples = {name: probe.sample() for name, probe in probes.items()}

    expected_anchors = OBSERVE_SLOTS / T_SNIFF_SLOTS
    result = ExperimentResult(
        experiment_id="fig09",
        title=f"Fig. 9 — sniff-mode waveforms (Tsniff = {T_SNIFF_SLOTS} slots)",
        headers=["device", "mode", "RX windows", "RX duty", "as paper"],
        paper_expectation=("sniffing slaves wake periodically; their RX "
                           "enable shows isolated bursts at anchor points"),
        notes=f"{OBSERVE_SLOTS}-slot observation; ~{expected_anchors:.0f} "
              "anchors expected for the sniffing slaves",
    )
    active_windows = samples["slave1"].rx_windows
    for name, mode in [("master", "master"), ("slave1", "active"),
                       ("slave2", "sniff"), ("slave3", "sniff")]:
        sample = samples[name]
        if mode == "sniff":
            ok = (sample.rx_windows < active_windows / 4
                  and 0.5 * expected_anchors
                  <= sample.rx_windows <= 2.2 * expected_anchors)
        else:
            ok = sample.rx_windows > 0
        result.rows.append([
            name, mode, sample.rx_windows,
            f"{sample.rx_activity * 100:.2f}%",
            "yes" if ok else "NO",
        ])
    return result
