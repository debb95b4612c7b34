"""Registry mapping experiment ids to their run() callables."""

from __future__ import annotations

from typing import Callable

from repro.experiments import (
    ablation_correlator,
    ablation_rf_delay,
    ablation_trains,
    ext_afh,
    ext_interference,
    ext_packet_throughput,
    ext_power_lifecycle,
    fig05_piconet_waveforms,
    fig06_inquiry_ber,
    fig07_page_ber,
    fig08_failure_probability,
    fig09_sniff_waveforms,
    fig10_master_rf_activity,
    fig11_sniff_rf_activity,
    fig12_hold_rf_activity,
)
from repro.experiments.common import ExperimentResult
from repro.options import current, installed

#: id -> (run callable, one-line description)
EXPERIMENTS: dict[str, tuple[Callable[..., ExperimentResult], str]] = {
    "fig05": (fig05_piconet_waveforms.run,
              "waveforms: piconet creation, master + 3 slaves"),
    "fig06": (fig06_inquiry_ber.run, "mean slots to complete inquiry vs BER"),
    "fig07": (fig07_page_ber.run, "mean slots to complete page vs BER"),
    "fig08": (fig08_failure_probability.run,
              "piconet creation failure probability vs BER"),
    "fig09": (fig09_sniff_waveforms.run, "waveforms: slaves in sniff mode"),
    "fig10": (fig10_master_rf_activity.run,
              "master RF activity vs channel duty cycle"),
    "fig11": (fig11_sniff_rf_activity.run,
              "slave RF activity vs Tsniff (active vs sniff)"),
    "fig12": (fig12_hold_rf_activity.run,
              "slave RF activity vs Thold (active vs hold)"),
    "ext_throughput": (ext_packet_throughput.run,
                       "ACL goodput per packet type vs BER"),
    "ext_power": (ext_power_lifecycle.run,
                  "power per lifecycle phase (inquiry..park)"),
    "ext_interference": (ext_interference.run,
                         "goodput degradation vs co-located piconets"),
    "ext_interference_spatial": (
        ext_interference.run_spatial,
        "PER vs deployment radius/density on the log-distance PHY"),
    "ext_afh": (ext_afh.run,
                "AFH goodput recovery vs statically jammed channels"),
    "ablation_rf_delay": (ablation_rf_delay.run,
                          "page success vs RF modem delay"),
    "ablation_correlator": (ablation_correlator.run,
                            "page at BER 1/40 vs correlator threshold"),
    "ablation_trains": (ablation_trains.run,
                        "inquiry duration vs Ninquiry"),
}


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run a registered experiment by id under one resolution of the run
    options (:func:`repro.options.current`), made before it starts."""
    if experiment_id not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    run, _ = EXPERIMENTS[experiment_id]
    with installed(current()):
        return run(**kwargs)
