"""Fig. 6 — mean time slots to complete the inquiry phase vs channel BER.

Paper: ~1556 slots at zero noise, growing mildly (~1800 at BER 1/30); ID
packets are the least noise-sensitive thanks to the access-code correlator.

Methodology notes:

* the paper quotes a 1556-slot *mean* while also fixing a 1.28 s
  (2048-slot) timeout; a mean above three quarters of the timeout is only
  measurable without the timeout censoring the distribution, so this
  experiment measures the unconditional time under an extended guard, and
  fig08 applies the 2048-slot timeout to get failure probabilities;
* completion here = the scanner transmits its inquiry-response FHS (the
  discovery is on the air). This is the robust, ID-correlator-dominated
  quantity whose mild BER dependence the paper describes; requiring the
  *inquirer* to also decode the FHS payload adds the page-like fragility
  that fig08's inquiry curve measures.
"""

from __future__ import annotations

from typing import Optional

from repro import units
from repro.api import Session
from repro.stats.estimators import ci_cell
from repro.experiments.common import (
    PAPER_BER_GRID,
    ExperimentResult,
    paper_config,
    run_sweep,
)
from repro.options import current
from repro.stats.montecarlo import TrialOutcome, default_trials

EXTENDED_TIMEOUT_SLOTS = 8192


def run_trial(ber: float, seed: int) -> TrialOutcome:
    """One inquiry between a fresh inquirer/scanner pair; the measured value
    is slots until the scanner's first inquiry response transmission."""
    session = Session(config=paper_config(ber=ber, seed=seed))
    inquirer = session.add_device("inquirer")
    scanner = session.add_device("scanner")
    responded_at: list[int] = []
    scanner.start_inquiry_scan(
        on_responded=lambda: responded_at.append(session.sim.now))
    inquirer.start_inquiry(timeout_slots=EXTENDED_TIMEOUT_SLOTS)
    start_ns = session.sim.now
    deadline_ns = start_ns + EXTENDED_TIMEOUT_SLOTS * units.SLOT_NS
    while not responded_at and session.sim.now < deadline_ns:
        session.run_slots(64)
    success = bool(responded_at)
    value = ((responded_at[0] - start_ns) / units.SLOT_NS if success
             else EXTENDED_TIMEOUT_SLOTS)
    return TrialOutcome(seed=seed, success=success, value=value)


def run(trials: int = 12, seed: int = 1,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Sweep the paper's BER grid; one Monte Carlo batch per point."""
    trials = default_trials(trials)
    points = run_sweep(seed, trials, PAPER_BER_GRID, run_trial, jobs=jobs)
    result = ExperimentResult(
        experiment_id="fig06",
        title="Fig. 6 — mean slots to complete INQUIRY vs BER",
        headers=["BER", "mean TS", "ci95", "completed"],
        paper_expectation="1556 TS at BER 0, mild growth to ~1800 TS at 1/30",
        notes=(f"unconditional mean, {EXTENDED_TIMEOUT_SLOTS}-slot guard, "
               f"{trials} trials/point; spec correlator (threshold 7)"
               + ("; bit-accurate channel" if current().bit_accurate else "")),
    )
    for point in points:
        result.rows.append([
            point.label,
            round(point.mean.mean, 1),
            ci_cell(point.mean.ci_halfwidth),
            f"{point.success.successes}/{point.success.n}",
        ])
    return result
