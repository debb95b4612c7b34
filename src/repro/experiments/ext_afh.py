"""Extension — AFH goodput recovery under a static interferer.

A piconet parked next to a fixed-channel interferer (a Wi-Fi carrier, a
microwave oven — the scenario Classen & Hollick's AFH analysis and the
scatternet routing literature motivate) loses every packet whose hop lands
on a jammed channel.  With 1.2-style adaptive frequency hopping the master
classifies channels from its reply outcomes and folds the damaged ones out
of the hop set (:mod:`repro.link.afh`), so the goodput should climb back
to the clean-channel baseline; without AFH the loss is permanent at
roughly ``jammed/79`` per direction.

The campaign sweeps the number of statically jammed channels (a contiguous
0 dBm block resolved by the channel's SIR capture model, see
:meth:`repro.phy.channel.Channel.add_static_interferer`) and measures the
same saturated DM1 link twice per trial — AFH off, then AFH on with the
identical seed — after a learning window long enough for the classifier to
converge.  Rows report both goodputs, the AFH-on recovery relative to the
clean-channel baseline, and the converged hop-set size.

Statistics: one Monte-Carlo point per jammed-channel count, dispatched
through the standard flattened ``Sweep`` queue with two-level
``derive_seed`` seeding, like every other campaign.

Two drill-down facilities ride along:

* **Timeline archiving** — with ``REPRO_TIMELINE_DIR`` set, every trial
  runs with the :mod:`repro.sim.capture` timeline enabled and archives
  one JSONL file per (jammed count, AFH mode, seed) cell, so a
  surprising goodput row can be replayed offline down to its individual
  AFH map installs and capture losses.  Capture is observational, so the
  archived rows are byte-identical to unarchived ones.
* **Jammer-off recovery** (:func:`measure_jammer_off_recovery`) — the
  probing-re-admission phase: learn under the jammer with
  ``probe_interval_assessments`` active, switch the interferer off, and
  track the hop set climbing back to the full band as clean probes stick.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from repro import units
from repro.api import Session
from repro.baseband.packets import PacketType
from repro.config import AfhConfig
from repro.experiments.common import (
    ExperimentResult,
    archive_timeline,
    page_up_pair,
    paper_config,
    run_sweep,
)
from repro.link.traffic import SaturatedTraffic
from repro.options import current
from repro.stats.estimators import ci_cell
from repro.stats.montecarlo import TrialOutcome, default_trials

#: Statically jammed channel counts (contiguous block from channel 0).
INTERFERER_COUNTS = [0, 10, 20]
#: Interferer level; equal to the radios' 0 dBm TX power, so a jammed hop
#: is destroyed at the default 0 dB capture threshold.
JAM_POWER_DBM = 0.0
#: Slots between traffic start and the measurement window — covers the
#: classifier's sampling plus at least two assessments at the defaults.
LEARN_SLOTS = 1600
#: Measurement window.
OBSERVE_SLOTS = 2000
#: Classifier profile used when AFH is on (module-level so the tiny test
#: fixtures can scale it together with the windows).
MIN_SAMPLES = 4
ASSESS_INTERVAL_SLOTS = 400
#: Jammer-off recovery phase: probation cadence (one excluded channel
#: re-admitted per assessment) and the post-jammer window long enough for
#: the probes to walk the whole excluded set at the assessment interval.
RECOVERY_PROBE_INTERVAL = 1
RECOVERY_SLOTS = 16000


def build_afh_session(n_jammed: int, afh_enabled: bool, seed: int,
                      n_piconets: int = 1, probe_interval: int = 0,
                      jam_distance_m: Optional[float] = None,
                      capture: bool = False) -> tuple[Session, list]:
    """``n_piconets`` saturated DM1 master/slave piconets next to
    ``n_jammed`` statically jammed channels.

    The pairs are paged up on a clean band first (the interferer switches
    on only when traffic starts), so AFH-on and AFH-off runs share an
    identical bring-up; with the same seed the two sessions diverge only
    through the hop-set adaptation — each master runs its own classifier.
    ``probe_interval`` enables probing re-admission (the recovery phase);
    ``capture`` turns on the event timeline for drill-down archiving.

    ``jam_distance_m`` places the scenario on the spatial layer: the
    pairs sit at the origin (slaves 1 m east of their masters) and the
    jammer at ``(jam_distance_m, 0)``, so its received floor decays with
    the default log-distance model instead of landing at full strength —
    a jammer within roughly the pair spacing still destroys jammed hops,
    one a few metres out is attenuated below the capture threshold.  The
    default ``None`` keeps the world flat and byte-identical to every
    run recorded before the spatial layer existed.

    Shared by :func:`run_point`, the AFH workload of
    ``benchmarks/bench_sweep.py`` and the AFH test suite.
    """
    config = paper_config(seed=seed, t_poll_slots=4000)
    if afh_enabled:
        config = dataclasses.replace(
            config, afh=AfhConfig(enabled=True, min_samples=MIN_SAMPLES,
                                  assess_interval_slots=ASSESS_INTERVAL_SLOTS,
                                  probe_interval_assessments=probe_interval))
    session = Session(config=config, capture=capture)
    pairs = [page_up_pair(session, index, label="afh")
             for index in range(n_piconets)]
    jam_position = None
    if jam_distance_m is not None:
        from repro.phy.geometry import Position
        topology = session.install_topology()
        for index, (master, slave) in enumerate(pairs):
            topology.place(master.addr, Position(0.0, 2.0 * index))
            topology.place(slave.addr, Position(1.0, 2.0 * index))
        jam_position = Position(jam_distance_m, 0.0)
    if n_jammed:
        session.channel.add_static_interferer(range(n_jammed),
                                              power_dbm=JAM_POWER_DBM,
                                              position=jam_position)
    for master, _ in pairs:
        SaturatedTraffic(master, 1, ptype=PacketType.DM1).start()
    return session, pairs


def measure_aggregate_goodput(n_piconets: int, n_jammed: int,
                              afh_enabled: bool, seed: int,
                              learn_slots: int, observe_slots: int,
                              timeline_label: Optional[str] = None,
                              ) -> tuple[float, list[int]]:
    """Aggregate delivered goodput (kb/s summed over every piconet's
    slave) after a learning window, plus each piconet's final hop-set
    size.  The multi-piconet workload of ``benchmarks/bench_sweep.py``.

    With ``timeline_label`` given *and* ``REPRO_TIMELINE_DIR`` set, the
    run captures its event timeline and archives it as
    ``ext_afh__<timeline_label>.jsonl`` — capture is observational, so
    the returned numbers are unchanged either way.
    """
    capture = (timeline_label is not None
               and current().timeline_dir is not None)
    session, pairs = build_afh_session(n_jammed, afh_enabled, seed,
                                       n_piconets=n_piconets, capture=capture)
    session.run_slots(learn_slots)
    before = [slave.rx_buffer.total_bytes for _, slave in pairs]
    start_ns = session.sim.now
    session.run_slots(observe_slots)
    delivered = sum(slave.rx_buffer.total_bytes - b
                    for (_, slave), b in zip(pairs, before))
    elapsed_s = (session.sim.now - start_ns) / units.SEC
    hop_sets = []
    for master, _ in pairs:
        afh = master.connection_master.afh \
            if master.connection_master is not None else None
        hop_sets.append(afh.hop_set_size if afh is not None
                        else units.NUM_CHANNELS)
    if capture:
        archive_timeline(session, "ext_afh", timeline_label)
    return delivered * 8 / 1000 / elapsed_s, hop_sets


def measure_jammer_off_recovery(n_jammed: int, seed: int,
                                learn_slots: int = LEARN_SLOTS,
                                recovery_slots: int = RECOVERY_SLOTS,
                                probe_interval: int = RECOVERY_PROBE_INTERVAL,
                                ) -> tuple[int, int]:
    """The jammer-turns-off phase: hop-set size at the end of the jammed
    learning window and again after the interferer has been switched off
    for ``recovery_slots``.

    The session runs with probing re-admission active
    (``probe_interval`` excluded channels re-admitted on probation per
    assessment, evidence counters reset), so once
    :meth:`~repro.phy.channel.Channel.clear_static_interferers` silences
    the jammer every probe sees clean traffic and sticks — the hop set
    climbs back toward the full 79-channel band, which sticky exclusion
    (the default ``probe_interval_assessments = 0``) can never do.
    """
    session, pairs = build_afh_session(n_jammed, True, seed,
                                       probe_interval=probe_interval)
    session.run_slots(learn_slots)
    master = pairs[0][0]
    assert master.connection_master is not None
    afh = master.connection_master.afh
    assert afh is not None
    jammed_size = afh.hop_set_size
    session.channel.clear_static_interferers()
    session.run_slots(recovery_slots)
    return jammed_size, afh.hop_set_size


def run_point(n_jammed: int, afh_enabled: bool,
              seed: int) -> tuple[float, int]:
    """Goodput (kb/s) of the observed single-piconet link after the
    learning window, and the hop-set size it ended up with (79 without
    AFH) — the one-pair slice of :func:`measure_aggregate_goodput`."""
    mode = "on" if afh_enabled else "off"
    goodput, hop_sets = measure_aggregate_goodput(
        1, n_jammed, afh_enabled, seed, LEARN_SLOTS, OBSERVE_SLOTS,
        timeline_label=f"jam{n_jammed}_afh{mode}_seed{seed}")
    return goodput, hop_sets[0]


def run_trial(n_jammed: float, seed: int) -> TrialOutcome:
    """Sweep trial: the same seed measured AFH-off then AFH-on (identical
    bring-up, so the pair isolates the hop-set adaptation), with failure
    tolerance like the interference campaign."""
    try:
        goodput_off, _ = run_point(int(n_jammed), False, seed)
        goodput_on, hop_set = run_point(int(n_jammed), True, seed)
    except RuntimeError:
        return TrialOutcome(seed=seed, success=False, value=0.0,
                            extra=(0.0, 0))
    return TrialOutcome(seed=seed, success=True, value=goodput_on,
                        extra=(goodput_off, hop_set))


def run(trials: int = 4, seed: int = 41,
        jobs: Optional[int] = None,
        resume: Optional[str] = None) -> ExperimentResult:
    """Sweep the statically jammed channel count with AFH off and on.

    ``trials`` Monte-Carlo trials per count (``REPRO_TRIALS`` overrides),
    flattened into one (count, trial) work queue.  ``resume`` (or
    ``REPRO_RESUME_DIR``) journals outcomes to disk so a killed campaign
    restarts from its checkpoint (see :mod:`repro.stats.store`).
    """
    trials = default_trials(trials)
    xs = [(float(count), str(count)) for count in INTERFERER_COUNTS]
    points = run_sweep(seed, trials, xs, run_trial, jobs=jobs,
                       resume=resume, store_name="ext_afh")
    result = ExperimentResult(
        experiment_id="ext_afh",
        title="Extension — AFH goodput recovery vs statically jammed channels",
        headers=["jammed", "AFH off kb/s", "AFH on kb/s", "ci95",
                 "recovery %", "hop set", "trials"],
        paper_expectation=("spec 1.2 AFH: goodput returns to the clean "
                           "baseline once the jammed channels leave the "
                           "hop set; without AFH the loss persists at "
                           "~jammed/79 per direction"),
        notes=(f"saturated DM1 link, {JAM_POWER_DBM:.0f} dBm block "
               f"interferer from channel 0, {LEARN_SLOTS}-slot learning + "
               f"{OBSERVE_SLOTS}-slot window, {trials} trials/count; "
               "recovery = AFH-on goodput / clean-channel AFH-off baseline"),
    )
    # clean-channel baseline: the AFH-off goodput of the 0-jammed point
    # (not blindly points[0] — the grid may be overridden without it)
    baseline = None
    for count, point in zip(INTERFERER_COUNTS, points):
        if count == 0:
            successful = [outcome for outcome in point.extra
                          if outcome.success]
            if successful:
                baseline = (sum(outcome.extra[0] for outcome in successful)
                            / len(successful))
            break
    for count, point in zip(INTERFERER_COUNTS, points):
        ok = [outcome for outcome in point.extra if outcome.success]
        goodput_off = (sum(outcome.extra[0] for outcome in ok) / len(ok)
                       if ok else float("nan"))
        hop_set = (sum(outcome.extra[1] for outcome in ok) / len(ok)
                   if ok else float("nan"))
        goodput_on = point.mean.mean
        # ``baseline`` can only be None or a mean over successful trials
        # here, but guard NaN anyway (NaN is truthy) so a pathological
        # baseline renders as the flagged "nan" cell instead of poisoning
        # the division silently.
        recovery = (goodput_on / baseline * 100
                    if baseline and not math.isnan(baseline)
                    else float("nan"))
        result.rows.append([
            count,
            round(goodput_off, 1),
            round(goodput_on, 1),
            ci_cell(point.mean.ci_halfwidth),
            round(recovery, 1),
            round(hop_set, 1),
            f"{point.success.successes}/{point.success.n}",
        ])
    return result
