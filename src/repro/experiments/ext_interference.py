"""Extension — dense-deployment co-channel interference campaign.

The paper's introduction cites Cordeiro et al. and El-Hoiydi on exactly
this question: Bluetooth piconets are uncoordinated, so two piconets
occasionally hop onto the same RF channel in the same slot and destroy
each other's packets.  With 79 channels and saturated traffic the expected
per-slot collision probability against one interferer is ≈ 1/79, and the
packet error rate grows roughly linearly with the number of interfering
piconets (≈ (n−1)/79 for small n).

This campaign measures that degradation out to **dense deployments**
(20+ co-located piconets, mixed DM1/DM3/DH5 traffic) with the same
frequency-aware resolver the reproduction uses everywhere.  Its worlds
run at BER 0, so the statistical channel decodes without drawing (each
listener's access-code screen decides), and the slot engine steps their
steady state, prefilling every piconet's hops in one array pass over the
PERM5 lookup tables so that each slot's lookup is a memo hit.

Statistics: each piconet count is a Monte-Carlo point dispatched through
``Sweep``/``run_flattened`` (one flat work queue over the whole
count × trial grid, collision-free two-level ``derive_seed`` seeding).
Rows report the trial-averaged goodput of piconet 0 with its 95 % CI, the
goodput loss versus the single-piconet baseline, and the *measured*
packet error rate of the observed link with a Wilson interval over all
(transmitted, delivered) packets of the window.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from repro import units
from repro.api import Session
from repro.baseband.packets import PacketType
from repro.config import SirConfig
from repro.experiments.common import (
    ExperimentResult,
    archive_timeline,
    page_up_pair,
    paper_config,
    run_sweep,
    run_sweeps,
    timeline_dir,
)
from repro.link.traffic import SaturatedTraffic
from repro.phy.geometry import LogDistancePathLoss, Position, ring_layout
from repro.stats.estimators import ci_cell, wilson_interval
from repro.stats.montecarlo import TrialOutcome, default_trials

#: Dense-deployment grid: out to 20 co-located piconets.
PICONET_COUNTS = [1, 2, 4, 8, 12, 16, 20]
OBSERVE_SLOTS = 3000

# -- spatial campaign mode ---------------------------------------------
#: Deployment-ring radii (metres) swept at SPATIAL_PICONETS piconets.
SPATIAL_RADII = [1.0, 2.0, 4.0, 8.0]
#: Piconet counts swept at SPATIAL_RADIUS_M metres.
SPATIAL_COUNTS = [2, 4, 8, 12]
SPATIAL_PICONETS = 8
SPATIAL_RADIUS_M = 2.0
#: Master→slave separation inside each pair (metres).
SPATIAL_PAIR_SPACING_M = 1.0
#: Log-distance exponent of the spatial profile (obstructed indoor).
SPATIAL_EXPONENT = 3.0
#: Capture threshold of the spatial profile.  The degenerate 0 dB
#: threshold makes *any* interferer farther than the pair spacing
#: harmless (SIR > 0 the moment the wanted path is shorter); 10 dB is
#: the typical capture-radio C/I and gives the campaign its geometry
#: knee — interferers inside ~10^(10/(10·n)) × pair-spacing metres
#: destroy, farther ones lose capture.
SPATIAL_CAPTURE_DB = 10.0

#: Per-piconet traffic mix (piconet ``i`` saturates with ``MIX[i % 3]``).
#: Piconet 0 — the observed link — carries DM1, the paper's default ACL
#: type, so the (n−1)/79 expectation applies to the measured column.
TRAFFIC_MIX = (PacketType.DM1, PacketType.DM3, PacketType.DH5)


def analytic_per(n_piconets: int) -> float:
    """The cited literature's per-packet collision expectation against
    ``n_piconets − 1`` independent saturated interferers on 79 channels:
    ``1 − (78/79)^(n−1)``, the exact form whose small-``n`` linearisation
    is the commonly quoted ``(n−1)/79``.  Returned as a fraction in
    [0, 1); single place both the campaign's notes and
    ``benchmarks/bench_ext_interference.py``'s expectation band are
    computed from, so the asserted formula and the reported one cannot
    drift apart.
    """
    if n_piconets < 1:
        raise ValueError("n_piconets must be >= 1")
    return 1.0 - (78 / 79) ** (n_piconets - 1)


def build_campaign_session(
        n_piconets: int, seed: int, ber: float = 0.0,
        bit_accurate: bool = False,
        capture: bool = False) -> tuple[Session, list]:
    """A session with ``n_piconets`` saturated piconets paged up and warmed.

    Each piconet is one master/slave pair (paged at the configured BER
    under a 4096-slot guard), saturating with its ``TRAFFIC_MIX`` packet
    type, run 200 warm-up slots past traffic start.  Returns the session
    and the ``(master, slave)`` pairs.  ``capture`` turns on the event
    timeline (observational only).  Shared by :func:`run_point`, the
    dense-point rows of ``benchmarks/bench_sweep.py`` and the golden-digest
    equivalence suite, so all three measure the same bring-up protocol.
    """
    session = Session(config=paper_config(ber=ber, seed=seed,
                                          bit_accurate=bit_accurate,
                                          t_poll_slots=4000),
                      capture=capture)
    pairs = [page_up_pair(session, index, label="interference")
             for index in range(n_piconets)]
    for index, (master, _) in enumerate(pairs):
        SaturatedTraffic(master, 1,
                         ptype=TRAFFIC_MIX[index % len(TRAFFIC_MIX)]).start()
    session.run_slots(200)
    return session, pairs


def run_point(n_piconets: int, seed: int) -> tuple[float, float, int, int, int]:
    """One trial at ``n_piconets`` co-located saturated piconets.

    Returns ``(goodput_kbps, loss_ratio, tx_packets, rx_packets,
    collisions)`` for the observed piconet-0 link over the measurement
    window: delivered goodput in kb/s, the measured fraction of master
    data/poll packets that did not arrive (the real per-piconet loss — the
    old implementation returned a hard-coded ``0.0`` here), the raw packet
    counts behind it, and the channel's collision count in the window.

    With ``REPRO_TIMELINE_DIR`` set the trial captures its event timeline
    and archives it as ``ext_interference__n<count>_seed<seed>.jsonl``.
    """
    capture = timeline_dir() is not None
    session, pairs = build_campaign_session(n_piconets, seed, capture=capture)
    master0, slave0 = pairs[0]
    assert master0.connection_master is not None
    assert slave0.connection_slave is not None
    bytes_before = slave0.rx_buffer.total_bytes
    tx_before = master0.connection_master.stats_tx_packets
    rx_before = slave0.connection_slave.stats_rx_packets
    collisions_before = session.channel.collisions
    start_ns = session.sim.now
    session.run_slots(OBSERVE_SLOTS)
    delivered = slave0.rx_buffer.total_bytes - bytes_before
    tx_packets = master0.connection_master.stats_tx_packets - tx_before
    rx_packets = slave0.connection_slave.stats_rx_packets - rx_before
    collisions = session.channel.collisions - collisions_before
    if capture:
        archive_timeline(session, "ext_interference",
                         f"n{n_piconets}_seed{seed}")
    elapsed_s = (session.sim.now - start_ns) / units.SEC
    goodput = delivered * 8 / 1000 / elapsed_s
    loss_ratio = 1.0 - rx_packets / tx_packets if tx_packets else 0.0
    return goodput, loss_ratio, tx_packets, rx_packets, collisions


def run_trial(n_piconets: float, seed: int) -> TrialOutcome:
    """Sweep trial wrapper: ``run_point`` with failure tolerance (a page
    that cannot complete under interference counts as a failed trial
    rather than aborting the whole campaign)."""
    try:
        goodput, loss, tx, rx, collisions = run_point(int(n_piconets), seed)
    except RuntimeError:
        return TrialOutcome(seed=seed, success=False, value=0.0,
                            extra=(0.0, 0, 0, 0))
    return TrialOutcome(seed=seed, success=True, value=goodput,
                        extra=(loss, tx, rx, collisions))


def run(trials: int = 4, seed: int = 22,
        jobs: Optional[int] = None,
        resume: Optional[str] = None) -> ExperimentResult:
    """Sweep the number of co-located saturated piconets.

    ``trials`` Monte-Carlo trials per piconet count (``REPRO_TRIALS``
    overrides), fanned out as one flattened (count, trial) work queue.
    Per-trial seeds come from the two-level collision-free ``derive_seed``
    path, like every other experiment.

    ``resume`` (or ``REPRO_RESUME_DIR``) names a directory holding the
    campaign's result journal: completed trials are skipped on restart
    and every fresh outcome is checkpointed as it lands, so a killed
    campaign resumes byte-identically (see :mod:`repro.stats.store`).
    """
    trials = default_trials(trials)
    xs = [(float(count), str(count)) for count in PICONET_COUNTS]
    points = run_sweep(seed, trials, xs, run_trial, jobs=jobs,
                       resume=resume, store_name="ext_interference")
    result = ExperimentResult(
        experiment_id="ext_interference",
        title="Extension — piconet 0 goodput vs co-located piconets",
        headers=["piconets", "goodput kb/s", "ci95", "loss vs alone %",
                 "PER %", "PER 95% CI", "collisions/trial", "trials"],
        paper_expectation=("cited literature: PER ~ 1-(78/79)^(n-1) "
                           "(~ (n-1)/79 for small n, see analytic_per); "
                           "graceful, near-linear degradation"),
        notes=(f"saturated DM1/DM3/DH5 mix, {OBSERVE_SLOTS}-slot window, "
               f"{trials} trials/count; PER = measured loss on the observed "
               "DM1 link, Wilson 95% interval over all packets"),
    )
    # NaN guard: a zero-successful-trial baseline point yields the
    # flagged-NaN conditional mean (see _aggregate_point), and NaN is
    # truthy — ``if baseline`` alone would happily divide by it.
    baseline = points[0].mean.mean if points else float("nan")
    for count, point in zip(PICONET_COUNTS, points):
        goodput = point.mean.mean
        loss = ((1 - goodput / baseline) * 100
                if baseline and not math.isnan(baseline) else float("nan"))
        tx_total = sum(outcome.extra[1] for outcome in point.extra
                       if outcome.success)
        rx_total = sum(outcome.extra[2] for outcome in point.extra
                       if outcome.success)
        collisions = [outcome.extra[3] for outcome in point.extra
                      if outcome.success]
        delivered = wilson_interval(rx_total, tx_total)
        per = (1 - delivered.p) * 100 if tx_total else float("nan")
        per_ci = (f"[{(1 - delivered.hi) * 100:.2f}, "
                  f"{(1 - delivered.lo) * 100:.2f}]" if tx_total else "n/a")
        result.rows.append([
            count,
            round(goodput, 1),
            ci_cell(point.mean.ci_halfwidth),
            round(loss, 1),
            round(per, 2),
            per_ci,
            round(sum(collisions) / len(collisions), 1) if collisions else 0.0,
            f"{point.success.successes}/{point.success.n}",
        ])
    return result


# ----------------------------------------------------------------------
# Spatial campaign mode
# ----------------------------------------------------------------------

def build_spatial_session(n_piconets: int, radius_m: float, seed: int,
                          capture: bool = False) -> tuple[Session, list]:
    """``n_piconets`` saturated piconets spread on a deployment ring.

    Bring-up is identical to :func:`build_campaign_session` (paged flat,
    so every radius starts from the same connected world); the spatial
    profile is then installed — a log-distance path loss with exponent
    ``SPATIAL_EXPONENT`` and a ``SPATIAL_CAPTURE_DB`` capture threshold —
    and piconet masters are placed evenly on a ring of ``radius_m``
    metres, each with its slave ``SPATIAL_PAIR_SPACING_M`` metres away.
    At that spacing an interferer is destructive only inside
    ``10^(CAPTURE/(10·EXP))`` × spacing ≈ 2.15 m, so PER falls from the
    co-located ceiling to zero as the ring opens up.
    """
    config = dataclasses.replace(
        paper_config(seed=seed, t_poll_slots=4000),
        sir=SirConfig(capture_threshold_db=SPATIAL_CAPTURE_DB))
    session = Session(config=config, capture=capture)
    pairs = [page_up_pair(session, index, label="interference")
             for index in range(n_piconets)]
    topology = session.install_topology(
        LogDistancePathLoss(exponent=SPATIAL_EXPONENT))
    for (master, slave), spot in zip(pairs, ring_layout(n_piconets, radius_m)):
        topology.place(master.addr, spot)
        topology.place(slave.addr,
                       Position(spot.x + SPATIAL_PAIR_SPACING_M, spot.y))
    for index, (master, _) in enumerate(pairs):
        SaturatedTraffic(master, 1,
                         ptype=TRAFFIC_MIX[index % len(TRAFFIC_MIX)]).start()
    session.run_slots(200)
    return session, pairs


def run_spatial_point(n_piconets: int, radius_m: float,
                      seed: int) -> tuple[float, float, int, int, int]:
    """One trial of the spatial deployment: same observed-link counters
    as :func:`run_point`, measured on the geometry-aware world."""
    capture = timeline_dir() is not None
    session, pairs = build_spatial_session(n_piconets, radius_m, seed,
                                           capture=capture)
    master0, slave0 = pairs[0]
    assert master0.connection_master is not None
    assert slave0.connection_slave is not None
    bytes_before = slave0.rx_buffer.total_bytes
    tx_before = master0.connection_master.stats_tx_packets
    rx_before = slave0.connection_slave.stats_rx_packets
    collisions_before = session.channel.collisions
    start_ns = session.sim.now
    session.run_slots(OBSERVE_SLOTS)
    delivered = slave0.rx_buffer.total_bytes - bytes_before
    tx_packets = master0.connection_master.stats_tx_packets - tx_before
    rx_packets = slave0.connection_slave.stats_rx_packets - rx_before
    collisions = session.channel.collisions - collisions_before
    if capture:
        archive_timeline(session, "ext_interference_spatial",
                         f"n{n_piconets}_r{radius_m:g}_seed{seed}")
    elapsed_s = (session.sim.now - start_ns) / units.SEC
    goodput = delivered * 8 / 1000 / elapsed_s
    loss_ratio = 1.0 - rx_packets / tx_packets if tx_packets else 0.0
    return goodput, loss_ratio, tx_packets, rx_packets, collisions


def _spatial_trial(n_piconets: int, radius_m: float, seed: int) -> TrialOutcome:
    try:
        goodput, loss, tx, rx, collisions = \
            run_spatial_point(n_piconets, radius_m, seed)
    except RuntimeError:
        return TrialOutcome(seed=seed, success=False, value=0.0,
                            extra=(0.0, 0, 0, 0))
    return TrialOutcome(seed=seed, success=True, value=goodput,
                        extra=(loss, tx, rx, collisions))


def run_spatial_radius_trial(radius_m: float, seed: int) -> TrialOutcome:
    """Radius-sweep trial: ``SPATIAL_PICONETS`` piconets on a ring of
    ``radius_m`` metres (module-level so the sweep journal can name it)."""
    return _spatial_trial(SPATIAL_PICONETS, radius_m, seed)


def run_spatial_density_trial(n_piconets: float, seed: int) -> TrialOutcome:
    """Density-sweep trial: ``n_piconets`` piconets on the fixed
    ``SPATIAL_RADIUS_M``-metre ring."""
    return _spatial_trial(int(n_piconets), SPATIAL_RADIUS_M, seed)


def _spatial_rows(result: ExperimentResult, label_values: list,
                  points: list) -> None:
    """Append one aggregated row per sweep point (shared by the radius
    and density halves of the campaign — same columns as the co-located
    campaign, minus the loss-vs-baseline delta)."""
    for label, point in zip(label_values, points):
        tx_total = sum(outcome.extra[1] for outcome in point.extra
                       if outcome.success)
        rx_total = sum(outcome.extra[2] for outcome in point.extra
                       if outcome.success)
        delivered = wilson_interval(rx_total, tx_total)
        per = (1 - delivered.p) * 100 if tx_total else float("nan")
        per_ci = (f"[{(1 - delivered.hi) * 100:.2f}, "
                  f"{(1 - delivered.lo) * 100:.2f}]" if tx_total else "n/a")
        result.rows.append([
            label,
            round(point.mean.mean, 1),
            ci_cell(point.mean.ci_halfwidth),
            round(per, 2),
            per_ci,
            f"{point.success.successes}/{point.success.n}",
        ])


def run_spatial(trials: int = 4, seed: int = 22,
                jobs: Optional[int] = None,
                resume: Optional[str] = None) -> ExperimentResult:
    """Spatial deployment campaign: PER versus deployment radius at a
    fixed piconet count, and versus piconet count at a fixed radius.

    Both sweeps go to the executor as one flattened work queue
    (:func:`run_sweeps`), with the usual trial/seed/resume semantics.
    The radius sweep is the geometry acceptance curve: at fixed density
    the packet error rate must fall monotonically as the ring opens up.
    """
    trials = default_trials(trials)
    radius_xs = [(radius, f"r={radius:g} m") for radius in SPATIAL_RADII]
    count_xs = [(float(count), str(count)) for count in SPATIAL_COUNTS]
    radius_points, count_points = run_sweeps(
        [(seed, trials, radius_xs, run_spatial_radius_trial),
         (seed + 1, trials, count_xs, run_spatial_density_trial)],
        jobs=jobs, resume=resume, store_name="ext_interference_spatial")
    result = ExperimentResult(
        experiment_id="ext_interference_spatial",
        title="Extension — PER vs deployment geometry (log-distance PHY)",
        headers=["point", "goodput kb/s", "ci95", "PER %", "PER 95% CI",
                 "trials"],
        paper_expectation=(
            "PER falls monotonically with deployment radius at fixed "
            "piconet count (interferers leave the ~2 m capture zone) and "
            "grows with density at fixed radius"),
        notes=(f"log-distance n={SPATIAL_EXPONENT:g}, capture "
               f"{SPATIAL_CAPTURE_DB:g} dB, pair spacing "
               f"{SPATIAL_PAIR_SPACING_M:g} m; radius sweep at "
               f"{SPATIAL_PICONETS} piconets, density sweep at "
               f"{SPATIAL_RADIUS_M:g} m; {OBSERVE_SLOTS}-slot window, "
               f"{trials} trials/point"),
    )
    _spatial_rows(result, [f"r={radius:g} m" for radius in SPATIAL_RADII],
                  radius_points)
    _spatial_rows(result, [f"n={count}" for count in SPATIAL_COUNTS],
                  count_points)
    return result
