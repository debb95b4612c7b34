"""Adaptive frequency hopping: channel assessment and hop-set control.

Spec 1.2 introduces AFH so a piconet parked next to a static interferer
(Wi-Fi carrier, microwave oven, a neighbour's fixed-channel link) can fold
the damaged RF channels out of its hop sequence; Classen & Hollick
("Inside Job", PAPERS.md) single out exactly this channel-map dynamic as
the lower-layer behaviour worth modelling.  The model here is the
master-side half of that machinery:

* :class:`ChannelClassifier` accumulates per-RF-channel PER statistics
  from the master's reply outcomes — every data/POLL transmission on
  channel ``f`` that solicits a reply is a sample on ``f``, scored good
  when the reply arrives (the master's ``Reception``) and bad when the
  reply window passes silent.  Losses on the *reply* frequency are thereby
  mis-attributed to the transmit frequency.  The mis-attribution is
  uniform across the hop set (apparent PER of a clean channel ≈ the
  damaged fraction of the band, ~25 % when 20 of 79 channels are jammed),
  so in *expectation* it stays below the 50 % threshold — but at the
  default ``min_samples`` a minority of clean channels does draw 2-of-4
  early failures and gets excluded along with the jammed ones (the
  committed campaigns converge to ~39-46 used channels under a 20-channel
  jam rather than the ideal 59).  That costs frequency diversity, not
  goodput — every retained channel is clean — and the ``min_channels``
  floor bounds how far it can go; probing re-admission (below) wins the
  diversity back when enabled.
* :class:`AfhController` periodically classifies, accumulates the **bad
  set** (sticky by default — an excluded channel receives no further
  transmissions, hence no evidence for re-admission), enforces the
  spec's ``N_min`` floor by re-admitting the least-bad channels, and
  installs the resulting map through
  :meth:`~repro.link.piconet.Piconet.set_channel_map` — which reaches the
  slaves' selectors through the world's shared per-address hop state, the
  model's stand-in for the LMP_set_AFH handshake.
* **Probing re-admission**
  (:attr:`~repro.config.AfhConfig.probe_interval_assessments`): every N
  assessments one excluded channel is re-admitted on probation with its
  evidence counters reset, so a short fresh window of traffic decides
  whether the interferer has vacated.  A clean probe keeps the channel; a
  still-jammed one re-excludes it through the ordinary classification
  path once ``min_samples`` fresh failures accumulate.  This is what lets
  the hop set recover after a jammer turns off.

The hop-sequence remapping itself lives in :mod:`repro.baseband.hop`:
a memo miss of :meth:`~repro.baseband.hop.HopSelector.connection` remaps
its one slot, and :meth:`~repro.baseband.hop.HopSelector.connection_many`
and the slot engine's prefill remap as an array transform.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro import units
from repro.config import AfhConfig
from repro.link.piconet import Piconet

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.channel import Channel


class ChannelClassifier:
    """Per-RF-channel transmission/failure counters (master's view)."""

    __slots__ = ("tx_counts", "fail_counts")

    def __init__(self) -> None:
        self.tx_counts = np.zeros(units.NUM_CHANNELS, dtype=np.int64)
        self.fail_counts = np.zeros(units.NUM_CHANNELS, dtype=np.int64)

    def record(self, freq: int, ok: bool) -> None:
        """Score one solicited-reply outcome on channel ``freq``."""
        self.tx_counts[freq] += 1
        if not ok:
            self.fail_counts[freq] += 1

    def per(self) -> np.ndarray:
        """Measured PER per channel (0.0 where nothing was sampled)."""
        counts = self.tx_counts
        return np.divide(self.fail_counts, counts,
                         out=np.zeros(units.NUM_CHANNELS),
                         where=counts > 0)


class AfhController:
    """Master-side assessment loop driving a piconet's adaptive hop set."""

    def __init__(self, piconet: Piconet, config: AfhConfig,
                 channel: Optional["Channel"] = None):
        self.piconet = piconet
        self.config = config
        # the world's channel, when given, provides simulation time and
        # the optional timeline-capture sink for assessment records
        self._channel = channel
        self.classifier = ChannelClassifier()
        self._excluded = np.zeros(units.NUM_CHANNELS, dtype=bool)
        self._pending_freq: Optional[int] = None
        self._interval_pairs = max(1, config.assess_interval_slots // 2)
        self._next_assess_pair: Optional[int] = None
        self._assessments = 0
        self._probe_cursor = 0
        self.maps_installed = 0
        self.probes_started = 0

    @property
    def hop_set_size(self) -> int:
        """Channels currently in the adaptive hop set."""
        return units.NUM_CHANNELS - int(self._excluded.sum())

    # -- sample collection (wired into ConnectionMaster) ---------------------

    def note_tx(self, freq: int) -> None:
        """A reply-soliciting packet went out on ``freq``; an outstanding
        unanswered transmission is scored as a failure first."""
        if self._pending_freq is not None:
            self.classifier.record(self._pending_freq, ok=False)
        self._pending_freq = freq

    def note_reply(self) -> None:
        """The outstanding transmission's reply arrived."""
        if self._pending_freq is not None:
            self.classifier.record(self._pending_freq, ok=True)
            self._pending_freq = None

    # -- assessment ----------------------------------------------------------

    def maybe_assess(self, pair: int) -> None:
        """Run an assessment when the configured interval has elapsed."""
        if self._next_assess_pair is None:
            self._next_assess_pair = pair + self._interval_pairs
            return
        if pair < self._next_assess_pair:
            return
        self._next_assess_pair = pair + self._interval_pairs
        self.assess()

    def assess(self) -> None:
        """Classify channels and install the updated hop set if it changed."""
        config = self.config
        classifier = self.classifier
        per = classifier.per()
        bad = (classifier.tx_counts >= config.min_samples) \
            & (per >= config.bad_per_threshold)
        excluded = self._excluded | bad
        self._assessments += 1
        interval = config.probe_interval_assessments
        if interval and self._assessments % interval == 0 and excluded.any():
            probe = self._next_probe_channel(excluded)
            if probe is not None:
                # probation: re-admit and reset the evidence counters, so
                # the verdict comes from a fresh min_samples-sized window
                # of post-re-admission traffic, not from the history that
                # got the channel excluded in the first place
                excluded[probe] = False
                classifier.tx_counts[probe] = 0
                classifier.fail_counts[probe] = 0
                self.probes_started += 1
        used = ~excluded
        deficit = config.min_channels - int(used.sum())
        if deficit > 0:
            # spec N_min floor: re-admit the least-bad excluded channels
            # (ties resolved toward the lowest channel index)
            order = np.lexsort((np.arange(units.NUM_CHANNELS), per))
            for channel in order:
                if excluded[channel]:
                    used[channel] = True
                    deficit -= 1
                    if deficit == 0:
                        break
        installed = not np.array_equal(~used, self._excluded)
        if installed:
            self._excluded = ~used
            self.piconet.set_channel_map(used if not used.all() else None)
            self.maps_installed += 1
        cap = self._channel.capture if self._channel is not None else None
        if cap is not None:
            now = self._channel.sim.now
            src = f"afh.{self.piconet.master_addr.lap:06X}"
            cap.assess(now, src, int(bad.sum()), installed)
            if installed:
                cap.afh_map(now, src, n_used=int(used.sum()),
                            excluded=np.flatnonzero(~used).tolist())

    def _next_probe_channel(self, excluded: np.ndarray) -> Optional[int]:
        """The next excluded channel in round-robin order from the probe
        cursor, so successive probes walk the whole excluded set instead
        of hammering its lowest index."""
        for step in range(units.NUM_CHANNELS):
            channel = (self._probe_cursor + step) % units.NUM_CHANNELS
            if excluded[channel]:
                self._probe_cursor = (channel + 1) % units.NUM_CHANNELS
                return int(channel)
        return None
