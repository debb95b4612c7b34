"""Configuration dataclasses shared across the simulator and experiments.

The defaults encode the Bluetooth 1.2 values used by the paper (timeouts of
1.28 s for inquiry and page, 32-frequency inquiry/page sequences split into
two 16-frequency trains, RAND(0..1023) inquiry-scan backoff) plus the
calibration constants documented on their fields below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro import units
from repro.errors import ConfigError


@dataclass(frozen=True)
class NoiseConfig:
    """Channel noise parameters.

    Attributes:
        ber: bit error rate of the channel, 0.0 <= ber < 0.5. Bits on the air
            are inverted independently with this probability (paper section 2:
            "inversion of the bit in the channel controlled by a random number
            generator").
    """

    ber: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.ber < 0.5:
            raise ConfigError(f"BER must lie in [0, 0.5), got {self.ber}")


@dataclass(frozen=True)
class SirConfig:
    """Carrier-offset SIR capture model of the channel resolver.

    The defaults are the **degenerate profile**: infinite adjacent-channel
    rejection and a 0 dB capture threshold make the resolver byte-identical
    to the binary per-RF-channel collision model the reproduction used
    before (any co-channel overlap between equal-power transmissions is
    destructive for both, adjacent channels never interact) — pinned by
    the golden digests in ``tests/sim/test_soa_equivalence.py`` and
    ``tests/experiment_goldens.py``.

    Attributes:
        aci_rejection_1_db: receiver rejection of an interferer one RF
            channel (1 MHz) away, in dB.  ``inf`` (default) means adjacent
            channels do not interact at all.
        aci_rejection_2_db: rejection of an interferer two channels away.
        capture_threshold_db: a reception survives interference when its
            signal-to-interference ratio *exceeds* this threshold (strict,
            so equal-power co-channel overlaps stay destructive at the
            default 0 dB).  Typical capture radios use ~8-11 dB C/I.
    """

    aci_rejection_1_db: float = math.inf
    aci_rejection_2_db: float = math.inf
    capture_threshold_db: float = 0.0

    def __post_init__(self) -> None:
        for name in ("aci_rejection_1_db", "aci_rejection_2_db"):
            value = getattr(self, name)
            if math.isnan(value) or value < 0:
                raise ConfigError(f"{name} must be >= 0 dB (or inf)")
        if not math.isfinite(self.capture_threshold_db):
            raise ConfigError("capture_threshold_db must be finite")
        if self.aci_rejection_2_db < self.aci_rejection_1_db:
            raise ConfigError(
                "aci_rejection_2_db cannot be below aci_rejection_1_db "
                "(rejection grows with carrier offset)")


@dataclass(frozen=True)
class AfhConfig:
    """Adaptive frequency hopping (spec 1.2 AFH, master-side assessment).

    Attributes:
        enabled: masters classify channels and remap the piconet's hop set
            onto the good-channel subset (extension; off by default).
        min_channels: floor of the adaptive hop set (spec: Nmin = 20).
            When exclusion would shrink the set below this, the excluded
            channels with the lowest measured PER are re-admitted.
        bad_per_threshold: a channel is excluded when its measured PER
            (failed reply fraction) reaches this value.
        min_samples: transmissions observed on a channel before it is
            eligible for classification.
        assess_interval_slots: slots between channel assessments (the
            classifier re-evaluates and, if the map changed, installs the
            new hop set for master and slaves alike).
        probe_interval_assessments: every this many assessments, one
            excluded channel is re-admitted **on probation** with its
            evidence counters reset — a short fresh window of
            ``min_samples`` transmissions decides whether it stays (the
            interferer vacated) or is re-excluded at the next assessment.
            This is what wins channels back after a jammer turns off;
            ``0`` (the default) disables probing and keeps exclusion
            sticky.
    """

    enabled: bool = False
    min_channels: int = 20
    bad_per_threshold: float = 0.5
    min_samples: int = 4
    assess_interval_slots: int = 400
    probe_interval_assessments: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.min_channels <= units.NUM_CHANNELS:
            raise ConfigError(
                f"min_channels must be in 1..{units.NUM_CHANNELS}")
        if not 0.0 < self.bad_per_threshold <= 1.0:
            raise ConfigError("bad_per_threshold must lie in (0, 1]")
        if self.min_samples < 1:
            raise ConfigError("min_samples must be >= 1")
        if self.assess_interval_slots <= 0:
            raise ConfigError("assess_interval_slots must be positive")
        if self.probe_interval_assessments < 0:
            raise ConfigError(
                "probe_interval_assessments must be >= 0 (0 disables probing)")


@dataclass(frozen=True)
class RfConfig:
    """RF front-end timing model.

    Attributes:
        modem_delay_ns: modulator + demodulator latency added to every
            over-the-air stage (paper: "the delay of the modulator and
            demodulator RF blocks"; too high a value breaks synchronisation).
        carrier_sense: whether a listener that detects energy on its tuned
            frequency keeps its receive window open until the sync-word
            decision (models the correlator's behaviour).
    """

    modem_delay_ns: int = 2 * units.US
    carrier_sense: bool = True

    def __post_init__(self) -> None:
        if self.modem_delay_ns < 0:
            raise ConfigError("RF delays must be non-negative")


@dataclass(frozen=True)
class LinkConfig:
    """Link-controller parameters (Bluetooth 1.2 defaults).

    Attributes:
        inquiry_timeout_slots: application-layer inquiry timeout. The paper
            fixes it at 1.28 s = 2048 slots.
        page_timeout_slots: application-layer page timeout (same 1.28 s).
        page_resp_timeout_slots: pagerespTO — slots a paged slave waits for
            the master's FHS after answering an ID before falling back.
        inq_resp_backoff_slots: upper bound (exclusive) of the uniform random
            backoff RAND(0..N-1) a scanner sleeps between its first and second
            ID receptions in inquiry scan. Spec: 1024.
        new_connection_timeout_slots: newconnectionTO — slots the master waits
            for the slave's first response in connection state before
            declaring the page attempt failed.
        train_size: frequencies per page/inquiry train (spec: 16).
        train_repetitions: Ninquiry/Npage — train repetitions before swapping
            A<->B trains. The spec floor is 256; the default here is 128
            (train swap after 1.28 s), which reproduces the paper's measured
            1556-slot mean inquiry duration: with both devices' clocks
            advancing in lockstep, the scanner's phase offset relative to
            the train is constant, and an out-of-train scanner is only
            reached after a swap. E[T] = 1/2*530 + 1/2*(2048+530) ~ 1554
            slots. The ``ablation_trains`` experiment sweeps it.
        t_poll_slots: master polling interval per active slave (even slots).
        sync_threshold: maximum sync-word bit mismatches the correlator
            accepts (of 64) for packets carrying a header/payload.
            7 mismatches ~= the 57-bit correlation threshold commonly used
            in implementations. The paper profile (fig07/fig08) sets this
            to 0: the paper's behavioural receiver bit-compares framed
            packets' access codes, which is what collapses its page phase
            at high BER.
        id_sync_threshold: correlator threshold for bare ID packets. ID
            detection is a pure sliding-correlator decision in any receiver
            (there is nothing else to check), and the paper itself observes
            that ID packets are the least noise-sensitive — so this stays
            at the spec's 7 in both profiles.
        active_listen_ns: RX window an *active* (connected, synchronised)
            slave opens at every master-slot start; 32.5 us reproduces the
            paper's 2.6 % active-mode RF activity baseline.
        hold_resync_poll_slots: T_poll used by the master while a slave
            re-synchronises after hold (fig12 config uses 6).
    """

    inquiry_timeout_slots: int = 2048
    page_timeout_slots: int = 2048
    page_resp_timeout_slots: int = 8
    inq_resp_backoff_slots: int = 1024
    new_connection_timeout_slots: int = 32
    train_size: int = 16
    train_repetitions: int = 128
    t_poll_slots: int = 6
    sync_threshold: int = 7
    id_sync_threshold: int = 7
    active_listen_ns: int = round(32.5 * units.US)
    hold_resync_poll_slots: int = 6

    def __post_init__(self) -> None:
        if self.train_size <= 0 or self.train_size > 32:
            raise ConfigError("train_size must be in 1..32")
        if self.sync_threshold < 0 or self.sync_threshold > 64:
            raise ConfigError("sync_threshold must be in 0..64")
        if self.id_sync_threshold < 0 or self.id_sync_threshold > 64:
            raise ConfigError("id_sync_threshold must be in 0..64")
        for name in (
            "inquiry_timeout_slots",
            "page_timeout_slots",
            "page_resp_timeout_slots",
            "inq_resp_backoff_slots",
            "new_connection_timeout_slots",
            "train_repetitions",
            "t_poll_slots",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level configuration bundle for a Bluetooth simulation.

    Attributes:
        seed: master seed; all randomness derives from it deterministically.
        noise: channel noise parameters.
        rf: RF front-end timing model.
        sir: carrier-offset SIR capture parameters of the channel resolver
            (degenerate binary-collision profile by default).
        afh: adaptive-frequency-hopping parameters (disabled by default).
        link: link-controller parameters.
        bit_accurate: if True the channel encodes/decodes full air frames and
            flips individual bits; if False it uses the statistical per-stage
            error model (:mod:`repro.baseband.errormodel`, cross-validated
            against the codec in
            ``tests/properties/test_errormodel_cross_validation.py``).
        trace: if True, record enable_tx_RF / enable_rx_RF / state waveforms.
    """

    seed: int = 0
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    rf: RfConfig = field(default_factory=RfConfig)
    sir: SirConfig = field(default_factory=SirConfig)
    afh: AfhConfig = field(default_factory=AfhConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    bit_accurate: bool = False
    trace: bool = False

    def with_ber(self, ber: float) -> "SimulationConfig":
        """Return a copy of this config with a different channel BER."""
        return replace(self, noise=replace(self.noise, ber=ber))

    def with_seed(self, seed: int) -> "SimulationConfig":
        """Return a copy of this config with a different master seed."""
        return replace(self, seed=seed)
