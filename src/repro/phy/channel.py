"""The shared radio channel (the paper's Fig. 2 module).

Responsibilities:

* **Noise** — bit inversions at the configured BER, either by flipping real
  encoded bits (bit-accurate mode) or by sampling the per-stage decode
  outcome from the closed-form model (statistical mode).
* **Collision resolution** — a carrier-offset **SIR capture model**: every
  transmission accumulates the interference power of co-channel and
  adjacent-channel (±1/±2 MHz, attenuated by the configured ACI rejection)
  overlappers plus any parked static interferers, and is destroyed (the
  resolver's 'X') when its signal-to-interference ratio fails to exceed
  the capture threshold.  The default :class:`~repro.config.SirConfig` is
  degenerate — infinite adjacent rejection, 0 dB threshold, equal powers —
  which reproduces the old binary per-RF-channel resolver byte-for-byte
  (the golden digests of ``tests/sim/test_soa_equivalence.py`` and
  ``tests/experiment_goldens.py`` pin this).  Unlike the paper's
  frequency-less resolver we track interference per RF channel, which is
  strictly more accurate and is needed for the multi-piconet extension.
* **Modem delay** — receivers perceive all stage times shifted by the
  configured modulator+demodulator latency.
* **Staged delivery** — carrier-on at TX start, sync-word decision 68 µs in,
  header decision (AM_ADDR visible) 58 µs later, full decode at packet end.
  This produces the exact enable_rx_RF waveforms of the paper's Figs. 5/9,
  including a slave dropping out of a packet addressed to another slave.

The decode outcome for a (transmission, listener) pair is drawn **once**, at
the sync stage, and revealed progressively — so the staged view is always
self-consistent.

Hot-path structure (the many-device piconet campaigns dispatch hundreds of
thousands of these per second):

* Listener lookup is indexed by RF channel: radios report tuning changes
  via :meth:`Channel.listener_retuned`, so a transmission only visits the
  radios tuned to (or frequency-following onto) its own channel — O(radios
  on channel), not O(all radios).  Candidates are visited in attach order,
  which keeps event sequence numbers — and therefore every outcome —
  identical to the full-walk implementation.
* Live transmissions are keyed dicts per RF channel.  Expiry is lazy and
  schedules no event: a radio's previous transmission leaves the live set
  when it transmits again, so the live sets hold at most one ended entry
  per radio, which the resolvers skip.
* A receiver locks onto one packet at a time, so the decode outcome its
  header and end stages read is kept on the radio beside the lock
  (``locked_tx`` / ``locked_result``); powering down clears both.
* Stage callbacks are ``functools.partial`` bindings of bound methods, not
  capturing lambdas — no closure-cell allocation per scheduled stage.
* All receptions of a transmission resolved at the same sync instant are
  grouped into **one sync event**, which decodes each listener as it
  delivers to it — see :meth:`Channel.sync` for why that is
  byte-identical to one sync event per listener.

Each stage is one method that acts and returns what follows it:
:meth:`Channel.scan` the receivers, :meth:`Channel.sync` the listeners
whose header stage follows, :meth:`Channel.header` whether the end stage
follows and :meth:`Channel.end` the events the reception calls for.  The
object kernel's stage events (``_scan_listeners``, ``_sync_batch``,
``_header_stage``, ``_end_stage``) queue those on the simulator; the slot
engine (:mod:`repro.sim.soa`) calls the same methods from its own loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Iterable, Optional

from repro.baseband.codec import DecodeResult, decode_packet, encode_packet
from repro.baseband.errormodel import StageErrorModel
from repro.baseband.bits import flip_bits
from repro.baseband.hop import HopRegistry
from repro.baseband.packets import Packet, PacketType, packet_air_bits
from repro.baseband.timing import HEADER_DECISION_NS, SYNC_DECISION_NS
from repro.units import BIT_NS
from repro.config import SimulationConfig
from repro.errors import ChannelError
from repro.phy.geometry import Position, Topology
from repro.phy.noise import BerNoise
from repro.phy.rf import RfFrontEnd
from repro.phy.transmission import Transmission, TxMeta
from repro.sim.module import Module
from repro.sim.rng import RandomStreams
from repro.sim.simulator import Simulator

# packet types tested for every packet, as module constants: the
# interpreter does not cache attribute lookups on an Enum class
_ID, _FHS = PacketType.ID, PacketType.FHS

_new = object.__new__

#: Registry key of a frequency-following receiver (its tuned channel is a
#: function of time, so it is a candidate for every transmission).
_FOLLOWING = -1


def _dbm_to_mw(dbm: float) -> float:
    """Linear power; -inf dBm maps to exactly 0 mW."""
    return 10.0 ** (dbm / 10.0)


@dataclass(slots=True)
class Reception:
    """A completed reception at one radio.

    Attributes:
        tx: the transmission that was received.
        result: staged decode outcome.
        collided: True when the channel resolver saw overlapping packets.
        rx_time_ns: receiver-side end-of-packet time.
    """

    tx: Transmission
    result: DecodeResult
    collided: bool
    rx_time_ns: int

    @property
    def packet(self) -> Packet:
        """The decoded packet (only valid when ``result.complete``)."""
        assert self.result.packet is not None
        return self.result.packet


class Channel(Module):
    """Single shared medium connecting every radio in the simulation."""

    def __init__(self, sim: Simulator, name: str, config: SimulationConfig,
                 rngs: RandomStreams):
        super().__init__(sim, name, parent=None)
        self.config = config
        # world-scoped shared hop state: per-address connection memos and
        # adaptive hop sets live here, so concurrent worlds never see each
        # other's maps (see repro.baseband.hop.HopRegistry)
        self.hop_registry = HopRegistry()
        #: Optional :class:`~repro.sim.capture.TimelineCapture` sink.  Every
        #: hook site guards on ``is not None``, so a world without capture
        #: pays one attribute test and stays byte-identical.
        self.capture = None
        self.radios: list[RfFrontEnd] = []
        # live transmissions per RF channel, keyed by id(tx); an entry
        # past its end_ns stays until its radio transmits again
        self._active_by_freq: dict[int, dict[int, Transmission]] = {}
        # each radio's latest transmission, by attach index
        self._last_tx: list[Transmission | None] = []
        # tuning registry: RF channel -> {id(radio): radio}; following
        # receivers are kept apart (their channel is evaluated on demand)
        self._tuned_by_freq: dict[int, dict[int, RfFrontEnd]] = {}
        self._following: dict[int, RfFrontEnd] = {}
        self.noise = BerNoise(config.noise.ber, rngs.stream("channel.noise"))
        self.stage_model = StageErrorModel(config.noise.ber, rngs.stream("channel.stages"))
        # SIR capture profile: linear ACI gains by |carrier offset| and the
        # linear capture ratio.  Infinite rejection gives an exact 0.0 gain,
        # so the degenerate default never visits adjacent buckets at all.
        sir = config.sir
        self._aci_gain = (
            1.0,
            _dbm_to_mw(-sir.aci_rejection_1_db),
            _dbm_to_mw(-sir.aci_rejection_2_db),
        )
        if self._aci_gain[2] > 0.0:
            self._aci_span = 2
        elif self._aci_gain[1] > 0.0:
            self._aci_span = 1
        else:
            self._aci_span = 0
        self._capture_ratio = _dbm_to_mw(sir.capture_threshold_db)
        # static interference floor per RF channel (linear mW), lazily
        # allocated by add_static_interferer
        self._static_mw: list[float] | None = None
        # spatial layer: the per-world topology (None → flat world) and
        # the hot-path flag the resolvers and stage deliveries branch on.
        # A FlatLoss topology keeps _spatial False, so placement alone
        # never moves an outcome — only a lossy model does.
        self._topology: Topology | None = None
        self._spatial = False
        # per-source static interference for the spatial resolver: each
        # entry is (79-float ACI-spread mW array, Position | None); the
        # per-listener floor folds in each source's path gain lazily
        self._static_sources: list[tuple[list[float], Position | None]] = []
        # Fast path chosen from the input, not a reference: on the
        # degenerate profile, while every transmission uses the default
        # 0 dBm and no static interferer exists, the capture resolution of
        # an overlap is *provably* "corrupt both", so _resolve_trivial
        # runs a 3-line loop and skips the accumulation bookkeeping.  The
        # flag drops (stickily) at the first custom-power transmission or
        # static interferer, because from then on live-overlap outcomes
        # depend on actual powers.  Sound across the switch: under the
        # trivial regime any live transmission that ever overlapped is
        # already corrupted, and an uncorrupted one has zero accumulated
        # interference — exactly what its interference_mw field says.
        # Why the split stays: the two resolvers do not write the same
        # capture records.  _resolve_trivial corrupts without tracking
        # power, so its capture_loss records carry sir_db None, where
        # _resolve_capture derives 0.0 dB from the equal powers.  Routing
        # flat worlds through _resolve_capture moves the capture goldens
        # of tests/sim/test_capture_goldens.py (campaign_3x97 from
        # d2a6dbc465848018 to 0e8368e446affffa, campaign_8x606 from
        # 680dc27eaf62f49e to 7eb23a4cc05202f4), so merging them is a
        # record-format change, not a CPU trade (the CPU cost measured
        # +0.9 % and +3.7 % median on the 20-piconet dense point, inside
        # a ~25 % spread).
        self._capture_trivial = \
            self._aci_span == 0 and self._capture_ratio == 1.0
        self._transmissions = 0
        self.collisions = 0
        #: the inquiry or page train sleeping through IDs nobody can hear
        #: (:mod:`repro.link.train`), if any: the channel tells it about
        #: receivers that open or retune and about other transmissions
        self.sleeper = None
        #: the connection slaves dozing through listen windows nothing can
        #: reach (:mod:`repro.link.connection`): another radio's
        #: transmission wakes them
        self.dozers: list = []
        # transmissions of the current delta awaiting their listener scan
        self._unscanned: list[Transmission] = []
        self._scan_hook = self._scan_unscanned
        # stage offsets from a packet's start, as its receivers see them
        delay = config.rf.modem_delay_ns
        self._sync_offset = delay + SYNC_DECISION_NS
        self._header_offset = delay + HEADER_DECISION_NS
        self._end_delay = delay
        # BER 0 in statistical mode: a framed packet's stage draws all
        # pass and consume nothing, so the decode is the address screen
        self._draw_free = not config.bit_accurate and config.noise.ber == 0.0
        self._bit_accurate = config.bit_accurate
        self._carrier_sense = config.rf.carrier_sense

    # ------------------------------------------------------------------

    @property
    def transmissions(self) -> int:
        """Packets put on the air so far, the IDs of a sleeping train
        included."""
        if self.sleeper is not None:
            self.sleeper.settle()
        return self._transmissions

    def attach(self, radio: RfFrontEnd) -> None:
        """Register a radio on the medium."""
        if radio in self.radios:
            raise ChannelError(f"radio {radio.path} attached twice")
        radio.attach_index = len(self.radios)
        self.radios.append(radio)
        self._last_tx.append(None)

    def wake_dozers(self) -> None:
        """Resume every dozing slave, queueing its loop's events on the
        simulator."""
        for dozer in list(self.dozers):
            dozer.resume()

    def listener_retuned(self, radio: RfFrontEnd) -> None:
        """Sync the tuning registry with ``radio``'s current receiver state.

        The RF front-end calls this after every ``rx_on`` / ``rx_retune`` /
        ``rx_off`` transition; the registry is what :meth:`_scan_listeners`
        indexes instead of walking every attached radio.  A sleeping train
        hears of the change first: it may have to wake earlier.
        """
        if self.sleeper is not None:
            self.sleeper.receiver_changed(radio)
        new = radio.rx_freq if radio.rx_freq_fn is None else _FOLLOWING
        old = radio.registry_key
        if new == old:
            return
        rid = id(radio)
        if old == _FOLLOWING:
            self._following.pop(rid, None)
        elif old is not None:
            bucket = self._tuned_by_freq.get(old)
            if bucket is not None:
                bucket.pop(rid, None)
        if new == _FOLLOWING:
            self._following[rid] = radio
        elif new is not None:
            bucket = self._tuned_by_freq.get(new)
            if bucket is None:
                bucket = self._tuned_by_freq[new] = {}
            bucket[rid] = radio
        radio.registry_key = new

    # ------------------------------------------------------------------
    # Spatial layer
    # ------------------------------------------------------------------

    @property
    def topology(self) -> Topology | None:
        """The installed :class:`~repro.phy.geometry.Topology`, or None."""
        return self._topology

    def set_topology(self, topology: Topology | None) -> None:
        """Install (or remove) the world's spatial topology.

        A lossy topology switches the resolver to per-(transmitter,
        listener) link budgets (``rx_mw = tx_mw × gain(src, dst)``); a
        :class:`~repro.phy.geometry.FlatLoss` topology — or None — keeps
        the flat resolvers, byte-identical to a world that never called
        this.
        """
        self._topology = topology
        self._spatial = topology is not None and topology.is_spatial

    def ensure_topology(self) -> Topology:
        """The installed topology, creating a default log-distance one on
        first use (the auto-install behind ``Device.place``)."""
        if self._topology is None:
            self.set_topology(Topology())
        return self._topology

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------

    def add_static_interferer(self, channels: Iterable[int],
                              power_dbm: float = 0.0,
                              position: Optional[Position] = None) -> None:
        """Park a constant interferer on a set of RF channels.

        Every transmission — including any already in the air — sees
        ``power_dbm`` of interference on each of the given channels (plus
        the ACI-attenuated spill onto their ±1/±2 MHz neighbours when the
        configured rejection is finite) for its whole time on air — the
        dense-deployment model of e.g. a Wi-Fi carrier or a microwave
        oven, and the workload the ``ext_afh`` experiment recovers from.

        ``position`` places the source in the world's topology: spatial
        worlds then attenuate its energy by each listener's path gain.
        Positionless sources (or flat worlds) are heard at configured
        power everywhere.
        """
        channels = list(channels)
        for channel in channels:  # validate before any state mutates
            if not 0 <= channel < 79:
                raise ChannelError(f"RF channel out of range: {channel}")
        if self.sleeper is not None:
            self.sleeper.settle()  # its IDs on the air see the new floor
        self._capture_trivial = False
        power = _dbm_to_mw(power_dbm)
        if self._static_mw is None:
            self._static_mw = [0.0] * 79
        spread = [0.0] * 79
        span = self._aci_span
        for channel in channels:
            for offset in range(-span, span + 1):
                neighbour = channel + offset
                if 0 <= neighbour < 79:
                    spread[neighbour] += power * self._aci_gain[abs(offset)]
        for freq in range(79):
            self._static_mw[freq] += spread[freq]
        self._static_sources.append((spread, position))
        if not self._spatial:
            self._fold_static_into_live(spread)

    def _fold_static_into_live(self, spread: list[float]) -> None:
        """Retroactively charge a just-parked interferer's energy to the
        transmissions already on the air (flat resolvers only — the
        spatial resolver reads the floor lazily per listener).

        Without this, a packet live at switch-on never sees the jammer:
        its ``interference_mw`` was settled at resolve time, and the
        sticky ``_capture_trivial`` hand-over only covers *transmission*
        overlaps (an uncorrupted trivial-regime packet provably carries
        zero accumulated interference, which stays true here — we add the
        floor on top of it).
        """
        now = self.sim.now
        cap = self.capture
        capture = self._capture_ratio
        for live in self._active_by_freq.values():
            for tx in live.values():
                if tx.end_ns <= now:  # off the air, not yet pruned
                    continue
                floor = spread[tx.freq]
                if floor <= 0.0:
                    continue
                tx.interference_mw += floor
                if tx.power_mw <= tx.interference_mw * capture \
                        and not tx.corrupted:
                    tx.corrupted = True
                    if cap is not None:
                        cap.capture_loss(now, tx)

    def clear_static_interferers(self) -> None:
        """Remove every parked static interferer — the jammer-off phase of
        a recovery scenario.  The capture resolver stays on its
        power-tracking path (:attr:`_capture_trivial` is sticky), so
        outcomes remain well-defined for transmissions already in the
        air."""
        if self.sleeper is not None:
            self.sleeper.settle()
        self._static_mw = None
        self._static_sources = []

    def transmit(self, radio: RfFrontEnd, freq: int, packet: Packet,
                 uap: int = 0, meta: TxMeta | None = None,
                 power_dbm: float = 0.0) -> Transmission:
        """Put a packet on the air; its listener scan follows.

        The scan, which finds the receivers and schedules their stages,
        queues no event: it runs in the simulator's update phase that ends
        the transmitting delta, after the signal commits and in transmit
        order.  Receivers retuned or opened by other events at this same
        instant (e.g. a slave hopping at the slot boundary the master
        transmits on) are therefore seen in their settled state.  Physical
        timing is unaffected: the sync stage is 68 us away.

        A sleeping train resumes first, so that its ID on the air and its
        response window are live for this packet, and so do dozing
        slaves, so that a window open now is live too.
        """
        if not 0 <= freq < 79:
            raise ChannelError(f"RF channel out of range: {freq}")
        if self.sleeper is not None:
            self.sleeper.resume()
        if self.dozers:
            self.wake_dozers()
        tx = self._admit(radio, freq, packet, uap, meta, power_dbm,
                         self.sim.now)
        self._transmissions += 1
        unscanned = self._unscanned
        if not unscanned:
            self.sim._update_hooks.append(self._scan_hook)
        unscanned.append(tx)
        return tx

    def enter_transmit(self, radio: RfFrontEnd, freq: int, packet: Packet,
                       meta: TxMeta, start_ns: int) -> Transmission:
        """Enter the latest ID of a sleeping train, sent at ``start_ns``,
        as :meth:`transmit` would have left it: ``radio``'s latest
        transmission, admitted into the live set.  Nobody could hear it,
        so it has no listener scan; the train counts it."""
        return self._admit(radio, freq, packet, 0, meta, 0.0, start_ns)

    def _admit(self, radio: RfFrontEnd, freq: int, packet: Packet, uap: int,
               meta: TxMeta | None, power_dbm: float,
               now: int) -> Transmission:
        """Build the transmission ``radio`` starts at ``now`` and admit it
        into the live set through the applicable resolver."""
        ptype = packet.ptype
        # every field stored directly: one Transmission per packet sent
        tx = _new(Transmission)
        tx.radio = radio
        tx.freq = freq
        tx.packet = packet
        tx.start_ns = now
        tx.duration_ns = packet_air_bits(ptype, len(packet.payload)) * BIT_NS
        if ptype is _FHS:
            # the ends of a page are not synchronised yet: FHS whitens
            # with clock 0
            tx.tx_clk = 0
        else:  # the sender's clock
            tx.tx_clk = radio.clock.clk(now)
        tx.tx_uap = uap
        tx.air_bits = None
        tx.corrupted = False
        tx.power_mw = 1.0 if power_dbm == 0.0 else _dbm_to_mw(power_dbm)
        tx.interference_mw = 0.0
        tx.overlap_mw = None
        tx.corrupt_rx = None
        tx.meta = meta if meta is not None else TxMeta()
        if self._bit_accurate:
            tx.air_bits = encode_packet(packet, uap=tx.tx_uap, clk=tx.tx_clk)
        cap = self.capture
        if cap is not None:
            cap.tx_start(now, tx)

        # admit tx into the live set through the applicable resolver.  The
        # radio's previous transmission leaves it here: it is off the air
        # (a radio sends one packet at a time), so no resolver would count
        # it again
        last_tx = self._last_tx
        index = radio.attach_index
        previous = last_tx[index]
        if previous is not None \
                and previous.start_ns + previous.duration_ns <= now:
            live = self._active_by_freq.get(previous.freq)
            if live:
                live.pop(id(previous), None)
        last_tx[index] = tx
        if self._spatial:
            self._resolve_spatial(tx, now)
        elif not (self._capture_trivial and power_dbm == 0.0):
            self._capture_trivial = False  # a custom-power tx is now live
            self._resolve_capture(tx, now)
        else:
            self._resolve_trivial(tx, now)
        return tx

    def _scan_unscanned(self) -> None:
        """The update-phase hook: scan for the listeners of the
        transmissions of the delta that just ended, in transmit order."""
        unscanned = self._unscanned
        for tx in unscanned:
            self._scan_listeners(tx)
        unscanned.clear()

    def _scan_listeners(self, tx: Transmission) -> None:
        receivers = self.scan(tx)
        if receivers:
            self.sim.schedule_abs(tx.start_ns + self._sync_offset,
                                  partial(self._sync_batch, tx, receivers))

    def _resolve_trivial(self, tx: Transmission, now: int) -> None:
        """Binary overlap resolution: any live overlap on the same
        frequency corrupts both transmissions unconditionally — the capture
        model's degenerate fast path (see ``_capture_trivial``), whose
        agreement with :meth:`_resolve_capture` the capture suite pins on
        random overlap patterns."""
        cap = self.capture
        live = self._active_by_freq.get(tx.freq)
        if live is None:
            live = self._active_by_freq[tx.freq] = {}
        for other in live.values():
            if other.start_ns + other.duration_ns <= now:
                continue  # off the air, not yet pruned
            if cap is not None:
                if not other.corrupted:
                    cap.capture_loss(now, other)
                if not tx.corrupted:
                    cap.capture_loss(now, tx)
            other.corrupted = True
            tx.corrupted = True
            self.collisions += 1
        live[id(tx)] = tx

    def _resolve_capture(self, tx: Transmission, now: int) -> None:
        """Carrier-offset SIR capture resolution for a new transmission.

        Accumulates interference power — the static floor plus every live
        overlapper within the ACI span, attenuated by the per-offset gain —
        onto both sides of each overlap, and marks a transmission corrupted
        once its SIR no longer *exceeds* the capture threshold.  Corruption
        is sticky (interference only accumulates over a packet's lifetime,
        mirroring the legacy rule that an overlap during any part of the
        packet destroys it) and is re-read at every staged delivery, so a
        mid-air capture loss still voids a reception whose sync stage
        already fired.

        ``collisions`` counts destructive overlap pairs: incremented once
        per examined pair in which either side is corrupted after the
        update — on the degenerate profile every co-channel pair qualifies
        and adjacent buckets are never visited, making counter, flags and
        event schedule byte-identical to :meth:`_resolve_trivial`.
        """
        cap = self.capture
        interference = self._static_mw[tx.freq] if self._static_mw else 0.0
        capture = self._capture_ratio
        power = tx.power_mw
        corrupted = tx.corrupted
        for offset in range(-self._aci_span, self._aci_span + 1):
            gain = self._aci_gain[abs(offset)]
            if gain <= 0.0:
                continue
            neighbour = tx.freq + offset
            if not 0 <= neighbour < 79:
                continue
            live = self._active_by_freq.get(neighbour)
            if not live:
                continue
            for other in live.values():
                if other.end_ns <= now:  # off the air, not yet pruned
                    continue
                interference += other.power_mw * gain
                other.interference_mw += power * gain
                if other.power_mw <= other.interference_mw * capture \
                        and not other.corrupted:
                    other.corrupted = True
                    if cap is not None:
                        cap.capture_loss(now, other)
                if power <= interference * capture:
                    corrupted = True
                if corrupted or other.corrupted:
                    self.collisions += 1
        tx.interference_mw = interference
        if power <= interference * capture:
            corrupted = True
        if corrupted and not tx.corrupted and cap is not None:
            cap.capture_loss(now, tx)
        tx.corrupted = corrupted
        self._active_by_freq.setdefault(tx.freq, {})[id(tx)] = tx

    def _resolve_spatial(self, tx: Transmission, now: int) -> None:
        """Spatial admission: record who overlapped whom, decide nothing.

        With geometry installed, destructiveness is a property of the
        *(transmission, listener)* pair — the same overlap that buries a
        far receiver is harmless 1 m from the wanted transmitter — so
        resolve time only advances mobility to the current cadence epoch
        and cross-records the overlap (``(radio, aci_attenuated_tx_mw)``
        on both sides' ``overlap_mw`` lists).  Each listener's verdict is
        drawn lazily and stickily by :meth:`_corrupted_for` at its staged
        deliveries.

        ``collisions`` counts air-time overlap pairs here (the per-pair
        analogue of the flat resolver's destructive-pair count; with
        geometry a pair's destructiveness is listener-relative, so the
        counter reports exposure rather than damage).
        """
        topo = self._topology
        topo.advance_to(now)
        if tx.overlap_mw is None:
            tx.overlap_mw = []
        power = tx.power_mw
        for offset in range(-self._aci_span, self._aci_span + 1):
            gain = self._aci_gain[abs(offset)]
            if gain <= 0.0:
                continue
            neighbour = tx.freq + offset
            if not 0 <= neighbour < 79:
                continue
            live = self._active_by_freq.get(neighbour)
            if not live:
                continue
            for other in live.values():
                if other.end_ns <= now:  # off the air, not yet pruned
                    continue
                if other.overlap_mw is None:
                    other.overlap_mw = []
                other.overlap_mw.append((tx.radio, power * gain))
                tx.overlap_mw.append((other.radio, other.power_mw * gain))
                self.collisions += 1
        self._active_by_freq.setdefault(tx.freq, {})[id(tx)] = tx

    def _static_floor_at(self, freq: int, rx_key) -> float:
        """Per-listener static interference floor (linear mW): each parked
        source attenuated by its path gain to the listener."""
        total = 0.0
        topo = self._topology
        for spread, position in self._static_sources:
            mw = spread[freq]
            if mw > 0.0:
                total += mw * topo.gain_from(position, rx_key)
        return total

    def _corrupted_for(self, tx: Transmission, listener: RfFrontEnd) -> bool:
        """The per-(transmission, listener) capture verdict of a spatial
        world, evaluated at each staged delivery.

        The listener's wanted power is ``tx.power_mw`` through the
        src→dst path gain; interference is its static floor plus every
        recorded overlapper through *that* overlapper's path gain to this
        listener.  A failed capture is sticky per pair (``tx.corrupt_rx``)
        — interference only accumulates over a packet's lifetime, so a
        pair that loses capture mid-air stays lost, mirroring the flat
        resolvers' sticky ``tx.corrupted`` — and emits a per-pair
        ``capture_loss`` record carrying distance and rx power.
        """
        if tx.corrupted:
            return True
        lid = id(listener)
        corrupt = tx.corrupt_rx
        if corrupt is not None and lid in corrupt:
            return True
        topo = self._topology
        rx_key = listener.topo_key
        wanted = tx.power_mw * topo.gain(tx.radio.topo_key, rx_key)
        interference = self._static_floor_at(tx.freq, rx_key) \
            if self._static_sources else 0.0
        overlaps = tx.overlap_mw
        if overlaps:
            gain = topo.gain
            for radio, mw in overlaps:
                interference += mw * gain(radio.topo_key, rx_key)
        if wanted > interference * self._capture_ratio:
            return False
        if corrupt is None:
            corrupt = tx.corrupt_rx = set()
        corrupt.add(lid)
        cap = self.capture
        if cap is not None:
            sir_db = (round(10.0 * math.log10(wanted / interference), 2)
                      if wanted > 0.0 and interference > 0.0 else None)
            rx_dbm = (round(10.0 * math.log10(wanted), 2)
                      if wanted > 0.0 else None)
            cap.capture_loss(self.sim.now, tx, sir_db=sir_db,
                             distance_m=topo.distance(tx.radio.topo_key,
                                                      rx_key),
                             rx_dbm=rx_dbm)
        return True

    def scan(self, tx: Transmission) -> list[RfFrontEnd]:
        """The receivers of ``tx``: radios with an open receiver tuned to
        (or following onto) its channel that are not transmitting, in
        attach order.  With carrier sense each one locks provisionally."""
        fixed = self._tuned_by_freq.get(tx.freq)
        if fixed:
            candidates = list(fixed.values())
            if self._following:
                candidates.extend(self._following.values())
        elif self._following:
            candidates = list(self._following.values())
        else:
            return []
        if len(candidates) > 1:
            # registry dicts are in retune order; visiting in attach order
            # keeps stage-event sequence numbers (and so every downstream
            # outcome) identical to the full-radio-walk implementation
            candidates.sort(key=_attach_index)
        carrier_sense = self._carrier_sense
        now = self.sim.now
        radio = tx.radio
        freq = tx.freq
        receivers = []
        for listener in candidates:
            if listener is radio or now < listener.tx_until_ns:
                continue  # a transmitting radio does not receive
            follow = listener.rx_freq_fn
            # a closed receiver has neither a channel nor a hop function
            if (listener.rx_freq if follow is None else follow(now)) != freq:
                continue
            if carrier_sense and listener.locked_tx is None:
                # energy on the tuned channel: the receiver locks
                # provisionally, which keeps its window open until the
                # sync decision
                listener.locked_tx = tx
            receivers.append(listener)
        return receivers

    # ------------------------------------------------------------------
    # Receive path (staged)
    # ------------------------------------------------------------------

    def _sync_batch(self, tx: Transmission,
                    receivers: list[RfFrontEnd]) -> None:
        """The sync event: :meth:`sync`, then the header stages."""
        header_ns = tx.start_ns + self._header_offset
        for listener in self.sync(tx, receivers):
            self.sim.schedule_abs(header_ns,
                                  partial(self._header_stage, tx, listener))

    def sync(self, tx: Transmission,
             receivers: list[RfFrontEnd]) -> list[RfFrontEnd]:
        """The sync stage of every reception of ``tx``: admit in listener
        order, then decode and deliver each admitted listener in the same
        order.  Returns the listeners that stay locked, in that order:
        each one's header stage follows ``HEADER_DECISION_NS`` after the
        start.

        Byte-identical to one sync event per listener: those events would
        be scheduled back-to-back by one scan, so they would hold
        consecutive sequence numbers and fire consecutively — nothing can
        interleave.  Within that run, every listener callback (``on_sync``
        / ID-packet ``on_reception``) acts on its *own* device only (its
        receiver and procedure state, its own RNG stream, its own events,
        queued in the order the per-listener events would queue them), so
        admitting every listener first observes the guards each event
        would.  Only the decode draws from the channel's noise and stage
        RNG streams, and no delivery draws from them, so a listener
        decoded after the previous listener's delivery takes the same
        variates it would take in its own event.  (``tx.corrupted`` is
        re-read at each delivery, preserving collision flags raised
        mid-batch.)  ``tests/phy/test_batch_window_golden.py`` checks this
        against a per-listener oracle end to end, in noisy worlds of both
        channel modes.
        """
        admitted = []
        for listener in receivers:
            locked = listener.locked_tx
            if not listener.rx_open \
                    or not (locked is tx or listener.tuned_to(tx.freq)):
                if locked is tx:  # closed or retuned since the scan
                    listener.locked_tx = None
            elif locked is None or locked is tx:  # not locked on another
                admitted.append(listener)
        if not admitted:
            return admitted
        packet = tx.packet
        draw_free = self._draw_free
        is_id = packet.ptype is _ID
        spatial = self._spatial
        locked = []
        for listener in admitted:
            if draw_free:
                # a channel that draws nothing: only the listener's own
                # access-code screen decides
                expect = listener.expect
                if expect is None or expect.lap != packet.lap:
                    result = DecodeResult(False)
                elif is_id:
                    result = self._id_result(packet.lap, True)
                else:
                    result = self._stage_result(packet, True, True, True)
            else:
                result = self._full_decode(tx, listener)
            matched = result.synced and not tx.corrupted and not (
                spatial and self._corrupted_for(tx, listener))
            handler = listener.listener
            keep = handler is not None and handler.on_sync(tx, matched)
            if matched and keep:
                listener.locked_tx = tx
            elif listener.locked_tx is tx:
                listener.locked_tx = None
            if is_id:
                # ID packets reach procedures, which queue what follows
                # themselves (a connection handler ignores them)
                self._deliver_end(tx, listener, result)
            elif matched and listener.locked_tx is tx:
                # the header stage follows; else declined or sync failed
                listener.locked_result = result
                locked.append(listener)
        return locked

    def _header_stage(self, tx: Transmission, listener: RfFrontEnd) -> None:
        if self.header(tx, listener):
            self.sim.schedule_abs(tx.end_ns + self._end_delay,
                                  partial(self._end_stage, tx, listener))

    def header(self, tx: Transmission, listener: RfFrontEnd) -> bool:
        """The header decision: the listener sees the AM_ADDR and may drop
        out.  True when it stays locked to the packet's end."""
        result = listener.locked_result
        if result is None or listener.locked_tx is not tx:
            return False
        corrupted = tx.corrupted or (
            self._spatial and self._corrupted_for(tx, listener))
        # the header's AM_ADDR, also when the payload stage failed (the
        # addressed slave must see the packet to NAK it)
        am_addr = result.header_am if result.header_ok and not corrupted \
            else None
        on_header = getattr(listener.listener, "on_header", None)
        keep = on_header is None or bool(
            on_header(tx, result.header_ok and not corrupted, am_addr))
        if not keep:
            listener.locked_tx = None
            listener.locked_result = None
        return keep

    def _end_stage(self, tx: Transmission, listener: RfFrontEnd) -> None:
        follow = self.end(tx, listener)
        if follow:
            for time_ns, callback in follow:
                self.sim.schedule_abs(time_ns, callback)

    def end(self, tx: Transmission, listener: RfFrontEnd):
        """The end of the packet: deliver the reception.  Returns the
        events the listener's ``on_reception`` calls for, as
        ``(time_ns, callback)`` pairs, or None."""
        result = listener.locked_result
        if result is None or listener.locked_tx is not tx:
            return None
        listener.locked_result = None
        return self._deliver_end(tx, listener, result)

    def _deliver_end(self, tx: Transmission, listener: RfFrontEnd,
                     result: DecodeResult):
        corrupted = tx.corrupted or (
            self._spatial and self._corrupted_for(tx, listener))
        if corrupted:
            # resolver 'X': whatever the stage draw said, the frame is junk
            result = DecodeResult(synced=result.synced, header_ok=False,
                                  payload_ok=False, packet=None, stage="header")
        if listener.locked_tx is tx:
            listener.locked_tx = None
        handler = listener.listener
        if handler is None:
            return None
        # every field stored directly: one Reception per delivery
        reception = _new(Reception)
        reception.tx = tx
        reception.result = result
        reception.collided = corrupted
        reception.rx_time_ns = self.sim.now
        return handler.on_reception(reception)

    # ------------------------------------------------------------------
    # Decode-outcome draw (once per transmission/listener pair)
    # ------------------------------------------------------------------

    def _threshold_for(self, packet: Packet) -> int:
        """ID packets are detected by the sliding correlator; framed packets
        use the (possibly stricter, paper-profile) sync threshold."""
        if packet.ptype is _ID:
            return self.config.link.id_sync_threshold
        return self.config.link.sync_threshold

    @staticmethod
    def _id_result(lap: int, detected: bool) -> DecodeResult:
        """ID-packet decode outcome from its correlator decision (shared
        by the statistical draw and the draw-free screen)."""
        if not detected:
            return DecodeResult(synced=False, stage="sync")
        return DecodeResult(synced=True, header_ok=True, payload_ok=True,
                            packet=Packet(ptype=PacketType.ID, lap=lap),
                            stage="payload")

    @staticmethod
    def _stage_result(packet: Packet, synced: bool, header_ok: bool,
                      payload_ok: bool) -> DecodeResult:
        """Framed-packet decode outcome from its stage draws (shared by
        the statistical draw and the draw-free screen)."""
        if not synced:
            return DecodeResult(False)
        if not header_ok:
            return DecodeResult(True, False, stage="header")
        # every field stored directly: one result per reception
        result = _new(DecodeResult)
        result.synced = True
        result.header_ok = True
        result.payload_ok = payload_ok
        result.packet = packet
        result.stage = "payload"
        result.corrected_header_bits = 0
        result.corrected_codewords = 0
        result.header_am = packet.am_addr
        result.header_type = packet.ptype.info.code
        result.header_arqn = packet.arqn
        result.header_seqn = packet.seqn
        return result

    def _full_decode(self, tx: Transmission, listener: RfFrontEnd) -> DecodeResult:
        expect = listener.expect
        if expect is None or expect.lap != tx.packet.lap:
            return DecodeResult(False)
        threshold = self._threshold_for(tx.packet)
        if self.config.bit_accurate:
            assert tx.air_bits is not None
            positions = self.noise.error_positions(len(tx.air_bits))
            # no errors drawn (always at BER 0): decode the frame as-is —
            # decode_packet never mutates its input, so skip the copy
            noisy = (flip_bits(tx.air_bits, positions) if len(positions)
                     else tx.air_bits)
            return decode_packet(noisy, expect.lap, tx.tx_uap, tx.tx_clk,
                                 sync_threshold=threshold)
        packet = tx.packet
        if packet.ptype is _ID:
            return self._id_result(packet.lap,
                                   self.stage_model.sample_sync(threshold))
        # one batched call per framed packet: same draw sequence as the
        # separate sample_sync/sample_header/sample_payload chain
        return self._stage_result(packet, *self.stage_model.sample_stages(
            packet.ptype, len(packet.payload), threshold))


_attach_index = attrgetter("attach_index")
