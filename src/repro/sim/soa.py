"""Structure-of-arrays slot engine: whole-world slot stepping.

The object kernel dispatches one Python event per device per slot — the
scheduling loops of :mod:`repro.link.connection`, the staged delivery of
:mod:`repro.phy.channel` and the signal delta cycles each cost a heap
round-trip.  Bluetooth is slot-synchronous, so for the steady connection
state all of that structure is *static*: the same handful of event shapes
recurs every 1250 µs.  This module exploits that.

:class:`SlotEngine` advances a whole window ``[now, until)`` for every
piconet at once:

* the window's hop selections for **all** masters are prefilled in one
  :func:`~repro.baseband.hop.connection_windows_many` array pass (slaves
  share the per-address memo, so their lookups hit the same rows);
* per-device hot state (clock phases, buffers, ARQ, expectations) is
  bound once per window into slotted records; the link objects stay the
  single source of truth;
* the pending event queue is **absorbed** into a micro-heap of plain
  tuples and stepped by a single tight loop that inlines the connection
  handlers, calling back into the channel's shared resolvers
  (:meth:`~repro.phy.channel.Channel._resolve`, ``_full_decode`` /
  ``_full_decode_batch``) so SIR capture, batched stage draws and batched
  decode run through exactly one code path with the scalar kernel.

**Byte identity is the contract.**  Every inlined handler replicates its
object-kernel counterpart statement for statement — same event ordering,
same RNG consumption, same counters — so outcomes (and the
:class:`~repro.sim.capture.TimelineCapture` record stream) are identical
to ``Simulator.run``.  The golden digests and the hypothesis equivalence
suite in ``tests/sim/test_soa_equivalence.py`` pin this, and every
registered experiment's table digest (``tests/experiment_goldens.py``)
holds on both engines.

**Fallback boundary.**  The engine only absorbs worlds in the steady
connection state: active masters/slaves under the default round-robin
policy, saturated traffic, optional static interferers and manual AFH
maps.  Anything rarer — inquiry/page bring-up, LMP traffic, sniff/hold/
park, AFH controllers, frequency-following receivers, probe/trace
subscribers — fails the eligibility gate or the event classification and
the call silently falls back to the object kernel for that window.
"""

from __future__ import annotations

import heapq
import os
from functools import partial
from operator import attrgetter

from repro import units
from repro.baseband.codec import DecodeResult, encode_packet
from repro.baseband.hop import connection_windows_many
from repro.baseband.packets import Packet, PacketType, packet_duration_ns
from repro.baseband.timing import HEADER_DECISION_NS, SYNC_DECISION_NS
from repro.link.buffers import InboundData, OutboundData
from repro.link.connection import ConnectionMaster, ConnectionSlave
from repro.link.polling import RoundRobinPolicy
from repro.link.states import ConnectionMode
from repro.link.traffic import SaturatedTraffic
from repro.phy.rf import RfFrontEnd, RxExpect
from repro.phy.transmission import Transmission, TxMeta
from repro.sim.signal import Signal

#: Environment variable selecting the default engine of new Sessions.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Engines a Session accepts.
ENGINES = ("object", "soa")


def configured_engine() -> str:
    """The engine selected by ``REPRO_ENGINE`` (default ``"object"``).

    Anything but one of :data:`ENGINES` raises a ``ValueError`` naming the
    variable, before a campaign binds a journal to the value.
    """
    engine = os.environ.get(ENGINE_ENV_VAR, "object")
    if engine not in ENGINES:
        raise ValueError(
            f"{ENGINE_ENV_VAR}={engine!r} is not an engine; expected one "
            f"of {', '.join(ENGINES)}")
    return engine


# micro event kinds (dispatch-frequency ordered in the loop, not here)
K_MASTER_EVEN = 0
K_MASTER_RX = 1
K_RX_CLOSE = 2
K_SLAVE_LISTEN = 3
K_SLAVE_REPLY = 4
K_REFILL = 5
K_SCAN = 6
K_SYNC = 7
K_SYNC_BATCH = 8
K_HEADER = 9
K_END = 10
K_EXPIRE = 11
K_TX_DONE = 12

_attach_index = attrgetter("attach_index")


class SlimPacket:
    """A packet record without construction-time validation.

    Statistical-mode micro stepping builds one of these per transmitted
    packet instead of a :class:`~repro.baseband.packets.Packet`: the
    constructor arguments come from already-validated buffers, so the
    dataclass ``__post_init__`` checks are pure overhead.  It duck-types
    the full post-decode read surface (``ptype``/``lap``/``am_addr``/
    ``flow``/``arqn``/``seqn``/``payload``/``llid``); bit-accurate mode
    keeps real Packets because the encoder needs them.
    """

    __slots__ = ("ptype", "lap", "am_addr", "flow", "arqn", "seqn",
                 "payload", "llid")

    def __init__(self, ptype, lap, am_addr, flow, arqn, seqn, payload, llid):
        self.ptype = ptype
        self.lap = lap
        self.am_addr = am_addr
        self.flow = flow
        self.arqn = arqn
        self.seqn = seqn
        self.payload = payload
        self.llid = llid


class _MasterState:
    """Absorb-time binding of one ConnectionMaster to its hot references."""

    __slots__ = ("h", "device", "rf", "rid", "clock", "phase_ns",
                 "offset_ticks", "tx_phase_ns", "tx_offset_ticks",
                 "selector", "memo", "piconet",
                 "arq", "buffers", "link_bufs", "links", "expect", "lap",
                 "uap", "t_poll", "meta_data", "meta_poll")

    def __init__(self, h: ConnectionMaster):
        device = h.device
        self.h = h
        self.device = device
        self.rf = device.rf
        self.rid = id(device.rf)
        self.clock = device.clock
        # plain-int clock parameters so the micro loop can inline the
        # tick arithmetic (BtClock.ticks / clk / next_tick_time)
        self.phase_ns = device.clock.phase_ns
        self.offset_ticks = device.clock.offset_ticks
        self.tx_phase_ns = self.phase_ns  # master tx clock == device clock
        self.tx_offset_ticks = self.offset_ticks
        self.selector = device.hop_selector
        self.memo = None  # bound after prefill
        self.piconet = h.piconet
        self.arq = h.arq
        self.links = list(h.piconet.slaves.values())
        self.buffers = {link.am_addr: device.tx_buffer_for(link.am_addr)
                        for link in self.links}
        self.link_bufs = [(link, self.buffers[link.am_addr])
                          for link in self.links]
        self.lap = device.addr.lap
        self.uap = device.addr.uap
        self.expect = RxExpect(self.lap, uap=self.uap)
        self.t_poll = max(1, device.cfg.link.t_poll_slots // 2)
        self.meta_data = TxMeta(purpose="data")
        self.meta_poll = TxMeta(purpose="poll")


class _SlaveState:
    """Absorb-time binding of one ConnectionSlave to its hot references."""

    __slots__ = ("h", "device", "rf", "rid", "clock", "phase_ns",
                 "offset_ticks", "tx_phase_ns", "tx_offset_ticks",
                 "selector", "memo", "buffer",
                 "expect", "master_lap", "master_uap", "am_addr", "meta_reply")

    def __init__(self, h: ConnectionSlave):
        device = h.device
        self.h = h
        self.device = device
        self.rf = device.rf
        self.rid = id(device.rf)
        self.clock = h.clock  # piconet clock
        self.phase_ns = h.clock.phase_ns
        self.offset_ticks = h.clock.offset_ticks
        # tx_clk stamps come from the *native* clock (rf.clock)
        self.tx_phase_ns = device.rf.clock.phase_ns
        self.tx_offset_ticks = device.rf.clock.offset_ticks
        self.selector = h.selector
        self.memo = None
        self.buffer = device.tx_buffer_for(0)
        self.master_lap = h.master_addr.lap
        self.master_uap = h.master_addr.uap
        self.am_addr = h.am_addr
        self.expect = RxExpect(self.master_lap, uap=self.master_uap)
        self.meta_reply = TxMeta(purpose="slave_reply")


class _TrafficState:
    """Absorb-time binding of one SaturatedTraffic source."""

    __slots__ = ("traffic", "buffer", "payload", "ptype", "anchor",
                 "pending_refill")

    def __init__(self, traffic: SaturatedTraffic):
        self.traffic = traffic
        self.buffer = traffic.device.tx_buffer_for(traffic.am_addr)
        self.payload = bytes(traffic.payload_len)
        self.ptype = traffic.ptype
        self.anchor = 0          # refill grid phase (absorb-time event t)
        self.pending_refill = False


class SlotEngine:
    """Slot-synchronous SoA engine for one Session's world.

    ``run(until_ns)`` returns True when the window was executed here
    (byte-identically to ``Simulator.run``); False means the world is not
    absorbable right now and the caller must fall back to the object
    kernel.  Construction is cheap; all binding happens per window.
    """

    def __init__(self, session):
        self.session = session
        self.windows_absorbed = 0
        self.windows_declined = 0
        self.micro_events = 0

    # -- public entry ---------------------------------------------------

    def run(self, until_ns: int) -> bool:
        sim = self.session.sim
        if until_ns <= sim.now:
            return False
        plan = self._try_absorb(until_ns)
        if plan is None:
            self.windows_declined += 1
            return False
        self.windows_absorbed += 1
        self._micro_loop(plan, until_ns)
        self._handback(plan, until_ns)
        return True

    # -- eligibility ----------------------------------------------------

    def _eligible_states(self):
        """Gate the world: return (masters, slaves) or None.

        Only the steady connection state qualifies; every excluded feature
        either schedules events the micro loop does not model or reads
        state mid-window in ways the inlined handlers do not replicate.
        """
        session = self.session
        config = session.config
        if not config.rf.carrier_sense:
            return None
        channel = session.channel
        if channel._following:
            return None
        topology = channel._topology
        if topology is not None and topology.mobility is not None:
            # positions churn on the mobility cadence mid-window; the
            # object kernel re-resolves them per transmission, so mobile
            # worlds decline absorption rather than model the epochs here
            return None
        masters: list[_MasterState] = []
        slaves: list[_SlaveState] = []
        for device in session.devices:
            rf = device.rf
            if rf.enable_tx._subscribers or rf.enable_rx._subscribers \
                    or device.sig_state._subscribers:
                return None  # probes / tracers watch the skipped commits
            h = device.active_handler
            if h is None:
                if rf.rx_open or rf.locked_tx is not None:
                    return None  # scanning procedure without a handler
                continue
            if type(h) is ConnectionMaster:
                if type(h.policy) is not RoundRobinPolicy:
                    return None
                if h.afh is not None or h._beacon_interval_pairs is not None:
                    return None
                if h.hold_schedules or h._resync_needed or h.piconet._parked:
                    return None
                for link in h.piconet.slaves.values():
                    if link.mode is not ConnectionMode.ACTIVE \
                            or link.sniff is not None or link.hold is not None:
                        return None
                masters.append(_MasterState(h))
            elif type(h) is ConnectionSlave:
                if h.mode is not ConnectionMode.ACTIVE or h._resyncing:
                    return None
                slaves.append(_SlaveState(h))
            else:
                return None
            for buffer in device._tx_buffers.values():
                if buffer._lmp:
                    return None  # LMP is control plane: object kernel only
        return masters, slaves

    # -- absorb ---------------------------------------------------------

    def _try_absorb(self, until_ns: int):
        """Classify the pending event queue into micro tuples.

        Two-phase: nothing is mutated until every entry has classified.
        Unknown callbacks (procedures, timers, non-saturated traffic, …)
        abort the absorb and leave the queue untouched.
        """
        states = self._eligible_states()
        if states is None:
            return None
        masters, slaves = states
        session = self.session
        sim = session.sim
        channel = session.channel

        by_handler: dict[int, object] = {}
        by_rf: dict[int, object] = {}
        for st in masters:
            by_handler[id(st.h)] = st
            by_rf[id(st.rf)] = st
        for st in slaves:
            by_handler[id(st.h)] = st
            by_rf[id(st.rf)] = st
        traffic_states: dict[int, _TrafficState] = {}

        f_master_even = ConnectionMaster._even_slot
        f_master_rx = ConnectionMaster._rx_slot
        f_master_close = ConnectionMaster._rx_close
        f_slave_slot = ConnectionSlave._master_slot
        f_slave_close = ConnectionSlave._rx_close
        f_slave_reply = ConnectionSlave._reply
        f_refill = SaturatedTraffic._refill
        f_tx_done = RfFrontEnd._tx_done
        f_commit = Signal._commit
        f_scan = type(channel)._scan_listeners
        f_expire = type(channel)._expire
        f_sync = type(channel)._sync_stage
        f_sync_batch = type(channel)._sync_batch
        f_header = type(channel)._header_stage
        f_end = type(channel)._end_stage

        micro: list[tuple] = []
        commits: list[tuple[int, Signal]] = []
        now = sim.now

        def tx_ok(tx: Transmission) -> bool:
            packet = tx.packet
            return packet.ptype not in (PacketType.ID, PacketType.FHS) \
                and getattr(packet, "llid", 2) != 3

        for t, delta, seq, event in sim._queue._heap:
            if event.cancelled:
                continue
            cb = event.callback
            func = getattr(cb, "__func__", None)
            if func is not None:
                owner = cb.__self__
                if func is f_commit:
                    if t != now or owner._subscribers:
                        return None
                    commits.append((seq, owner))
                    continue
                if func is f_tx_done:
                    if id(owner) not in by_rf:
                        return None
                    micro.append((t, delta, seq, K_TX_DONE, owner, None))
                    continue
                if func is f_refill:
                    if type(owner) is not SaturatedTraffic \
                            or not owner.ptype.is_data:
                        return None
                    ts = traffic_states.get(id(owner))
                    if ts is None:
                        ts = traffic_states[id(owner)] = _TrafficState(owner)
                    ts.anchor = t
                    ts.pending_refill = True
                    micro.append((t, delta, seq, K_REFILL, ts, None))
                    continue
                st = by_handler.get(id(owner))
                if st is None:
                    return None
                if func is f_master_even:
                    kind = K_MASTER_EVEN
                elif func is f_master_rx:
                    kind = K_MASTER_RX
                elif func is f_master_close or func is f_slave_close:
                    kind = K_RX_CLOSE
                elif func is f_slave_slot:
                    kind = K_SLAVE_LISTEN
                elif func is f_slave_reply:
                    kind = K_SLAVE_REPLY
                else:
                    return None
                micro.append((t, delta, seq, kind, st, None))
                continue
            if isinstance(cb, partial):
                pf = getattr(cb.func, "__func__", None)
                if getattr(cb.func, "__self__", None) is not channel:
                    return None
                args = cb.args
                if pf is f_scan:
                    if not tx_ok(args[0]):
                        return None
                    micro.append((t, delta, seq, K_SCAN, args[0], None))
                elif pf is f_expire:
                    if not tx_ok(args[0]):
                        return None
                    micro.append((t, delta, seq, K_EXPIRE, args[0], None))
                elif pf is f_sync:
                    if not tx_ok(args[0]) or id(args[1]) not in by_rf:
                        return None
                    micro.append((t, delta, seq, K_SYNC, args[0], args[1]))
                elif pf is f_sync_batch:
                    if not tx_ok(args[0]):
                        return None
                    for listener in args[1]:
                        if id(listener) not in by_rf:
                            return None
                    micro.append((t, delta, seq, K_SYNC_BATCH,
                                  args[0], args[1]))
                elif pf is f_header:
                    if not tx_ok(args[0]) or id(args[1]) not in by_rf:
                        return None
                    micro.append((t, delta, seq, K_HEADER, args[0], args[1]))
                elif pf is f_end:
                    if not tx_ok(args[0]) or id(args[1]) not in by_rf:
                        return None
                    micro.append((t, delta, seq, K_END, args[0], args[1]))
                else:
                    return None
                continue
            return None

        # classification succeeded — commit the absorb
        for _seq, sig in sorted(commits, key=lambda item: item[0]):
            sig._commit()
        sim._queue._heap.clear()
        sim._queue._live = 0
        heapq.heapify(micro)

        self._prefill_hops(masters, slaves, now, until_ns)
        return micro, by_rf, masters, slaves, list(traffic_states.values())

    def _prefill_hops(self, masters, slaves, now: int, until_ns: int) -> None:
        """One batched hop pass covering every piconet's window.

        Masters and their slaves share the per-address memo through the
        world's HopRegistry, so one row per master serves both sides; the
        handlers then resolve each slot with a dict hit.
        """
        window = int(until_ns - now) // units.SLOT_NS + 8
        if masters:
            # even-parity CLK at the window start: the slot grid's hop clock
            connection_windows_many(
                [st.selector for st in masters],
                [st.clock.clk(now) & ~1 for st in masters], window)
        for st in slaves:
            # rebind (and fill any master-less slave's rows) via the same
            # memoised path the scalar kernel uses
            st.selector.connection_window(int(st.clock.clk(now)) & ~1, window)
        for st in masters:
            st.memo = st.selector._connection_memo
        for st in slaves:
            st.memo = st.selector._connection_memo

    # -- the micro loop -------------------------------------------------

    def _micro_loop(self, plan, until_ns: int) -> None:
        """Dispatch the absorbed window.

        Every branch replicates its object-kernel handler statement for
        statement (see the class docstring for the byte-identity
        argument); the shared channel resolvers are called directly so
        capture, stage draws and decode consume identical RNG state.
        """
        heap, by_rf, _masters, _slaves, _traffic = plan
        session = self.session
        sim = session.sim
        channel = session.channel
        config = session.config
        cap = channel.capture
        bit_accurate = config.bit_accurate
        fast_decode = not bit_accurate and config.noise.ber == 0.0
        modem_delay = config.rf.modem_delay_ns
        listen_ns = config.link.active_listen_ns
        slot_ns = units.SLOT_NS
        pair_ns = 2 * units.SLOT_NS
        tick_ns = units.TICK_NS
        clk_mask = units.CLKN_WRAP - 1
        sync_off = modem_delay + SYNC_DECISION_NS
        header_off = modem_delay + HEADER_DECISION_NS
        pending = channel._pending
        pending_by_radio = channel._pending_by_radio
        tuned_by_freq = channel._tuned_by_freq
        # tuning-registry fast path: no frequency-following receivers can
        # exist under the eligibility gate (``channel._following`` is
        # empty and rx_freq_fn is never set by the inlined handlers), so
        # listener_retuned reduces to plain-dict bucket moves
        listen_keys = channel._listen_keys
        active_by_freq = channel._active_by_freq
        resolve = channel._resolve
        # spatial worlds: per-(tx, listener) capture verdicts, drawn
        # through the shared channel method so the sticky sets, capture
        # records and gain-cache reads are byte-identical to the object
        # kernel
        spatial = channel._spatial
        corrupted_for = channel._corrupted_for
        push = heapq.heappush
        pop = heapq.heappop
        seq = sim._queue._sequence
        dispatched = 0
        # per-ptype metadata caches (bypass lru_cache + enum-hash costs)
        dur_cache: dict = {}
        slots_cache: dict = {}
        is_data_cache: dict = {}
        tx_new = Transmission.__new__
        full_decode = channel._full_decode
        sync_admit = channel._sync_admit
        full_decode_batch = channel._full_decode_batch
        # globals hoisted to locals: ~100k events each touch several of
        # these, and LOAD_FAST beats the module-dict lookup every time
        k_master_even = K_MASTER_EVEN
        k_master_rx = K_MASTER_RX
        k_rx_close = K_RX_CLOSE
        k_slave_listen = K_SLAVE_LISTEN
        k_slave_reply = K_SLAVE_REPLY
        k_refill = K_REFILL
        k_scan = K_SCAN
        k_sync = K_SYNC
        k_sync_batch = K_SYNC_BATCH
        k_header = K_HEADER
        k_end = K_END
        k_expire = K_EXPIRE
        k_tx_done = K_TX_DONE
        master_cls = _MasterState
        slave_cls = _SlaveState
        slim_packet = SlimPacket
        real_packet = Packet
        inbound_data = InboundData
        outbound_data = OutboundData
        ptype_poll = PacketType.POLL
        ptype_null = PacketType.NULL
        ts_by_buf = {id(ts.buffer): ts for ts in _traffic}

        def rx_off(rf: RfFrontEnd, rid: int) -> None:
            # mirrors RfFrontEnd.rx_off minus the enable_rx signal write,
            # with Channel.abort_reception + listener_retuned inlined
            if rf.locked_tx is not None:
                keys = pending_by_radio.pop(rid, None)
                if keys:
                    for key in keys:
                        pending.pop(key, None)
            rf.rx_freq = None
            rf.rx_freq_fn = None
            rf.locked_tx = None
            old = listen_keys.get(rid)
            if old is not None:
                bucket = tuned_by_freq.get(old)
                if bucket is not None:
                    bucket.pop(rid, None)
                listen_keys[rid] = None

        def transmit(st, t: int, delta: int, freq: int, packet, uap: int,
                     meta: TxMeta) -> Transmission:
            # mirrors RfFrontEnd.transmit + Channel.transmit, minus the
            # enable_tx signal write (a skipped no-op delta commit)
            nonlocal seq
            rf = st.rf
            ptype = packet.ptype
            payload = packet.payload
            key = (id(ptype), len(payload)) if payload else id(ptype)
            duration = dur_cache.get(key)
            if duration is None:
                duration = dur_cache[key] = \
                    packet_duration_ns(ptype, len(payload))
            tx = tx_new(Transmission)
            tx.radio = rf
            tx.freq = freq
            tx.packet = packet
            tx.start_ns = t
            tx.duration_ns = duration
            tx.tx_clk = ((t + st.tx_phase_ns) // tick_ns
                         + st.tx_offset_ticks) & clk_mask
            tx.tx_uap = uap
            tx.meta = meta
            tx.air_bits = None
            tx.corrupted = False
            tx.power_mw = 1.0
            tx.interference_mw = 0.0
            tx.overlap_mw = None
            tx.corrupt_rx = None
            if bit_accurate:
                tx.air_bits = encode_packet(packet, uap=uap, clk=tx.tx_clk)
            channel.transmissions += 1
            if cap is not None:
                cap.tx_start(t, tx)
            resolve(tx, t, 0.0)
            end = t + duration
            rf._tx_until_ns = end
            seq_scan = seq + 1
            # the third seq is reserved for the kernel's _tx_done slot;
            # the micro loop itself has no work to do at tx end (the
            # enable_tx signal is reconciled at handback), so no event
            # is pushed — the handback synthesises the pending _tx_done
            # for still-transmitting radios
            seq += 3
            push(heap, (t, delta + 1, seq_scan, k_scan, tx, None))
            push(heap, (end, 0, seq_scan + 1, k_expire, tx, None))
            return tx

        dr_new = DecodeResult.__new__
        code_cache: dict = {}

        def fast_result(tx: Transmission, listener: RfFrontEnd):
            # BER-0 statistical decode: sample_stages draws nothing and
            # returns all-pass, so only the access-code screen remains.
            # Field-identical to the DecodeResult constructors of
            # Channel._full_decode, built without dataclass-__init__ cost.
            packet = tx.packet
            expect = listener.expect
            if expect is None or expect.lap != packet.lap:
                result = dr_new(DecodeResult)
                result.__dict__ = {
                    "synced": False, "header_ok": False, "payload_ok": False,
                    "packet": None, "stage": "sync",
                    "corrected_header_bits": 0, "corrected_codewords": 0,
                    "header_am": None, "header_type": None,
                    "header_arqn": None, "header_seqn": None}
                return result
            ptype = packet.ptype
            pid = id(ptype)
            code = code_cache.get(pid)
            if code is None:
                code = code_cache[pid] = ptype.info.code
            result = dr_new(DecodeResult)
            result.__dict__ = {
                "synced": True, "header_ok": True, "payload_ok": True,
                "packet": packet, "stage": "payload",
                "corrected_header_bits": 0, "corrected_codewords": 0,
                "header_am": packet.am_addr, "header_type": code,
                "header_arqn": packet.arqn, "header_seqn": packet.seqn}
            return result

        def sync_deliver(tx: Transmission, listener: RfFrontEnd,
                         result, now: int) -> None:
            # mirrors Channel._sync_deliver + RfFrontEnd.deliver_sync +
            # the handlers' on_sync (ID packets are gated out of absorb)
            nonlocal seq
            lid = id(listener)
            matched = result.synced and not tx.corrupted and not (
                spatial and corrupted_for(tx, listener, now))
            if not matched \
                    and by_rf[lid].__class__ is slave_cls:
                rx_off(listener, lid)  # ConnectionSlave.on_sync
            if matched:  # both handlers return `matched` as keep
                listener.locked_tx = tx
            elif listener.locked_tx is tx:
                listener.locked_tx = None
            if not (matched and listener.locked_tx is tx):
                return
            key = (id(tx), lid)
            pending[key] = result
            keys = pending_by_radio.get(lid)
            if keys is None:
                keys = pending_by_radio[lid] = set()
            keys.add(key)
            seq += 1
            push(heap, (tx.start_ns + header_off, 0, seq,
                        k_header, tx, listener))

        while heap and heap[0][0] < until_ns:
            t, delta, _s, kind, a, b = pop(heap)
            dispatched += 1

            if kind == k_scan:
                # Channel._scan_listeners (no following receivers by gate)
                tx = a
                fixed = tuned_by_freq.get(tx.freq)
                if not fixed:
                    continue
                candidates = list(fixed.values())
                if len(candidates) > 1:
                    candidates.sort(key=_attach_index)
                receivers = []
                radio = tx.radio
                freq = tx.freq
                for listener in candidates:
                    # rx_freq != freq subsumes the rx_open check (closed
                    # receivers have rx_freq None and never sit in buckets)
                    if listener is radio or t < listener._tx_until_ns \
                            or listener.rx_freq != freq:
                        continue
                    if listener.locked_tx is None:  # carrier_detected
                        listener.locked_tx = tx
                    receivers.append(listener)
                if not receivers:
                    continue
                sync_time = tx.start_ns + sync_off
                if len(receivers) > 1:
                    seq += 1
                    push(heap, (sync_time, 0, seq, k_sync_batch,
                                tx, receivers))
                else:
                    for listener in receivers:
                        seq += 1
                        push(heap, (sync_time, 0, seq, k_sync,
                                    tx, listener))

            elif kind == k_sync:
                tx, listener = a, b
                # inline Channel._sync_admit: rx_open reduces to a
                # rx_freq-is-set test and tuned_to to an int compare
                # because rx_freq_fn is never set under the gate
                locked = listener.locked_tx
                if listener.rx_freq is None or not (
                        locked is tx or listener.rx_freq == tx.freq):
                    if locked is tx:
                        listener.locked_tx = None
                    continue
                if locked is not None and locked is not tx:
                    continue
                result = fast_result(tx, listener) if fast_decode \
                    else full_decode(tx, listener)
                sync_deliver(tx, listener, result, t)

            elif kind == k_sync_batch:
                tx, receivers = a, b
                admitted = [listener for listener in receivers
                            if sync_admit(tx, listener)]
                if not admitted:
                    continue
                if fast_decode:
                    results = [fast_result(tx, listener)
                               for listener in admitted]
                else:
                    results = full_decode_batch(tx, admitted)
                for listener, result in zip(admitted, results):
                    sync_deliver(tx, listener, result, t)

            elif kind == k_header:
                # Channel._header_stage + the handlers' on_header
                tx, listener = a, b
                lid = id(listener)
                key = (id(tx), lid)
                result = pending.get(key)
                if result is None or listener.locked_tx is not tx:
                    continue
                corrupted = tx.corrupted or (spatial
                                             and corrupted_for(tx, listener,
                                                               t))
                am = result.packet.am_addr \
                    if (result.header_ok and result.packet is not None
                        and not corrupted) else None
                ok = result.header_ok and not corrupted
                st = by_rf[lid]
                if st.__class__ is master_cls:
                    keep = ok
                    if not ok:
                        rx_off(listener, lid)  # ConnectionMaster.on_header
                else:
                    keep = ok and (am == st.am_addr or am == 0)
                    if not keep:
                        rx_off(listener, lid)  # ConnectionSlave.on_header
                if not keep:
                    # inline Channel._pop_pending
                    if pending.pop(key, None) is not None:
                        keys = pending_by_radio.get(lid)
                        if keys is not None:
                            keys.discard(key)
                    listener.locked_tx = None
                    continue
                seq += 1
                push(heap, (tx.start_ns + tx.duration_ns + modem_delay,
                            0, seq, k_end, tx, listener))

            elif kind == k_end:
                # Channel._end_stage + _deliver_end + on_reception, with
                # no Reception object built (nothing retains it)
                tx, listener = a, b
                lid = id(listener)
                key = (id(tx), lid)
                # inline Channel._pop_pending
                result = pending.pop(key, None)
                if result is not None:
                    keys = pending_by_radio.get(lid)
                    if keys is not None:
                        keys.discard(key)
                if result is None or listener.locked_tx is not tx:
                    continue
                if tx.corrupted or (spatial and corrupted_for(tx, listener, t)):
                    result = DecodeResult(synced=result.synced,
                                          header_ok=False, payload_ok=False,
                                          packet=None, stage="header")
                listener.locked_tx = None
                st = by_rf[lid]
                if st.__class__ is master_cls:
                    h = st.h
                    if not result.header_ok or result.header_am is None:
                        if listener.rx_freq is not None \
                                and listener.locked_tx is None:
                            rx_off(listener, lid)
                        continue
                    am = result.header_am
                    link = st.piconet.slaves.get(am)
                    if link is None:
                        continue
                    arq = st.arq[am]
                    h.stats_rx_packets += 1
                    if result.header_arqn is not None \
                            and arq.tx.on_arqn(result.header_arqn):
                        buf = st.buffers[am]
                        buf.pop()
                        ts = ts_by_buf.get(id(buf))
                        if ts is not None and not ts.pending_refill:
                            ts.pending_refill = True
                            seq += 1
                            push(heap, (t + slot_ns
                                        - (t - ts.anchor) % slot_ns,
                                        0, seq, k_refill, ts, None))
                    packet = result.packet
                    if packet is not None:
                        ptype = packet.ptype
                        pid = id(ptype)
                        isd = is_data_cache.get(pid)
                        if isd is None:
                            isd = is_data_cache[pid] = ptype.is_data
                    else:
                        isd = False
                    if isd:
                        accept = arq.rx.on_data(result.header_seqn or 0,
                                                result.payload_ok)
                        if accept and result.payload_ok:
                            st.device.rx_buffer.load(inbound_data(
                                src_am_addr=am, payload=packet.payload,
                                received_ns=t))
                    elif result.header_type is not None \
                            and not result.payload_ok \
                            and result.header_type not in (0, 1):
                        arq.rx.on_data(result.header_seqn or 0, False)
                    if listener.rx_freq is not None \
                            and listener.locked_tx is None:
                        rx_off(listener, lid)
                else:
                    h = st.h
                    if not result.header_ok:
                        if listener.rx_freq is not None \
                                and listener.locked_tx is None:
                            rx_off(listener, lid)
                        continue
                    addressed = result.header_am == st.am_addr
                    if not (addressed or result.header_am == 0):
                        continue
                    h.stats_rx_packets += 1
                    if addressed:
                        if result.header_arqn is not None \
                                and h.arq.tx.on_arqn(result.header_arqn):
                            buf = st.buffer
                            buf.pop()
                            ts = ts_by_buf.get(id(buf))
                            if ts is not None and not ts.pending_refill:
                                ts.pending_refill = True
                                seq += 1
                                push(heap, (t + slot_ns
                                            - (t - ts.anchor) % slot_ns,
                                            0, seq, k_refill, ts, None))
                        packet = result.packet
                        if packet is not None:
                            ptype = packet.ptype
                            pid = id(ptype)
                            isd = is_data_cache.get(pid)
                            if isd is None:
                                isd = is_data_cache[pid] = ptype.is_data
                        else:
                            isd = False
                        if isd:
                            accept = h.arq.rx.on_data(
                                result.header_seqn or 0, result.payload_ok)
                            if accept and result.payload_ok:
                                st.device.rx_buffer.load(inbound_data(
                                    src_am_addr=st.am_addr,
                                    payload=packet.payload, received_ns=t))
                        elif result.header_type is not None \
                                and not result.payload_ok \
                                and result.header_type not in (0, 1):
                            h.arq.rx.on_data(result.header_seqn or 0, False)
                        if result.header_type != 0:  # NULL never replies
                            if result.packet is not None:
                                ptype = result.packet.ptype
                                pid = id(ptype)
                                slots = slots_cache.get(pid)
                                if slots is None:
                                    slots = slots_cache[pid] = \
                                        ptype.info.slots
                            else:
                                slots = 1
                            seq += 1
                            push(heap, (tx.start_ns + modem_delay
                                        + slots * slot_ns, 0, seq,
                                        k_slave_reply, st, None))
                    if listener.rx_freq is not None \
                            and listener.locked_tx is None:
                        rx_off(listener, lid)

            elif kind == k_master_even:
                # ConnectionMaster._even_slot + RoundRobinPolicy.choose +
                # _transmit_action (no beacons/holds/sniff/AFH by gate).
                # Even-slot events live on the exact 4-tick grid (they are
                # only ever scheduled via next_tick_time), so the next one
                # is simply one slot pair away and the tick arithmetic of
                # BtClock.ticks/clk inlines to plain integer ops.
                st = a
                h = st.h
                if not h._running:
                    continue
                seq += 1
                push(heap, (t + pair_ns, 0, seq, k_master_even, st, None))
                rf = st.rf
                if rf.locked_tx is not None or t < rf._tx_until_ns:
                    continue
                if rf.rx_freq is not None:  # rx_open: rx_freq_fn unset
                    rx_off(rf, st.rid)
                ticks = (t + st.phase_ns) // tick_ns + st.offset_ticks
                pair = ticks // 4
                # queued data, oldest-first across reachable slaves
                # (_lmp deques are empty by gate, so peek == _data[0])
                best = None
                best_item = None
                best_age = -1
                for link, buf in st.link_bufs:
                    data = buf._data
                    if data:
                        item = data[0]
                        age = t - item.enqueued_ns
                        if age > best_age:
                            best, best_item, best_age = link, item, age
                if best is None:
                    # keep-alive polling by most-overdue T_poll deadline
                    t_poll = st.t_poll
                    overdue_by = 0
                    for link in st.links:
                        due_in = link.last_poll_slot + t_poll - pair
                        if due_in <= 0 and -due_in >= overdue_by:
                            best, overdue_by = link, -due_in
                    if best is None:
                        continue
                    kind_data = False
                else:
                    kind_data = True
                clk = ticks & clk_mask
                freq = st.memo.get(clk)
                if freq is None:
                    freq = st.selector.connection(clk)
                if cap is not None:
                    cap.hop(t, st.device.path, clk, freq)
                am = best.am_addr
                link = st.piconet.slaves.get(am)
                if link is None:
                    continue
                arq = st.arq[am]
                if kind_data:
                    item = best_item
                    if item is None:
                        continue
                    if cap is not None and arq.tx.awaiting_ack:
                        cap.arq_retx(t, st.device.path, freq, am,
                                     arq.tx.seqn)
                    if bit_accurate:
                        packet = real_packet(
                            ptype=item.ptype, lap=st.lap, am_addr=am,
                            arqn=arq.rx.arqn,
                            seqn=arq.tx.next_seqn(new_payload=True),
                            payload=item.payload,
                            llid=3 if item.is_lmp else 2)
                    else:
                        packet = slim_packet(
                            item.ptype, st.lap, am, 1, arq.rx.arqn,
                            arq.tx.next_seqn(True), item.payload,
                            3 if item.is_lmp else 2)
                    meta = st.meta_data
                else:
                    if bit_accurate:
                        packet = real_packet(ptype=ptype_poll, lap=st.lap,
                                        am_addr=am, arqn=arq.rx.arqn)
                    else:
                        packet = slim_packet(ptype_poll, st.lap, am, 1,
                                            arq.rx.arqn, 0, b"", 2)
                    meta = st.meta_poll
                link.last_poll_slot = pair
                transmit(st, t, delta, freq, packet, st.uap, meta)
                h.stats_tx_packets += 1
                ptype = packet.ptype
                pid = id(ptype)
                slots = slots_cache.get(pid)
                if slots is None:
                    slots = slots_cache[pid] = ptype.info.slots
                seq += 1
                push(heap, (t + slots * slot_ns, 0, seq,
                            k_master_rx, st, None))

            elif kind == k_master_rx:
                # ConnectionMaster._rx_slot
                st = a
                rf = st.rf
                if not st.h._running or rf.locked_tx is not None:
                    continue
                clk = ((t + st.phase_ns) // tick_ns
                       + st.offset_ticks) & clk_mask
                freq = st.memo.get(clk)
                if freq is None:
                    freq = st.selector.connection(clk)
                # mirrors rx_on minus the enable_rx write, with
                # listener_retuned's bucket move inlined
                rf.rx_freq = freq
                rf.rx_freq_fn = None
                rf.expect = st.expect
                rid = st.rid
                old = listen_keys.get(rid)
                if old != freq:
                    if old is not None:
                        bucket = tuned_by_freq.get(old)
                        if bucket is not None:
                            bucket.pop(rid, None)
                    bucket = tuned_by_freq.get(freq)
                    if bucket is None:
                        bucket = tuned_by_freq[freq] = {}
                    bucket[rid] = rf
                    listen_keys[rid] = freq
                seq += 1
                push(heap, (t + listen_ns, 0, seq, k_rx_close, st, None))

            elif kind == k_rx_close:
                rf = a.rf
                if rf.rx_freq is not None and rf.locked_tx is None:
                    rx_off(rf, a.rid)

            elif kind == k_slave_listen:
                # ConnectionSlave._master_slot (ACTIVE mode by gate)
                st = a
                if not st.h._running:
                    continue
                ticks = (t + st.phase_ns) // tick_ns + st.offset_ticks
                # next anchor: time_at_tick((ticks//4 + 1) * 4)
                seq += 1
                push(heap, (((ticks // 4 + 1) * 4 - st.offset_ticks)
                            * tick_ns - st.phase_ns, 0, seq,
                            k_slave_listen, st, None))
                rf = st.rf
                if rf.locked_tx is not None or t < rf._tx_until_ns:
                    continue
                clk = ticks & clk_mask
                freq = st.memo.get(clk)
                if freq is None:
                    freq = st.selector.connection(clk)
                if rf.rx_freq is not None:  # rx_open
                    if rf.locked_tx is None:  # rx_retune no-ops when locked
                        rf.rx_freq = freq
                        rf.rx_freq_fn = None
                    else:
                        seq += 1
                        push(heap, (t + listen_ns, 0, seq,
                                    k_rx_close, st, None))
                        continue
                else:
                    rf.rx_freq = freq
                    rf.rx_freq_fn = None
                    rf.expect = st.expect
                rid = st.rid
                old = listen_keys.get(rid)
                if old != freq:
                    if old is not None:
                        bucket = tuned_by_freq.get(old)
                        if bucket is not None:
                            bucket.pop(rid, None)
                    bucket = tuned_by_freq.get(freq)
                    if bucket is None:
                        bucket = tuned_by_freq[freq] = {}
                    bucket[rid] = rf
                    listen_keys[rid] = freq
                seq += 1
                push(heap, (t + listen_ns, 0, seq, k_rx_close, st, None))

            elif kind == k_slave_reply:
                # ConnectionSlave._reply
                st = a
                h = st.h
                if not h._running:
                    continue
                rf = st.rf
                if t < rf._tx_until_ns:
                    continue
                if rf.rx_freq is not None:  # rx_open
                    rx_off(rf, st.rid)
                clk = ((t + st.phase_ns) // tick_ns
                       + st.offset_ticks) & clk_mask
                freq = st.memo.get(clk)
                if freq is None:
                    freq = st.selector.connection(clk)
                data = st.buffer._data  # _lmp empty by gate: peek==data[0]
                item = data[0] if data else None
                arq = h.arq
                if item is not None:
                    if cap is not None and arq.tx.awaiting_ack:
                        cap.arq_retx(t, st.device.path, freq, st.am_addr,
                                     arq.tx.seqn)
                    if bit_accurate:
                        packet = real_packet(
                            ptype=item.ptype, lap=st.master_lap,
                            am_addr=st.am_addr, arqn=arq.rx.arqn,
                            seqn=arq.tx.next_seqn(new_payload=True),
                            payload=item.payload,
                            llid=3 if item.is_lmp else 2)
                    else:
                        packet = slim_packet(
                            item.ptype, st.master_lap, st.am_addr, 1,
                            arq.rx.arqn, arq.tx.next_seqn(True),
                            item.payload, 3 if item.is_lmp else 2)
                else:
                    if bit_accurate:
                        packet = real_packet(ptype=ptype_null,
                                        lap=st.master_lap,
                                        am_addr=st.am_addr,
                                        arqn=arq.rx.arqn)
                    else:
                        packet = slim_packet(ptype_null, st.master_lap,
                                            st.am_addr, 1, arq.rx.arqn, 0,
                                            b"", 2)
                transmit(st, t, delta, freq, packet, st.master_uap,
                         st.meta_reply)
                h.stats_tx_packets += 1

            elif kind == k_refill:
                # SaturatedTraffic._refill (validation pre-done at absorb;
                # _lmp is empty by gate so len(buf) == len(buf._data)).
                # Lazy: the object kernel fires this every slot but the
                # buffer only drains on an ARQ ack, so the micro loop
                # schedules the next refill from the ack sites (K_END)
                # on the same slot grid — identical top-up times and
                # enqueued_ns stamps, ~1/4 of the events.
                ts = a
                ts.pending_refill = False
                data = ts.buffer._data
                refilled = 4 - len(data)
                if refilled > 0:
                    for _ in range(refilled):
                        data.append(outbound_data(payload=ts.payload,
                                                 ptype=ts.ptype,
                                                 enqueued_ns=t))
                    ts.traffic.generated += refilled

            elif kind == k_expire:
                tx = a
                if cap is not None:
                    cap.tx_end(t, tx)
                live = active_by_freq.get(tx.freq)
                if live is not None:
                    live.pop(id(tx), None)

            # K_TX_DONE: only toggles enable_tx in the object kernel; the
            # handback's write_now reconciles the signal, so nothing to do.

        if dispatched:
            sim.now = t
            sim.delta = delta
        sim._queue._sequence = seq
        self.micro_events += dispatched
        # micro dispatch skips the Signal delta commits the object kernel
        # fires, so events_dispatched is the one documented divergence
        sim._events_dispatched += dispatched

    # -- handback -------------------------------------------------------

    _HANDBACK_CALLBACKS = {
        K_MASTER_EVEN: lambda st: st.h._even_slot,
        K_MASTER_RX: lambda st: st.h._rx_slot,
        K_RX_CLOSE: lambda st: st.h._rx_close,
        K_SLAVE_LISTEN: lambda st: st.h._master_slot,
        K_SLAVE_REPLY: lambda st: st.h._reply,
        K_REFILL: lambda ts: ts.traffic._refill,
        K_TX_DONE: lambda rf: rf._tx_done,
    }

    def _handback(self, plan, until_ns: int) -> None:
        """Re-materialise the remaining micro events as kernel events and
        reconcile the skipped signal state, leaving the world exactly
        where ``Simulator.run(until_ns)`` would have."""
        heap, _by_rf, masters, slaves, traffic = plan
        session = self.session
        sim = session.sim
        channel = session.channel
        queue = sim._queue
        if queue._heap:
            raise RuntimeError("object events scheduled during micro window")
        sim.now = until_ns
        if heap:
            sim.delta = 0  # mirrors the kernel's bound-stop rule
        unary = self._HANDBACK_CALLBACKS
        tx_done_present = {id(a) for _t, _d, _q, kind, a, _b in heap
                           if kind == K_TX_DONE}
        for t, delta, _seq, kind, a, b in sorted(heap):
            maker = unary.get(kind)
            if maker is not None:
                callback = maker(a)
            elif kind == K_SCAN:
                callback = partial(channel._scan_listeners, a)
            elif kind == K_EXPIRE:
                callback = partial(channel._expire, a)
            elif kind == K_SYNC:
                callback = partial(channel._sync_stage, a, b)
            elif kind == K_SYNC_BATCH:
                callback = partial(channel._sync_batch, a, b)
            elif kind == K_HEADER:
                callback = partial(channel._header_stage, a, b)
            else:  # K_END
                callback = partial(channel._end_stage, a, b)
            queue.push(t, delta, callback)
        slot_ns = units.SLOT_NS
        for ts in traffic:
            # the kernel self-schedules _refill every slot; restore the
            # event at its next grid tick unless the lazy one survives
            if not ts.pending_refill:
                rem = (until_ns - ts.anchor) % slot_ns
                queue.push(until_ns + (slot_ns - rem if rem else 0), 0,
                           ts.traffic._refill)
        for st in list(masters) + list(slaves):
            rf = st.rf
            # transmit() defers the kernel's tx-end event; synthesise it
            # for radios still on air at the window boundary
            if until_ns <= rf._tx_until_ns \
                    and st.rid not in tx_done_present:
                queue.push(rf._tx_until_ns, 0, rf._tx_done)
            rf.enable_rx.write_now(rf.rx_open)
            # at until == end_ns the kernel's _tx_done has not fired yet
            rf.enable_tx.write_now(until_ns <= rf._tx_until_ns)
