"""Unified timeline event capture — the drillable record of one world.

Campaign numbers (a goodput dip, an anomalous PER point) are hard to
explain after the fact: the information was there during the run — which
channels the piconet hopped on, which transmissions died to interference
and by how much margin, when the AFH controller moved its map — but it
was spread over prints and ad-hoc counters.  :class:`TimelineCapture`
collects those diagnostic streams into **one timestamped, queryable
timeline**: a bounded ring of typed records that the simulation's hot
paths append to through cheap guarded hooks (``if capture is not None``),
so a world with capture disabled pays a single attribute test per hook
site and produces byte-identical results.

Record kinds:

========================  ====================================================
``hop``                   master slot-loop hop selection (clk, frequency)
``tx_start`` / ``tx_end`` a transmission entering / leaving the air
``capture_loss``          a transmission destroyed by the SIR capture
                          resolver, with its measured SIR in dB
``arq_retx``              the ARQ scheme re-sending an unacknowledged payload
``afh_map``               an adaptive hop set being installed (size, mask)
``assess``                a classifier assessment (bad count, map updated?)
========================  ====================================================

The ring is bounded (``capacity`` events, oldest dropped first) so
capture can stay on for arbitrarily long runs; :meth:`counts` keeps exact
per-kind totals even after eviction.  Query with :meth:`events`, render
with :meth:`replay`, export with :meth:`to_jsonl`, or bridge into the
existing waveform tooling with :meth:`to_signals` /
:meth:`inject` + :meth:`TraceRecorder.to_vcd`.
"""

from __future__ import annotations

import heapq
import io
import itertools
import json
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.sim.trace import TracedSignal, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.transmission import Transmission

#: The typed record kinds, in rough causal order.
KINDS = ("hop", "tx_start", "tx_end", "capture_loss", "arq_retx",
         "afh_map", "assess")

#: Timeline record schema version.  v2 added the spatial-layer
#: ``distance_m`` / ``rx_dbm`` details to ``capture_loss`` (None on flat
#: worlds).  :func:`read_jsonl` reads v1 archives by filling the missing
#: details with None.
SCHEMA_VERSION = 2

#: Detail-field names per kind, positionally matching the record tuples
#: the typed recorders stage (see TimelineCapture.__init__).
_FIELDS = {
    "hop": ("clk",),
    "tx_start": ("ptype", "purpose", "duration_ns"),
    "tx_end": ("ptype", "corrupted"),
    "capture_loss": ("ptype", "sir_db", "distance_m", "rx_dbm"),
    "arq_retx": ("am_addr", "seqn"),
    "afh_map": ("n_used", "excluded"),
    "assess": ("n_bad", "installed"),
}

#: Slots per record in the flat ring: time, kind, source, channel and up
#: to four details, padded with None.
_WIDTH = 8

#: Pending transmissions past which the next ``tx_start`` records the
#: ends that have passed.
_BATCH = 128

_AT = itemgetter(0)
_CORRUPTED = attrgetter("corrupted")

#: Sentinel for "derive sir_db from the transmission's accumulated
#: interference" (the flat resolvers' behaviour; the spatial resolver
#: passes its per-pair SIR explicitly, where None is a valid value).
_TX_SIR = object()


@dataclass
class TimelineEvent:
    """One timeline record: time, kind, source, RF channel and details.

    ``src`` names the originating entity (a radio path like
    ``master.rf``, or a controller name); ``freq`` is the RF channel the
    event concerns (``None`` for channel-less events like map installs);
    ``data`` carries the kind-specific fields described in
    :mod:`repro.sim.capture`.
    """

    t_ns: int
    kind: str
    src: str
    freq: Optional[int] = None
    data: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """A one-line human rendering (used by :meth:`TimelineCapture.replay`)."""
        freq = "" if self.freq is None else f" ch={self.freq}"
        details = " ".join(f"{key}={value}" for key, value in self.data.items())
        details = f" {details}" if details else ""
        return f"[{self.t_ns:>12} ns] {self.kind:<12} {self.src}{freq}{details}"


class TimelineCapture:
    """Bounded ring buffer of :class:`TimelineEvent` records for one world.

    Attach to a world by assigning it to
    :attr:`repro.phy.channel.Channel.capture` (the
    :class:`~repro.api.Session` constructor does this when asked);
    every hook site in the channel, connection logic and AFH controller
    then appends through the typed recorder methods below.  Simulation
    time is monotone, so the ring is in time order.  The one exception
    is a world driven on after a run without a bound fired its last
    event: a query in between records the ends of the packets still on
    the air (see ``_flush_passed``), and those ends then stand before
    every end recorded after them.
    """

    def __init__(self, capacity: int = 1 << 16):
        if capacity <= 0:
            raise ValueError("capture capacity must be positive")
        self.capacity = capacity
        # a record is the slots (t_ns, kind, src, freq, *details) padded
        # to _WIDTH, detail names resolved positionally through _FIELDS
        # at query time; TimelineEvent objects (and their detail dicts)
        # are materialized lazily.  The ring keeps the slots flat, so it
        # holds no container per record and a capture adds no
        # young-generation garbage-collector passes: the tx_end records
        # in _ends, the other kinds in _events, each in time order, and
        # _rows merges the two.  They run up to half the capacity past
        # it before _trim cuts the oldest records; queries trim exactly.
        self._events: list = []
        self._ends: list = []
        self._limit = _WIDTH * (capacity + max(capacity // 2, _BATCH))
        # the kinds of the records the ring dropped, so counts() stays
        # exact over the whole run
        self._evicted: Counter[str] = Counter()
        # the tx_end records still to come, in transmit order, each with
        # its transmission in the slot of the corruption flag
        self._pending: list[tuple] = []
        self._drain_at = _BATCH

    @staticmethod
    def _data(row: tuple) -> dict[str, Any]:
        """The detail dict of one ring record.  The tx recorders
        carry the raw PacketType member (an Enum ``.value`` read costs a
        descriptor call, too slow for the hot path); it is resolved to
        its string here."""
        data = dict(zip(_FIELDS[row[1]], row[4:]))
        ptype = data.get("ptype")
        if ptype is not None and not isinstance(ptype, str):
            data["ptype"] = ptype.value
        return data

    # ------------------------------------------------------------------
    # Recording (hot-path entry points — callers guard on `is not None`)
    # ------------------------------------------------------------------

    def hop(self, t_ns: int, src: str, clk: int, freq: int) -> None:
        """Master slot loop selected ``freq`` at piconet clock ``clk``."""
        self._append((t_ns, "hop", src, freq, clk, None, None, None))

    def tx_start(self, t_ns: int, tx: "Transmission") -> None:
        """A transmission entered the air.  Fields are copied out *now*
        rather than pinning ``tx`` in the ring: a retained Transmission
        graph would survive its natural lifetime and multiply young-gen
        GC passes — measurably pricier than the five eager reads.

        The matching ``tx_end`` follows on its own, with no kernel event
        for the packet end: it is recorded once a later ``tx_start`` or a
        query finds a record or the world's clock (``tx.radio.sim``) past
        the end, and stands in front of the first record stamped at or
        after the end.  Packets ending at one instant record in transmit
        order, each with its corruption flag as of its end (no resolver
        changes the flag of a packet off the air).
        """
        pending = self._pending
        if len(pending) >= self._drain_at:
            self._end_records(t_ns)
        src = tx.radio.path
        freq = tx.freq
        ptype = tx.packet.ptype
        duration = tx.duration_ns
        self._events.extend((t_ns, "tx_start", src, freq, ptype,
                             tx.meta.purpose, duration, None))
        pending.append((tx.start_ns + duration, "tx_end", src, freq, ptype,
                        tx, None, None))

    def _append(self, row: tuple) -> None:
        """Append a record, checking the ring's bound (capture_loss and
        arq_retx, which only come with a transmission, skip it)."""
        events = self._events
        if len(events) > self._limit:
            self._trim()
        events += row

    def _end_records(self, limit_ns) -> None:
        """Record the pending ends at or before ``limit_ns`` in end order
        (one instant's in transmit order), then check the ring's bound."""
        pending = self._pending
        pending.sort(key=_AT)
        due = bisect_right(pending, limit_ns, key=_AT)
        ends = self._ends
        flags = len(ends) + 5
        ends += itertools.chain.from_iterable(pending[:due])
        del pending[:due]
        ends[flags::_WIDTH] = map(_CORRUPTED, ends[flags::_WIDTH])
        self._drain_at = len(pending) + _BATCH
        if len(self._events) + len(ends) > self._limit:
            self._trim()

    def _trim(self) -> None:
        """Drop the oldest records past the capacity, banking their kinds
        so counts() stays exact."""
        events, ends = self._events, self._ends
        drop = (len(events) + len(ends)) // _WIDTH - self.capacity
        if drop <= 0:
            return
        times = events[::_WIDTH]
        end_times = ends[::_WIDTH]
        # they hold the first n ends: the largest n whose last end is not
        # later than the first other record left
        low, high = max(0, drop - len(times)), min(drop, len(end_times))
        while low < high:
            n = (low + high + 1) // 2
            if drop - n == len(times) or end_times[n - 1] <= times[drop - n]:
                low = n
            else:
                high = n - 1
        cut = _WIDTH * (drop - low)
        self._evicted.update(events[1:cut:_WIDTH])
        self._evicted["tx_end"] += low
        del events[:cut]
        del ends[:_WIDTH * low]

    def _flush_passed(self) -> None:
        """Before a query: record the pending ends that a record or the
        clock has passed, then trim the ring to its capacity.

        The clock has passed the ends before ``now``, as a packet-end
        event at ``now`` would not have fired yet, and all of them once a
        run without a bound has fired every event of the world."""
        if self._pending:
            clock = self._pending[0][5].radio.sim
            limit = math.inf if clock._ran_dry and not clock.pending_events \
                else clock.now - 1
            if self._events:
                limit = max(limit, self._events[-_WIDTH])
            self._end_records(limit)
        self._trim()

    def capture_loss(self, t_ns: int, tx: "Transmission",
                     sir_db: Any = _TX_SIR,
                     distance_m: Optional[float] = None,
                     rx_dbm: Optional[float] = None) -> None:
        """The SIR capture resolver destroyed ``tx``; records the measured
        signal-to-interference ratio in dB (``None`` when the degenerate
        fast path corrupted it without tracking power).

        The flat resolvers call this with the transmission alone and the
        SIR derives from its accumulated interference; the spatial
        resolver passes the per-(tx, listener) ``sir_db`` explicitly plus
        the pair's ``distance_m`` and received power ``rx_dbm`` (schema
        v2 details, None on flat worlds)."""
        if sir_db is _TX_SIR:
            if tx.interference_mw > 0.0 and tx.power_mw > 0.0:
                sir_db = round(
                    10.0 * math.log10(tx.power_mw / tx.interference_mw), 2)
            else:
                sir_db = None
        self._events.extend((t_ns, "capture_loss", tx.radio.path, tx.freq,
                             tx.packet.ptype, sir_db, distance_m, rx_dbm))

    def arq_retx(self, t_ns: int, src: str, freq: int, am_addr: int,
                 seqn: int) -> None:
        """The ARQ scheme re-sent an unacknowledged payload."""
        self._events.extend((t_ns, "arq_retx", src, freq, am_addr, seqn,
                             None, None))

    def afh_map(self, t_ns: int, src: str, n_used: int,
                excluded: list[int]) -> None:
        """An adaptive hop set was installed (or cleared: all 79 used)."""
        self._append((t_ns, "afh_map", src, None, n_used, excluded, None,
                      None))

    def assess(self, t_ns: int, src: str, n_bad: int,
               installed: bool) -> None:
        """The classifier ran an assessment."""
        self._append((t_ns, "assess", src, None, n_bad, installed, None,
                      None))

    # ------------------------------------------------------------------
    # Query / replay
    # ------------------------------------------------------------------

    def _rows(self) -> Iterator[tuple]:
        """The retained records, oldest first (padded to ``_WIDTH``):
        the two rings merged by time, an end in front of its instant's
        other records."""
        return heapq.merge(zip(*[iter(self._ends)] * _WIDTH),
                           zip(*[iter(self._events)] * _WIDTH), key=_AT)

    def __len__(self) -> int:
        self._flush_passed()
        return (len(self._events) + len(self._ends)) // _WIDTH

    def counts(self) -> dict[str, int]:
        """Exact per-kind totals over the whole run (eviction-proof):
        the banked kinds of every evicted record plus a tally of the
        retained ring."""
        self._flush_passed()
        totals = Counter(self._evicted)
        totals.update(self._events[1::_WIDTH])
        totals["tx_end"] += len(self._ends) // _WIDTH
        return {kind: totals[kind] for kind in KINDS if totals[kind]}

    def events(self, kind: Optional[str] = None, src: Optional[str] = None,
               freq: Optional[int] = None, start_ns: Optional[int] = None,
               end_ns: Optional[int] = None) -> list[TimelineEvent]:
        """The retained records matching every given filter, in time order.

        ``src`` matches exactly or as a dotted prefix (``"master"``
        matches ``"master.rf"``), so a device's whole activity can be
        pulled with its name alone.
        """
        self._flush_passed()
        out = []
        for row in self._rows():
            t_ns, ekind, esrc, efreq = row[:4]
            if kind is not None and ekind != kind:
                continue
            if src is not None and esrc != src \
                    and not esrc.startswith(src + "."):
                continue
            if freq is not None and efreq != freq:
                continue
            if start_ns is not None and t_ns < start_ns:
                continue
            if end_ns is not None and t_ns >= end_ns:
                continue
            out.append(TimelineEvent(t_ns, ekind, esrc, efreq,
                                     self._data(row)))
        return out

    def replay(self, **filters: Any) -> Iterator[str]:
        """Yield one human-readable line per matching record, in time
        order — the drill-down view of a surprising campaign number."""
        for event in self.events(**filters):
            yield event.describe()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_signals(self) -> list[TracedSignal]:
        """Synthesize one :class:`TracedSignal` per record kind
        (``timeline.<kind>``), carrying the records' one-line renderings
        as string values — the bridge into the existing
        :class:`~repro.sim.trace.TraceRecorder` / VCD tooling."""
        self._flush_passed()
        by_kind: dict[str, TracedSignal] = {}
        for row in self._rows():
            t_ns, ekind, esrc, efreq = row[:4]
            traced = by_kind.get(ekind)
            if traced is None:
                traced = by_kind[ekind] = TracedSignal(f"timeline.{ekind}")
            traced.times.append(t_ns)
            traced.values.append(
                TimelineEvent(t_ns, ekind, esrc, efreq, self._data(row))
                .describe())
        return [by_kind[kind] for kind in KINDS if kind in by_kind]

    def inject(self, recorder: TraceRecorder) -> None:
        """Merge this timeline into ``recorder`` so its next
        :meth:`~repro.sim.trace.TraceRecorder.to_vcd` export interleaves
        timeline records with the watched waveforms."""
        for traced in self.to_signals():
            recorder.signals[traced.name] = traced

    def to_jsonl(self, stream: io.TextIOBase) -> int:
        """Write every retained record as one JSON object per line;
        returns the number of lines written (the per-trial archive format
        of the experiment harnesses, schema :data:`SCHEMA_VERSION`)."""
        self._flush_passed()
        written = 0
        for row in self._rows():
            t_ns, kind, src, freq = row[:4]
            stream.write(json.dumps(
                {"t_ns": t_ns, "kind": kind, "src": src, "freq": freq,
                 **self._data(row)}))
            stream.write("\n")
            written += 1
        return written


def read_jsonl(stream: io.TextIOBase) -> list[TimelineEvent]:
    """Read a :meth:`TimelineCapture.to_jsonl` archive back into
    :class:`TimelineEvent` records.

    Back-compat by construction: detail fields a record does not carry —
    e.g. the schema-v2 ``distance_m``/``rx_dbm`` on a v1
    ``capture_loss`` — are filled with None, so old archives read
    losslessly under the current schema.  Unknown kinds and extra fields
    are preserved as-is (forward compat for newer archives).
    """
    out = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        raw = json.loads(line)
        kind = raw.pop("kind")
        t_ns = raw.pop("t_ns")
        src = raw.pop("src")
        freq = raw.pop("freq", None)
        for name in _FIELDS.get(kind, ()):
            raw.setdefault(name, None)
        out.append(TimelineEvent(t_ns, kind, src, freq, raw))
    return out
