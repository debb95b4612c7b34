"""Slot-grid timing helpers shared by the link-controller procedures."""

from __future__ import annotations

from repro import units
from repro.baseband.packets import PacketType, packet_duration_ns

#: Durations of the fixed-size packets (1 µs per bit).
ID_DURATION_NS = packet_duration_ns(PacketType.ID)          # 68 us
POLL_DURATION_NS = packet_duration_ns(PacketType.POLL)      # 126 us
NULL_DURATION_NS = packet_duration_ns(PacketType.NULL)      # 126 us
FHS_DURATION_NS = packet_duration_ns(PacketType.FHS)        # 366 us

#: Time from the start of a packet to the end of its sync word
#: (preamble 4 + sync 64 bits) — the correlator's decision point.
SYNC_DECISION_NS = 68 * units.BIT_NS

#: Additional time to the end of the (FEC 1/3) header: trailer 4 + 54 bits.
HEADER_DECISION_NS = SYNC_DECISION_NS + (4 + 54) * units.BIT_NS
