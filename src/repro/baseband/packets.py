"""Baseband packet types, header fields and air durations.

Covers the packets the paper exercises: ID, NULL, POLL, FHS and the six ACL
data packets DM1/DH1/DM3/DH3/DM5/DH5 (plus AUX1 for completeness). SCO/voice
packets are out of scope (the paper never uses them).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from repro import units
from repro.baseband import access_code as ac
from repro.baseband.bits import bits_from_int, int_from_bits
from repro.errors import EncodingError
from repro.baseband.fhs import FhsPayload

HEADER_BITS = 10
HEADER_AIR_BITS = 54  # (10 + 8 HEC) * 3 (FEC 1/3)


class Fec(enum.Enum):
    """Payload FEC scheme."""

    NONE = "none"
    RATE_23 = "2/3"


@dataclass(frozen=True)
class PacketInfo:
    """Static properties of a packet type."""

    code: int  # 4-bit type code in the packet header
    slots: int  # slots occupied on air (1, 3 or 5)
    fec: Optional[Fec]  # payload FEC; None for packets without payload
    max_payload: int  # maximum user bytes
    has_crc: bool
    payload_header_bytes: int


class PacketType(enum.Enum):
    """The packet types of the ACL/common transport.

    Every member carries two plain attributes, set once below: ``info``,
    its :class:`PacketInfo`, and ``is_data``, True for the six ACL
    data-carrying types (and AUX1).  The slot handlers read them for
    every packet, so no read runs code.
    """

    ID = "ID"
    NULL = "NULL"
    POLL = "POLL"
    FHS = "FHS"
    DM1 = "DM1"
    DH1 = "DH1"
    AUX1 = "AUX1"
    DM3 = "DM3"
    DH3 = "DH3"
    DM5 = "DM5"
    DH5 = "DH5"

    # members hash by identity: Enum's own hash runs Python code, and the
    # air-time cache hashes the type of every packet sent
    __hash__ = object.__hash__

    info: "PacketInfo"
    is_data: bool


_PACKET_INFO = {
    PacketType.ID: PacketInfo(code=0, slots=1, fec=None, max_payload=0,
                              has_crc=False, payload_header_bytes=0),
    PacketType.NULL: PacketInfo(code=0, slots=1, fec=None, max_payload=0,
                                has_crc=False, payload_header_bytes=0),
    PacketType.POLL: PacketInfo(code=1, slots=1, fec=None, max_payload=0,
                                has_crc=False, payload_header_bytes=0),
    PacketType.FHS: PacketInfo(code=2, slots=1, fec=Fec.RATE_23, max_payload=18,
                               has_crc=True, payload_header_bytes=0),
    PacketType.DM1: PacketInfo(code=3, slots=1, fec=Fec.RATE_23, max_payload=17,
                               has_crc=True, payload_header_bytes=1),
    PacketType.DH1: PacketInfo(code=4, slots=1, fec=Fec.NONE, max_payload=27,
                               has_crc=True, payload_header_bytes=1),
    PacketType.AUX1: PacketInfo(code=9, slots=1, fec=Fec.NONE, max_payload=29,
                                has_crc=False, payload_header_bytes=1),
    PacketType.DM3: PacketInfo(code=10, slots=3, fec=Fec.RATE_23, max_payload=121,
                               has_crc=True, payload_header_bytes=2),
    PacketType.DH3: PacketInfo(code=11, slots=3, fec=Fec.NONE, max_payload=183,
                               has_crc=True, payload_header_bytes=2),
    PacketType.DM5: PacketInfo(code=14, slots=5, fec=Fec.RATE_23, max_payload=224,
                               has_crc=True, payload_header_bytes=2),
    PacketType.DH5: PacketInfo(code=15, slots=5, fec=Fec.NONE, max_payload=339,
                               has_crc=True, payload_header_bytes=2),
}

for _ptype, _info in _PACKET_INFO.items():
    _ptype.info = _info
    _ptype.is_data = _ptype in (
        PacketType.DM1, PacketType.DH1, PacketType.AUX1,
        PacketType.DM3, PacketType.DH3, PacketType.DM5, PacketType.DH5)

#: Symmetric single-link data rates from the spec (kb/s), used by the
#: throughput experiment to sanity-check the simulator's zero-noise numbers.
NOMINAL_RATE_KBPS = {
    PacketType.DM1: 108.8,
    PacketType.DH1: 172.8,
    PacketType.DM3: 258.1,
    PacketType.DH3: 390.4,
    PacketType.DM5: 286.7,
    PacketType.DH5: 433.9,
}


@dataclass
class Packet:
    """One baseband packet as composed by the paper's TRANSMITTER module.

    Attributes:
        ptype: packet type.
        am_addr: active-member address (3 bits; 0 is broadcast).
        flow: header flow-control bit.
        arqn: acknowledgement bit of the ARQ scheme.
        seqn: sequence bit of the ARQ scheme.
        payload: user bytes for data packets.
        fhs: FHS payload (required iff ``ptype is PacketType.FHS``).
        lap: LAP of the access code this packet is sent under (CAC of the
            piconet, DAC of the paged device, or GIAC/DIAC).
    """

    ptype: PacketType
    lap: int
    am_addr: int = 0
    flow: int = 1
    arqn: int = 0
    seqn: int = 0
    payload: bytes = b""
    fhs: Optional[FhsPayload] = None
    llid: int = 2  # payload-header LLID: 2 = L2CAP start, 3 = LMP

    def __post_init__(self) -> None:
        info = self.ptype.info
        if self.ptype is PacketType.FHS:
            if self.fhs is None:
                raise EncodingError("FHS packet requires an FhsPayload")
        elif len(self.payload) > info.max_payload:
            raise EncodingError(
                f"{self.ptype.value} payload {len(self.payload)}B exceeds "
                f"maximum {info.max_payload}B"
            )
        if not 0 <= self.am_addr < 8:
            raise EncodingError(f"AM_ADDR out of range: {self.am_addr}")

    @classmethod
    def trusted(cls, ptype: PacketType, lap: int, am_addr: int, arqn: int,
                seqn: int = 0, payload: bytes = b"", llid: int = 2) -> "Packet":
        """A packet from parts checked upstream, built without the
        constructor's checks.  The connection handlers build one per
        transmission from their TX buffers, which check every payload
        when it is queued."""
        packet = object.__new__(cls)
        packet.ptype = ptype
        packet.lap = lap
        packet.am_addr = am_addr
        packet.flow = 1
        packet.arqn = arqn
        packet.seqn = seqn
        packet.payload = payload
        packet.fhs = None
        packet.llid = llid
        return packet

    # -- header ------------------------------------------------------------

    def header_bits(self) -> np.ndarray:
        """The 10 header bits: AM_ADDR(3) TYPE(4) FLOW ARQN SEQN."""
        return np.concatenate([
            bits_from_int(self.am_addr, 3),
            bits_from_int(self.ptype.info.code, 4),
            bits_from_int(self.flow & 1, 1),
            bits_from_int(self.arqn & 1, 1),
            bits_from_int(self.seqn & 1, 1),
        ])

    @property
    def duration_ns(self) -> int:
        """On-air duration at 1 µs per bit."""
        return packet_air_bits(self.ptype, len(self.payload)) * units.BIT_NS


def header_fields(bits10: np.ndarray) -> tuple[int, int, int, int, int]:
    """Unpack (am_addr, type_code, flow, arqn, seqn) from 10 header bits."""
    am_addr = int_from_bits(bits10[0:3])
    code = int_from_bits(bits10[3:7])
    return am_addr, code, int(bits10[7]), int(bits10[8]), int(bits10[9])


def type_from_code(code: int, id_hint: bool = False) -> PacketType:
    """Map a 4-bit header type code back to a PacketType.

    Code 0 is NULL (ID packets have no header at all; ``id_hint`` is unused
    but kept for symmetry with the spec's shared code space).
    """
    for ptype, info in _PACKET_INFO.items():
        if ptype is PacketType.ID:
            continue
        if info.code == code:
            return ptype
    raise ValueError(f"unknown packet type code {code}")


def payload_body_bits(ptype: PacketType, payload_len: int) -> int:
    """Payload bits before FEC: payload header + user bytes + CRC."""
    info = ptype.info
    if ptype is PacketType.FHS:
        return 160  # 144 payload + 16 CRC
    total_bytes = info.payload_header_bytes + payload_len + (2 if info.has_crc else 0)
    return 8 * total_bytes


@lru_cache(maxsize=8192)
def packet_air_bits(ptype: PacketType, payload_len: int = 0) -> int:
    """Total transmitted bits (access code + header + encoded payload)."""
    if ptype is PacketType.ID:
        return ac.ID_CODE_LEN
    info = ptype.info
    body = payload_body_bits(ptype, payload_len)
    if body == 0:
        encoded = 0
    elif info.fec is Fec.RATE_23:
        encoded = math.ceil(body / 10) * 15
    else:
        encoded = body
    return ac.FULL_CODE_LEN + HEADER_AIR_BITS + encoded


def packet_duration_ns(ptype: PacketType, payload_len: int = 0) -> int:
    """On-air duration of a packet in nanoseconds (1 µs per bit)."""
    return packet_air_bits(ptype, payload_len) * units.BIT_NS
