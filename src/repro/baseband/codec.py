"""Bit-accurate air-frame encoder/decoder.

Mirrors the paper's TRANSMITTER (COMPOSER, ACCESS_CODE_TX, HEADER_TX,
PAY_HEADER_TX, CRC_TX, FEC_TX) and RECEIVER (ACCESS_CODE_RX, HEADER_RX,
FEC_RX, CRC_RX) module chains:

    TX: header -> +HEC -> whiten -> FEC 1/3
        payload (+payload header) -> +CRC -> whiten -> FEC (type-dependent)
    RX: the exact inverse, with a sliding-correlator sync decision first.

The whitening sequence runs continuously across header and payload, seeded
by the piconet clock at the packet's slot, per spec §7.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.baseband import access_code as ac
from repro.baseband.access_code import AccessCode, _full_bits_cached, _id_bits_cached
from repro.baseband.bits import bits_from_bytes, bits_from_int, bytes_from_bits, int_from_bits
from repro.baseband.crc import crc16_compute, crc16_check
from repro.baseband.fec import Fec13Result, fec13_decode, fec13_encode, fec23_decode, fec23_encode
from repro.baseband.fhs import FHS_PAYLOAD_BITS, FhsPayload
from repro.baseband.hec import hec_check, hec_compute
from repro.baseband.packets import (
    Fec,
    HEADER_AIR_BITS,
    Packet,
    PacketType,
    header_fields,
    type_from_code,
)
from repro.baseband.whitening import whitening_sequence, whitening_slice
from repro.errors import DecodingError


def _payload_header_bits(ptype: PacketType, payload_len: int, llid: int = 2, flow: int = 1) -> np.ndarray:
    """Compose the 1- or 2-byte payload header of a data packet."""
    info = ptype.info
    if info.payload_header_bytes == 1:
        return np.concatenate([
            bits_from_int(llid & 0b11, 2),
            bits_from_int(flow & 1, 1),
            bits_from_int(payload_len, 5),
        ])
    return np.concatenate([
        bits_from_int(llid & 0b11, 2),
        bits_from_int(flow & 1, 1),
        bits_from_int(payload_len, 9),
        bits_from_int(0, 4),
    ])


def _parse_payload_header(ptype: PacketType, bits: np.ndarray) -> tuple[int, int, int]:
    """Return (llid, flow, length) from the payload-header bits."""
    info = ptype.info
    llid = int_from_bits(bits[0:2])
    flow = int(bits[2])
    if info.payload_header_bytes == 1:
        length = int_from_bits(bits[3:8])
    else:
        length = int_from_bits(bits[3:12])
    return llid, flow, length


@lru_cache(maxsize=8192)
def _encode_header_only(ptype: PacketType, lap: int, am_addr: int, flow: int,
                        arqn: int, seqn: int, uap: int, whiten_seed: int) -> np.ndarray:
    """Memoised air bits of a payload-less NULL/POLL packet.

    The frame depends on the header fields, the UAP (HEC preload) and only
    bits 6..1 of the clock (whitening seed) — a tiny key space that
    inquiry/page/polling campaigns hammer.  The cached array is read-only;
    the channel's noise stage copies before flipping bits.
    """
    packet = Packet(ptype=ptype, lap=lap, am_addr=am_addr, flow=flow,
                    arqn=arqn, seqn=seqn)
    header10 = packet.header_bits()
    header18 = np.concatenate([header10, hec_compute(header10, uap)])
    header_w = header18 ^ whitening_sequence(whiten_seed << 1, len(header18))
    bits = np.concatenate([_full_bits_cached(lap), fec13_encode(header_w)])
    bits.setflags(write=False)
    return bits


def encode_packet(packet: Packet, uap: int, clk: int) -> np.ndarray:
    """Serialise a packet to its on-air bits.

    Header-only packet types (ID, NULL, POLL) are served from per-field
    caches and return read-only arrays — copy before mutating.
    """
    if packet.ptype is PacketType.ID:
        return _id_bits_cached(packet.lap)
    if packet.ptype in (PacketType.NULL, PacketType.POLL):
        return _encode_header_only(
            packet.ptype, packet.lap, packet.am_addr, packet.flow & 1,
            packet.arqn & 1, packet.seqn & 1, uap & 0xFF, (clk >> 1) & 0x3F)

    code = AccessCode(packet.lap)
    header10 = packet.header_bits()
    header18 = np.concatenate([header10, hec_compute(header10, uap)])

    # payload body (pre-FEC, pre-whitening)
    if packet.ptype is PacketType.FHS:
        assert packet.fhs is not None
        body = packet.fhs.pack()
        body = np.concatenate([body, crc16_compute(body, uap)])
    elif packet.ptype.info.payload_header_bytes == 0:
        body = np.zeros(0, dtype=np.uint8)
    else:
        payload_header = _payload_header_bits(packet.ptype, len(packet.payload),
                                              llid=packet.llid)
        body = np.concatenate([payload_header, bits_from_bytes(packet.payload)])
        if packet.ptype.info.has_crc:
            body = np.concatenate([body, crc16_compute(body, uap)])

    # whitening runs continuously over header then payload
    white = whitening_sequence(clk, len(header18) + len(body))
    header_w = header18 ^ white[: len(header18)]
    body_w = body ^ white[len(header18) :]

    parts = [code.full_bits(), fec13_encode(header_w)]
    if len(body_w):
        if packet.ptype.info.fec is Fec.RATE_23:
            parts.append(fec23_encode(body_w))
        else:
            parts.append(body_w)
    return np.concatenate(parts)


@dataclass
class DecodeResult:
    """Outcome of decoding one air frame.

    Attributes:
        synced: sync word accepted by the correlator.
        header_ok: header recovered with a valid HEC.
        payload_ok: payload recovered (FEC decodable and CRC valid).
        packet: reconstructed packet when decode reached far enough.
        stage: deepest stage reached: 'sync' | 'header' | 'payload'.
        corrected_header_bits: FEC 1/3 corrections applied in the header.
        corrected_codewords: FEC 2/3 single-error corrections in the payload.
        header_am / header_type / header_arqn / header_seqn: raw header
            fields, available whenever ``header_ok`` even if the payload
            stage failed (the ARQ scheme acts on them).
    """

    synced: bool
    header_ok: bool = False
    payload_ok: bool = False
    packet: Optional[Packet] = None
    stage: str = "sync"
    corrected_header_bits: int = 0
    corrected_codewords: int = 0
    header_am: Optional[int] = None
    header_type: Optional[int] = None
    header_arqn: Optional[int] = None
    header_seqn: Optional[int] = None

    def set_header_fields(self, am_addr: int, type_code: int,
                          arqn: int, seqn: int) -> None:
        """Record the decoded header fields."""
        self.header_am = am_addr
        self.header_type = type_code
        self.header_arqn = arqn
        self.header_seqn = seqn

    @property
    def complete(self) -> bool:
        """True when the packet was fully and correctly received."""
        if not self.synced or self.packet is None:
            return False
        if self.packet.ptype in (PacketType.ID, PacketType.NULL, PacketType.POLL):
            return self.header_ok or self.packet.ptype is PacketType.ID
        return self.header_ok and self.payload_ok


def decode_packet(
    air_bits: np.ndarray,
    expected_lap: int,
    uap: int,
    clk: int,
    sync_threshold: int = 7,
) -> DecodeResult:
    """Decode on-air bits against the access code of ``expected_lap``.

    Never raises on noisy input — noise produces a result with the failed
    stage recorded. Raises :class:`DecodingError` only for structurally
    impossible frames (wrong lengths), which indicate simulator bugs.
    """
    code = AccessCode(expected_lap)
    n = len(air_bits)
    if n == ac.ID_CODE_LEN:
        synced = code.correlate(air_bits[ac.PREAMBLE_LEN : ac.PREAMBLE_LEN + ac.SYNC_LEN],
                                threshold=sync_threshold)
        packet = Packet(ptype=PacketType.ID, lap=expected_lap) if synced else None
        return DecodeResult(synced=synced, header_ok=synced, payload_ok=synced,
                            packet=packet, stage="payload" if synced else "sync")

    if n < ac.FULL_CODE_LEN + HEADER_AIR_BITS:
        raise DecodingError(f"air frame of {n} bits is no known packet")

    synced = code.correlate(
        air_bits[ac.PREAMBLE_LEN : ac.PREAMBLE_LEN + ac.SYNC_LEN], threshold=sync_threshold
    )
    if not synced:
        return DecodeResult(synced=False, stage="sync")

    header_air = air_bits[ac.FULL_CODE_LEN : ac.FULL_CODE_LEN + HEADER_AIR_BITS]
    fec13: Fec13Result = fec13_decode(header_air)
    payload_air = air_bits[ac.FULL_CODE_LEN + HEADER_AIR_BITS :]

    header18 = fec13.bits ^ whitening_sequence(clk, 18)
    header10, hec8 = header18[:10], header18[10:]
    if not hec_check(header10, hec8, uap):
        return DecodeResult(synced=True, header_ok=False, stage="header",
                            corrected_header_bits=fec13.corrected)

    am_addr, type_code, flow, arqn, seqn = header_fields(header10)
    try:
        ptype = type_from_code(type_code)
    except ValueError:
        return DecodeResult(synced=True, header_ok=False, stage="header",
                            corrected_header_bits=fec13.corrected)

    result = DecodeResult(synced=True, header_ok=True, stage="header",
                          corrected_header_bits=fec13.corrected)
    result.set_header_fields(am_addr, type_code, arqn, seqn)

    if ptype in (PacketType.NULL, PacketType.POLL):
        result.packet = Packet(ptype=ptype, lap=expected_lap, am_addr=am_addr,
                               flow=flow, arqn=arqn, seqn=seqn)
        result.payload_ok = True
        result.stage = "payload"
        return result

    # -- payload ------------------------------------------------------------
    if ptype.info.fec is Fec.RATE_23:
        if len(payload_air) % 15 != 0:
            raise DecodingError(f"{ptype.value} FEC 2/3 payload of {len(payload_air)} bits")
        fec23 = fec23_decode(payload_air)
        result.corrected_codewords = fec23.corrected
        if not fec23.ok:
            result.stage = "payload"
            return result
        body_w = fec23.bits
    else:
        body_w = payload_air

    # whiten exactly the post-FEC body: the whitening stream continues at
    # bit 18 and the decoded body is len(body_w) bits (not 2x payload_air)
    body = body_w ^ whitening_slice(clk, 18, len(body_w))
    result.stage = "payload"

    if ptype is PacketType.FHS:
        payload_bits = body[:FHS_PAYLOAD_BITS]
        crc_bits = body[FHS_PAYLOAD_BITS : FHS_PAYLOAD_BITS + 16]
        if not crc16_check(payload_bits, crc_bits, uap):
            return result
        result.packet = Packet(ptype=ptype, lap=expected_lap, am_addr=am_addr,
                               flow=flow, arqn=arqn, seqn=seqn,
                               fhs=FhsPayload.unpack(payload_bits))
        result.payload_ok = True
        return result

    # data packet: payload header + user bytes + CRC (FEC padding at tail)
    ph_bits = 8 * ptype.info.payload_header_bytes
    llid, pflow, length = _parse_payload_header(ptype, body[:ph_bits])
    if length > ptype.info.max_payload:
        return result
    end = ph_bits + 8 * length
    crc_end = end + 16
    if crc_end > len(body):
        return result
    if ptype.info.has_crc and not crc16_check(body[:end], body[end:crc_end], uap):
        return result
    result.packet = Packet(ptype=ptype, lap=expected_lap, am_addr=am_addr,
                           flow=flow, arqn=arqn, seqn=seqn,
                           payload=bytes_from_bits(body[ph_bits:end]),
                           llid=llid)
    result.payload_ok = True
    return result
