"""Bluetooth baseband layer: bits, coding, packets, clocks and hopping.

Implements the blocks of the paper's Fig. 3 TRANSMITTER/RECEIVER columns
(access code, header, FEC, CRC, whitening, FHS) plus the CLOCK and HOP_FREQ
modules, at bit-accurate fidelity, and a statistical error model that is
cross-validated against the bit-accurate codec.
"""

from repro.baseband.address import BdAddr, GIAC_LAP
from repro.baseband.clock import BtClock
from repro.baseband.codec import DecodeResult, decode_packet, encode_packet
from repro.baseband.errormodel import StageErrorModel
from repro.baseband.hop import HopSelector
from repro.baseband.packets import Packet, PacketType, packet_duration_ns

__all__ = [
    "BdAddr",
    "BtClock",
    "DecodeResult",
    "GIAC_LAP",
    "HopSelector",
    "Packet",
    "PacketType",
    "StageErrorModel",
    "decode_packet",
    "encode_packet",
    "packet_duration_ns",
]
