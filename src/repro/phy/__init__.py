"""Radio-channel model: noise, collisions and staged packet delivery.

Python re-implementation of the paper's Fig. 2: a digital channel module
with one input per device, bit-inversion noise from a random generator,
modulator/demodulator delay, and a resolver that turns simultaneous
transmissions into the undefined value ``X``.
"""

from repro.phy.channel import Channel, Reception
from repro.phy.noise import BerNoise
from repro.phy.rf import RfFrontEnd, RxExpect
from repro.phy.transmission import Transmission, TxMeta

__all__ = [
    "BerNoise",
    "Channel",
    "Reception",
    "RfFrontEnd",
    "RxExpect",
    "Transmission",
    "TxMeta",
]
