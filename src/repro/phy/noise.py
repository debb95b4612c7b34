"""Channel noise: the paper's i.i.d. bit inversions.

The paper's channel flips each bit independently with a fixed BER
("inversion of the bit in the channel controlled by a random number
generator").  Only the bit-accurate decode draws error positions here;
the default statistical channel samples whole decode stages
(:mod:`repro.baseband.errormodel`).
"""

from __future__ import annotations

import numpy as np


class BerNoise:
    """Independent bit inversions with probability ``ber``."""

    def __init__(self, ber: float, rng: np.random.Generator):
        self.ber = float(ber)
        self._rng = rng

    def error_positions(self, n: int) -> np.ndarray:
        """Indices of inverted bits in a frame of length ``n``."""
        if self.ber <= 0.0 or n == 0:
            return np.zeros(0, dtype=np.int64)
        count = self._rng.binomial(n, self.ber)
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        return self._rng.choice(n, size=count, replace=False)
