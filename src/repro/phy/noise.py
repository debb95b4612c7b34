"""Channel noise models.

The paper's channel flips bits independently with a fixed BER; we add a
Gilbert-Elliott bursty variant as an extension (disabled by default).
"""

from __future__ import annotations

import numpy as np


class NoiseModel:
    """Interface: draw error positions for a frame of ``n`` bits."""

    def error_positions(self, n: int) -> np.ndarray:
        """Indices of inverted bits in a frame of length ``n``."""
        raise NotImplementedError

    def error_count(self, n: int) -> int:
        """Number of inverted bits in a frame of length ``n`` (cheap path)."""
        return len(self.error_positions(n))


class BerNoise(NoiseModel):
    """Independent bit inversions with probability ``ber``."""

    def __init__(self, ber: float, rng: np.random.Generator):
        self.ber = float(ber)
        self._rng = rng

    def error_positions(self, n: int) -> np.ndarray:
        if self.ber <= 0.0 or n == 0:
            return np.zeros(0, dtype=np.int64)
        count = self._rng.binomial(n, self.ber)
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        return self._rng.choice(n, size=count, replace=False)

    def error_count(self, n: int) -> int:
        if self.ber <= 0.0 or n == 0:
            return 0
        return int(self._rng.binomial(n, self.ber))


class GilbertElliottNoise(NoiseModel):
    """Two-state burst noise with the same average BER as requested.

    The channel alternates between a good state (error-free) and a bad
    state (error probability ``bad_ber``); the mean sojourn in the bad
    state is ``burst_len`` bits and the stationary mix reproduces the
    requested average BER.

    Sojourn times in a two-state Markov chain are geometric, so instead of
    stepping the chain bit by bit (the reference loop draws two uniforms
    per bit), :meth:`error_positions` samples alternating good/bad
    run lengths with ``Generator.geometric`` and then flips bits only
    inside the bad runs — O(errors + runs) work instead of O(bits).  The
    carried state across frames is the bare good/bad flag, exactly like
    the reference loop: geometric sojourns are memoryless, so re-sampling
    the remaining run length at the next frame leaves the process
    distribution unchanged.  Draw-for-draw the RNG stream differs from the
    reference, so the two implementations are compared statistically (BER
    and burst-structure bounds) in ``tests/phy/test_gilbert_elliott.py``.
    """

    def __init__(self, ber: float, burst_len: float, rng: np.random.Generator,
                 bad_ber: float = 0.5):
        if not 0 < bad_ber <= 0.5:
            raise ValueError("bad_ber must lie in (0, 0.5]")
        self.ber = float(ber)
        self.bad_ber = bad_ber
        self._rng = rng
        # stationary P(bad) to hit the average BER
        p_bad = min(1.0, ber / bad_ber)
        self._p_leave_bad = 1.0 / max(burst_len, 1.0)
        if p_bad >= 1.0:
            self._p_enter_bad = 1.0
        else:
            self._p_enter_bad = self._p_leave_bad * p_bad / (1.0 - p_bad)
        self._bad = False

    def _bad_intervals(self, n: int) -> list[tuple[int, int]]:
        """Sample the chain's bad-state [start, end) intervals over ``n``
        bits, advancing the carried good/bad flag to bit ``n``."""
        rng = self._rng
        enter, leave = self._p_enter_bad, self._p_leave_bad
        intervals: list[tuple[int, int]] = []
        pos = 0
        bad = self._bad
        # expected bits covered by one good+bad cycle, for batch sizing
        cycle = 1.0 / enter + 1.0 / leave
        while pos < n:
            pairs = max(8, int((n - pos) / cycle * 1.25) + 2)
            if bad:
                # the in-progress bad sojourn leads; pairs-1 good runs
                # interleave with the remaining pairs-1 bad runs
                bads = rng.geometric(leave, pairs)
                goods = rng.geometric(enter, pairs - 1)
                lengths = np.empty(2 * pairs - 1, dtype=np.int64)
                lengths[0] = bads[0]
                lengths[1::2] = goods
                lengths[2::2] = bads[1:]
                first_bad = 0
            else:
                goods = rng.geometric(enter, pairs)
                bads = rng.geometric(leave, pairs)
                lengths = np.empty(2 * pairs, dtype=np.int64)
                lengths[0::2] = goods
                lengths[1::2] = bads
                first_bad = 1
            ends = pos + np.cumsum(lengths)
            cut = int(np.searchsorted(ends, n))  # first run reaching bit n
            if cut >= len(ends):
                # batch exhausted before bit n: state flips after the last
                # completed run; the next batch continues from there
                runs_used = len(ends)
                bad = (runs_used - 1 - first_bad) % 2 != 0
            else:
                runs_used = cut + 1
                # run `cut` is the one containing bit n-1; the carried
                # state is its state unless it ends exactly at n, in which
                # case the next (alternating) run's state carries
                bad = ((cut - first_bad) % 2 == 0) ^ (int(ends[cut]) == n)
            starts = ends - lengths
            for r in range(first_bad, runs_used, 2):
                lo = int(starts[r])
                hi = min(int(ends[r]), n)
                if lo < n:
                    intervals.append((lo, hi))
            pos = int(ends[runs_used - 1])
        self._bad = bool(bad)
        return intervals

    def error_positions(self, n: int) -> np.ndarray:
        if self.ber <= 0.0 or n == 0:
            return np.zeros(0, dtype=np.int64)
        intervals = self._bad_intervals(n)
        if not intervals:
            return np.zeros(0, dtype=np.int64)
        bad_bits = np.concatenate(
            [np.arange(lo, hi, dtype=np.int64) for lo, hi in intervals])
        mask = self._rng.random(len(bad_bits)) < self.bad_ber
        return bad_bits[mask]

    def error_count(self, n: int) -> int:
        """Cheap path: one binomial over the sampled bad-bit total instead
        of materialising per-bit positions."""
        if self.ber <= 0.0 or n == 0:
            return 0
        total_bad = sum(hi - lo for lo, hi in self._bad_intervals(n))
        if total_bad == 0:
            return 0
        return int(self._rng.binomial(total_bad, self.bad_ber))
