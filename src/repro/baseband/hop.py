"""Frequency-hop selection kernel for the 79-channel system.

Structure follows spec v1.2 Part B §2.6 (the paper's HOP_FREQ module):

* a 5-bit phase ``X`` plus mode-dependent inputs ``Y1, Y2, A..F`` derived
  from a 28-bit address and a clock;
* first adder ``(X + A) mod 32``, XOR with ``B``, the PERM5 butterfly
  permutation controlled by 14 bits from ``C`` and ``D``, a final adder
  ``(... + E + F + Y2) mod 79``;
* mapping through the interleaved channel register (even channels ascending,
  then odd channels).

Modes:

* ``page_scan`` / ``inquiry_scan`` — X from CLKN16-12, so the scan frequency
  is redrawn every 1.28 s (this is what makes the paper's mean inquiry time
  ≈ 1556 slots emerge, see ``LinkConfig.train_repetitions`` in
  :mod:`repro.config`).
* ``page`` / ``inquiry`` — X sweeps a 16-frequency train centred (via
  ``koffset``) on the estimated scan phase of the target; trains A and B
  together cover all 32 phases of the sequence.
* ``response`` — the slave-response / inquiry-response sequences, paired
  phase-by-phase with the page/inquiry trains.
* ``connection`` — clock bits mixed into A/C/D/F give the pseudo-random
  79-channel sequence of the piconet.
* ``connection`` + **AFH** — when an adaptive channel map is installed
  (spec 1.2 adaptive frequency hopping, see :meth:`HopSelector.set_afh_map`)
  the same kernel runs, and selections landing on an unused channel are
  remapped onto index ``k mod N`` of the N used channels (ordered like the
  channel register: even ascending, then odd), ``k`` being the kernel's
  pre-register output — the spec's remapping rule.  A memo miss of
  :meth:`HopSelector.connection` remaps its one slot; the array kernels
  (:meth:`HopSelector.connection_many`, :func:`connection_windows_many`)
  remap with a mask-gather on the used-channel register.

The PERM5 butterfly *wiring* below follows the spec's structure (7 stages,
two controlled exchanges each); the exact wire order is not load-bearing for
any statistic we reproduce (validated by uniformity/coverage tests).  The
kernel reads it through two lookup tables derived from it at import, one
per half of the butterfly, so no call walks the stages.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.baseband.address import GIAC_LAP

#: Train offsets (spec: koffset = 24 for the A train, 8 for the B train).
KOFFSET_TRAIN_A = 24
KOFFSET_TRAIN_B = 8

#: The interleaved output register: even channels ascending, then odd.
CHANNEL_REGISTER = tuple(range(0, units.NUM_CHANNELS, 2)) + tuple(
    range(1, units.NUM_CHANNELS, 2)
)

_CHANNEL_REGISTER_ARRAY = np.array(CHANNEL_REGISTER, dtype=np.int64)
_CHANNEL_REGISTER_ARRAY.setflags(write=False)

#: PERM5 butterfly exchanges, 7 stages x 2, controlled by P13..P0.
_BUTTERFLIES = (
    (1, 2), (3, 4),
    (1, 3), (0, 4),
    (0, 1), (2, 3),
    (1, 4), (0, 3),
    (2, 4), (1, 3),
    (0, 3), (1, 2),
    (0, 4), (1, 3),
)


def _perm5_table(butterflies: tuple[tuple[int, int], ...]) -> bytes:
    """Seven butterfly exchanges as a 4,096-entry table indexed by
    ``control << 5 | z``: the 7 control bits drive the exchanges in order,
    the first by the lowest bit.

    Each exchange doubles the table: the new half is the old one with the
    exchange applied after it (``bytes.translate``), so the build leaves
    nothing behind but the table (a numpy build raised peak RSS at import
    by about 90 KB)."""
    table = bytes(range(32))
    for i, j in butterflies:
        mask = (1 << i) | (1 << j)
        table += table.translate(bytes(
            z ^ mask if ((z >> i) ^ (z >> j)) & 1 else z for z in range(256)))
    return table


#: PERM5 in two halves: stages 0-6 under control bits 0-6, then stages
#: 7-13 under bits 7-13.  The scalar kernel indexes the ``bytes`` (which
#: yields a plain int); the vectorized gathers read the same memory as
#: read-only ``uint8`` arrays.
_PERM5_LO = _perm5_table(_BUTTERFLIES[:7])
_PERM5_HI = _perm5_table(_BUTTERFLIES[7:])
_PERM5_LO_ARRAY = np.frombuffer(_PERM5_LO, dtype=np.uint8)
_PERM5_HI_ARRAY = np.frombuffer(_PERM5_HI, dtype=np.uint8)


def perm5(z: int, control: int) -> int:
    """Apply the 14-bit-controlled butterfly permutation to a 5-bit value."""
    low = _PERM5_LO[(control & 0x7F) << 5 | (z & 0x1F)]
    return _PERM5_HI[((control >> 7) & 0x7F) << 5 | low]


def perm5_many(z: np.ndarray, control: np.ndarray) -> np.ndarray:
    """Vectorized :func:`perm5` over aligned arrays of values and controls
    (``int64``: the ``uint8`` table entries are cast up before any caller
    adds to them)."""
    control = np.asarray(control, dtype=np.int64)
    low = _PERM5_LO_ARRAY[(control & 0x7F) << 5
                          | (np.asarray(z, dtype=np.int64) & 0x1F)]
    return _PERM5_HI_ARRAY[((control >> 7) & 0x7F) << 5 | low].astype(
        np.int64)


def _bits(value: int, positions: tuple[int, ...]) -> int:
    """Pack the given bit positions of ``value`` (MSB of result first)."""
    out = 0
    for position in positions:
        out = (out << 1) | ((value >> position) & 1)
    return out


def afh_channel_register(used_mask: np.ndarray) -> np.ndarray:
    """The AFH remapping register for a boolean used-channel mask: by
    definition the basic channel register (even channels ascending, then
    odd) filtered to the used channels — derived from it directly so the
    ordering rule lives in one place."""
    register = _CHANNEL_REGISTER_ARRAY[used_mask[_CHANNEL_REGISTER_ARRAY]]
    register.setflags(write=False)
    return register


class AfhMap:
    """An installed adaptive hop set: mask, remap register and its size."""

    __slots__ = ("used_mask", "register", "n_used")

    def __init__(self, used_mask: np.ndarray):
        # always copy: freezing the caller's own array in place would make
        # their next mask update raise
        mask = np.array(used_mask, dtype=bool)
        if mask.shape != (units.NUM_CHANNELS,):
            raise ValueError(
                f"channel map must have {units.NUM_CHANNELS} entries")
        if not mask.any():
            raise ValueError("AFH map must keep at least one used channel")
        mask.setflags(write=False)
        self.used_mask = mask
        self.register = afh_channel_register(mask)
        self.n_used = len(self.register)


class HopRegistry:
    """World-scoped shared hop state: one per simulation world.

    Holds, keyed by 28-bit hop address:

    * **connection memos** — every member of a piconet holds a selector
      bound to the *master's* hop address, so master and slaves all
      evaluate the identical (address, clk) kernel each slot.  Sharing the
      memo computes each slot's frequency once per piconet rather than
      once per device.
    * **adaptive hop sets (AFH maps)** — the master installs the map
      through its piconet and every member's selector (bound to the same
      master address) picks it up here — the model's stand-in for the
      LMP_set_AFH handshake, which keeps master and slaves remapping in
      lockstep.

    A registry belongs to one world: :class:`repro.phy.channel.Channel`
    creates one and :class:`repro.api.Session` exposes it, so any number
    of sessions can be live in one process without stepping on each
    other's maps or memos (the old process-global class state allowed at
    most one live AFH-using session — building a second one stripped the
    first's maps).  Selectors created without a registry share the
    module-level :data:`DEFAULT_REGISTRY` (diagnostics, bare kernel
    tests).

    Both tables are bounded for the fresh-address Monte-Carlo pattern:
    at :attr:`MAX_ADDRESSES` distinct addresses the memo registry is
    dropped wholesale (live selectors keep their own dicts and lazily
    re-bind), and the AFH-map table evicts its oldest-installed entries
    FIFO — a world juggling more than 64 *concurrently live* AFH piconets
    is out of scope (its oldest maps would silently un-install).
    """

    __slots__ = ("connection_memos", "afh_maps", "generation")

    #: Address bound shared by both tables.
    MAX_ADDRESSES = 64

    def __init__(self) -> None:
        self.connection_memos: dict[int, dict[int, int]] = {}
        self.afh_maps: dict[int, AfhMap] = {}
        #: Bumped on every map install/clear/eviction.  A selector's
        #: memoized ``connection`` path compares its seen generation
        #: against this and lazily re-binds to the registry's canonical
        #: (freshly cleared) memo dict on mismatch — so even a selector
        #: whose dict was orphaned by the memo-registry eviction can never
        #: serve a pre-remap frequency after a map change (between map
        #: changes, fragmented dicts are harmless: the kernel is pure in
        #: (address, clk, map)).
        self.generation = 0

    def bind_memo(self, address: int) -> dict[int, int]:
        """The canonical shared connection memo for ``address``, creating
        it (under the address bound) if needed."""
        memos = self.connection_memos
        memo = memos.get(address)
        if memo is None:
            if len(memos) >= self.MAX_ADDRESSES:
                memos.clear()
            memo = memos[address] = {}
        return memo

    def afh_map(self, address: int) -> AfhMap | None:
        """The adaptive hop set installed for ``address``, if any."""
        return self.afh_maps.get(address)

    def set_afh_map(self, address: int, used_mask: np.ndarray | None) -> None:
        """Install (or clear, with ``None``) the adaptive hop set for
        ``address``.

        All selectors bound to that hop address — the master's and every
        slave's — see the new map immediately, and the address's shared
        connection memo is dropped so no stale pre-remap frequency
        survives.  Installing for a fresh address past the
        :attr:`MAX_ADDRESSES` bound evicts the oldest-installed maps
        (fresh-address Monte-Carlo trials would otherwise leak an entry
        per trial address forever — the memo table is bounded the same
        way).
        """
        if used_mask is None:
            if self.afh_maps.pop(address, None) is None:
                return
        else:
            if address not in self.afh_maps \
                    and len(self.afh_maps) >= self.MAX_ADDRESSES:
                evict = [addr for addr in self.afh_maps][
                    :len(self.afh_maps) - self.MAX_ADDRESSES + 1]
                for addr in evict:
                    del self.afh_maps[addr]
                    stale = self.connection_memos.get(addr)
                    if stale is not None:
                        stale.clear()
            self.afh_maps[address] = AfhMap(used_mask)
        memo = self.connection_memos.get(address)
        if memo is not None:
            memo.clear()
        # invalidate every selector's binding (including ones holding
        # memo dicts orphaned by the registry eviction — see
        # generation); they re-bind to the cleared canonical dict on
        # their next memoized lookup
        self.generation += 1

    def clear_afh_maps(self) -> None:
        """Drop every installed adaptive hop set (fresh-world reset)."""
        if not self.afh_maps:
            return
        for address in self.afh_maps:
            memo = self.connection_memos.get(address)
            if memo is not None:
                memo.clear()
        self.afh_maps.clear()
        self.generation += 1


#: Registry used by selectors constructed without an explicit one — bare
#: kernel diagnostics and tests, and the shared GIAC inquiry selector
#: (which never runs in connection mode, so it only ever touches the memo
#: side).  Simulation worlds each own their registry (see
#: :class:`repro.phy.channel.Channel`).
DEFAULT_REGISTRY = HopRegistry()


class HopSelector:
    """Hop-selection kernel bound to one 28-bit address.

    The address is the hop_address of: the master (connection / channel
    access), the paged device (page mode) or the GIAC/DIAC (inquiry modes).
    Shared per-address state (connection memos, AFH maps) lives in the
    :class:`HopRegistry` the selector is bound to — one per simulation
    world, :data:`DEFAULT_REGISTRY` when none is given.
    """

    #: Entry bound of one address's shared connection memo: a miss (or a
    #: :func:`connection_windows_many` row) that would take it past
    #: _MEMO_MAX entries clears it first.  The slot loops query clocks in
    #: increasing order, so what a full memo holds already lies behind
    #: them, and the bound caps memory without adding misses (the kernel
    #: mixes clock bits up to CLK26, so there is no small cycle to
    #: exploit).
    _MEMO_MAX = 1 << 10

    def __init__(self, address: int, registry: HopRegistry | None = None):
        self.address = address = address & 0xFFFFFFF
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        # the address fields (spec notation A27..A0); every mode reads them
        # and the connection kernel mixes clock bits into A, C and D
        self._a = _bits(address, (27, 26, 25, 24, 23))
        self._b = _bits(address, (22, 21, 20, 19))
        self._c = _bits(address, (8, 6, 4, 2, 0))
        self._d = _bits(address, (18, 17, 16, 15, 14, 13, 12, 11, 10))
        self._e = _bits(address, (13, 11, 9, 7, 5, 3, 1))
        # memo for the 32-phase page/scan/response kernels (the A..F inputs
        # are address-fixed there, so each mode has at most 32 outputs);
        # the connection kernel is served by the shared per-address memo,
        # which a miss extends by the one clock asked for, and by the
        # vectorized connection_many for bulk queries.
        self._phase_memo: dict[tuple[str, int, int], int] = {}
        # Monte-Carlo campaigns draw fresh addresses per trial, so the
        # registry of shared memos is bounded: at MAX_ADDRESSES the whole
        # table is dropped (live selectors keep their own dicts)
        self._bind_shared_memo()

    def _bind_shared_memo(self) -> None:
        """(Re-)attach to the registry's canonical memo dict for this
        address, creating it (under the address bound) if needed, and
        record the AFH generation the binding is valid for."""
        self._connection_memo = self.registry.bind_memo(self.address)
        self._afh_seen_generation = self.registry.generation

    # -- the selection box ---------------------------------------------------

    def _select_index(self, x: int, y1: int, y2: int, a: int, b: int, c: int,
                      d: int, f: int) -> int:
        """The kernel's pre-register output (the AFH remap keys off it)."""
        z1 = (x + a) % 32
        z2 = z1 ^ (b & 0xF) ^ (y1 * 0b10000)
        control = (c << 9) | d  # 14 control bits
        z3 = perm5(z2, control)
        return (z3 + self._e + f + y2) % units.NUM_CHANNELS

    def _select(self, x: int, y1: int, y2: int, a: int, b: int, c: int, d: int, f: int) -> int:
        return CHANNEL_REGISTER[self._select_index(x, y1, y2, a, b, c, d, f)]

    # -- adaptive hop set (AFH) ----------------------------------------------

    @property
    def afh_map(self) -> AfhMap | None:
        """The adaptive hop set installed for this hop address, if any."""
        return self.registry.afh_map(self.address)

    def set_afh_map(self, used_mask: np.ndarray | None) -> None:
        """Install (or clear, with ``None``) the adaptive hop set in this
        selector's registry — see :meth:`HopRegistry.set_afh_map`."""
        self.registry.set_afh_map(self.address, used_mask)

    # -- public modes ---------------------------------------------------------

    def scan_phase(self, clkn: int) -> int:
        """The 5-bit scan phase X = CLKN16-12 (redrawn every 1.28 s)."""
        return (clkn >> 12) & 0x1F

    def _phase_select(self, mode: str, x: int, y1: int, y2: int) -> int:
        """Memoised `_select` for the modes whose A..F are address-fixed."""
        key = (mode, x, y2)
        freq = self._phase_memo.get(key)
        if freq is None:
            freq = self._select(x=x, y1=y1, y2=y2, a=self._a, b=self._b,
                                c=self._c, d=self._d, f=0)
            self._phase_memo[key] = freq
        return freq

    def page_scan(self, clkn: int) -> int:
        """Page-scan (or inquiry-scan, with the GIAC selector) frequency."""
        return self._phase_select("scan", self.scan_phase(clkn), 0, 0)

    def train_phase(self, clke: int, koffset: int) -> int:
        """X of the page/inquiry hopping sequence for clock estimate CLKE."""
        clke_16_12 = (clke >> 12) & 0x1F
        clke_4_2_0 = (((clke >> 2) & 0b111) << 1) | (clke & 1)
        return (clke_16_12 + koffset + ((clke_4_2_0 - clke_16_12) % 16)) % 32

    def page(self, clke: int, koffset: int = KOFFSET_TRAIN_A) -> int:
        """Page (or inquiry) train frequency at clock estimate ``clke``.

        Y1/Y2 are fixed to the master-to-slave direction (0): the kernel is
        only evaluated at ID transmit instants, where the spec's Y1 = CLKE1
        term is zero by construction on the transmitter's own grid; pinning
        it keeps the pager aligned with the scanner even though CLKE's low
        bits are phase-shifted against the master's slot grid.
        """
        return self._phase_select("page", self.train_phase(clke, koffset), 0, 0)

    def response(self, phase: int, n: int = 0) -> int:
        """Slave-response / inquiry-response frequency paired with train
        phase ``phase``; ``n`` counts responses (spec's N register)."""
        return self._phase_select("resp", (phase + n) % 32, 1, 32)

    def connection(self, clk: int) -> int:
        """Channel hopping in connection state at piconet clock CLK (with
        the AFH remap applied whenever an adaptive hop set is installed
        for this address), served from the shared memo; a miss evaluates
        this one clock."""
        if self._afh_seen_generation != self.registry.generation:
            self._bind_shared_memo()
        freq = self._connection_memo.get(clk)
        if freq is None:
            freq = self._connection_miss(clk)
        return freq

    def _connection_indices(self, clks: np.ndarray) -> np.ndarray:
        """Vectorized pre-register kernel output for an array of clocks."""
        return _kernel_indices(np.asarray(clks, dtype=np.int64), self._a,
                               self._b, self._c, self._d, self._e)

    def _connection_miss(self, clk: int) -> int:
        """Evaluate the connection kernel at ``clk`` alone, remap it onto
        the adaptive hop set if one is installed, and memoize it (a full
        memo is cleared first)."""
        y1 = (clk >> 1) & 1
        index = self._select_index(
            x=(clk >> 2) & 0x1F, y1=y1, y2=32 * y1,
            a=self._a ^ ((clk >> 21) & 0x1F), b=self._b,
            c=self._c ^ ((clk >> 16) & 0x1F), d=self._d ^ ((clk >> 7) & 0x1FF),
            f=(16 * ((clk >> 7) & 0x1FFFFF)) % units.NUM_CHANNELS)
        freq = CHANNEL_REGISTER[index]
        afh = self.registry.afh_map(self.address)
        if afh is not None and not afh.used_mask[freq]:
            freq = int(afh.register[index % afh.n_used])
        memo = self._connection_memo
        if len(memo) >= self._MEMO_MAX:
            memo.clear()
        memo[clk] = freq
        return freq

    def connection_many(self, clks: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`connection` over an array of clock values.

        Exactly equivalent element-by-element to the spec's per-clock
        kernel (enforced against the scalar oracle in
        ``tests/baseband_reference.py``), including the AFH remap when an
        adaptive hop set is installed — the remap is a pure array
        transform (mask-gather on the used-channel register).  Used by
        the hop-uniformity diagnostics, which evaluate the kernel over
        thousands of consecutive slots.
        """
        index = self._connection_indices(clks)
        freqs = _CHANNEL_REGISTER_ARRAY[index]
        afh = self.registry.afh_map(self.address)
        if afh is not None:
            remap = ~afh.used_mask[freqs]
            if remap.any():
                freqs[remap] = afh.register[index[remap] % afh.n_used]
        return freqs

    def train_frequencies(self, clke: int, koffset: int) -> list[int]:
        """The 16 distinct frequencies the train sweeps around ``clke``:
        phases CLKE16-12 + koffset + j for j = 0..15.  A sleeping inquiry or
        page train tests receivers against this set, one CLKE16-12 epoch at
        a time (:mod:`repro.link.train`)."""
        x0 = (clke >> 12) & 0x1F
        phases = [(x0 + koffset + j) % 32 for j in range(16)]
        return [
            self._select(x=phase, y1=0, y2=0,
                         a=self._a, b=self._b, c=self._c, d=self._d, f=0)
            for phase in phases
        ]


def _kernel_indices(clks: np.ndarray, a0, b0, c0, d0, e0) -> np.ndarray:
    """The connection kernel's pre-register output over an ``int64`` array
    of clocks; the address fields broadcast against it (plain ints for one
    selector, ``(n, 1)`` columns for one row per selector)."""
    y1 = (clks >> 1) & 1
    a = a0 ^ ((clks >> 21) & 0x1F)
    c = c0 ^ ((clks >> 16) & 0x1F)
    d = d0 ^ ((clks >> 7) & 0x1FF)
    f = (16 * ((clks >> 7) & 0x1FFFFF)) % units.NUM_CHANNELS
    # X = CLK6-2 through the first adder (mod 32), then the XOR with B, Y1
    z2 = (((clks >> 2) + a) & 0x1F) ^ b0 ^ (y1 << 4)
    z3 = perm5_many(z2, (c << 9) | d)
    return (z3 + e0 + f + 32 * y1) % units.NUM_CHANNELS


def connection_windows_many(selectors: list[HopSelector],
                            clk_starts: np.ndarray,
                            window: int) -> np.ndarray:
    """Batched connection-mode selection over **many addresses** at once.

    Row ``i`` holds ``window`` frequencies of ``selectors[i]``'s hop
    sequence starting at ``clk_starts[i]`` (stride 2 CLK ticks, the slot
    loops' query grid).  The per-address kernel constants (A..F) are
    stacked into one ``(n_addresses, 1)`` column each, so the first adder,
    XOR, PERM5 butterfly and final adder of *every* piconet run as one
    array pass over the whole ``(n_addresses, window)`` clock grid — the
    SoA slot engine's whole-world hop prefill.  Each row is
    element-for-element equal to the selector's own
    :meth:`HopSelector.connection` / :meth:`HopSelector.connection_many`
    (the AFH remap is applied per row from the selector's registry), and
    every row is folded into the shared per-address memo, so subsequent
    scalar lookups anywhere in the world are hits.
    """
    if not selectors:
        return np.zeros((0, window), dtype=np.int64)
    starts = np.asarray(clk_starts, dtype=np.int64).reshape(-1, 1)
    if starts.shape[0] != len(selectors):
        raise ValueError("one clk_start per selector required")
    clks = starts + 2 * np.arange(window, dtype=np.int64)

    def column(values: list[int]) -> np.ndarray:
        return np.asarray(values, dtype=np.int64).reshape(-1, 1)

    index = _kernel_indices(
        clks, column([s._a for s in selectors]),
        column([s._b for s in selectors]), column([s._c for s in selectors]),
        column([s._d for s in selectors]), column([s._e for s in selectors]))
    freqs = _CHANNEL_REGISTER_ARRAY[index]

    for row, selector in enumerate(selectors):
        if selector._afh_seen_generation != selector.registry.generation:
            selector._bind_shared_memo()
        afh = selector.registry.afh_map(selector.address)
        if afh is not None:
            remap = ~afh.used_mask[freqs[row]]
            if remap.any():
                freqs[row, remap] = afh.register[index[row, remap] % afh.n_used]
        memo = selector._connection_memo
        if len(memo) + window > HopSelector._MEMO_MAX:
            memo.clear()
        memo.update(zip(clks[row].tolist(), freqs[row].tolist()))
    return freqs


_GIAC_SELECTOR = HopSelector(GIAC_LAP)


def inquiry_selector() -> HopSelector:
    """The shared selector all devices use for inquiry (GIAC address)."""
    return _GIAC_SELECTOR


def channel_distribution(selector: HopSelector, clk_start: int, samples: int) -> np.ndarray:
    """Histogram of connection-mode channels over ``samples`` consecutive
    even slots (diagnostic / property-test helper)."""
    clks = clk_start + 4 * np.arange(samples, dtype=np.int64)
    return np.bincount(selector.connection_many(clks),
                       minlength=units.NUM_CHANNELS).astype(np.int64)
