"""Spatial layer: positions, path loss, and the per-world topology.

The SIR capture resolver (:mod:`repro.phy.channel`) carries per-TX
``power_mw``, but without geometry every receiver hears every
transmitter at full configured power.  This module supplies the missing
pieces:

* :class:`Position` — a 2-D point in metres.
* :class:`PathLossModel` — pluggable distance → loss mapping.
  :class:`LogDistancePathLoss` is the standard indoor model
  (``PL(d) = PL(d0) + 10·n·log10(d/d0)``); :class:`FlatLoss` is the
  degenerate model (0 dB everywhere) that keeps a topology-carrying
  world byte-identical to a world with no topology at all.
* :class:`WaypointMobility` — piecewise-linear waypoint routes,
  re-resolved on a slotted cadence by the topology.
* :class:`Topology` — the per-world registry mapping keys (device
  ``BdAddr`` for link-layer devices, any hashable for bare radios) to
  positions, with a lazily-built pairwise gain cache.

Layout helpers (:func:`ring_layout`, :func:`grid_layout`,
:func:`uniform_disc_layout`, :func:`cluster_layout`) produce position
lists for the placement APIs on ``Session``/``Piconet``/``Device``.

Keys without a registered position see unit gain (co-located), so a
partially-placed world degrades gracefully rather than erroring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

from repro import units
from repro.errors import ConfigError

__all__ = [
    "Position",
    "PathLossModel",
    "FlatLoss",
    "LogDistancePathLoss",
    "WaypointMobility",
    "Topology",
    "ring_layout",
    "grid_layout",
    "uniform_disc_layout",
    "cluster_layout",
]


@dataclass(frozen=True, slots=True)
class Position:
    """A point in the 2-D deployment plane, metres."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def _as_position(value) -> Position:
    """Coerce an ``(x, y)`` pair (or Position) to a :class:`Position`."""
    if isinstance(value, Position):
        return value
    x, y = value
    return Position(float(x), float(y))


class PathLossModel:
    """Distance → propagation loss.  Subclasses define :meth:`loss_db`;
    :meth:`gain` is the linear power gain the channel multiplies into
    per-pair rx power (``rx_mw = tx_mw × gain(distance)``)."""

    def loss_db(self, distance_m: float) -> float:
        raise NotImplementedError

    def gain(self, distance_m: float) -> float:
        return 10.0 ** (-self.loss_db(distance_m) / 10.0)


class FlatLoss(PathLossModel):
    """The degenerate model: 0 dB loss at any distance.  A topology
    running FlatLoss is byte-identical to no topology at all (the
    channel keeps its flat resolvers — see ``Topology.is_spatial``)."""

    def loss_db(self, distance_m: float) -> float:
        return 0.0

    def gain(self, distance_m: float) -> float:
        return 1.0


class LogDistancePathLoss(PathLossModel):
    """Log-distance path loss: ``PL(d) = PL(d0) + 10·n·log10(d/d0)``.

    ``exponent`` is the environment's decay exponent (2 = free space,
    ~3-4 indoor/obstructed); ``reference_loss_db`` is the measured loss
    at ``reference_distance_m``.  Distances below the reference clamp to
    it, so the model never produces gain > the reference gain.
    """

    def __init__(self, exponent: float = 2.0,
                 reference_loss_db: float = 40.0,
                 reference_distance_m: float = 1.0):
        if not math.isfinite(exponent) or exponent <= 0:
            raise ConfigError("path-loss exponent must be positive")
        if not math.isfinite(reference_loss_db) or reference_loss_db < 0:
            raise ConfigError("reference_loss_db must be >= 0")
        if not math.isfinite(reference_distance_m) or reference_distance_m <= 0:
            raise ConfigError("reference_distance_m must be positive")
        self.exponent = float(exponent)
        self.reference_loss_db = float(reference_loss_db)
        self.reference_distance_m = float(reference_distance_m)

    def loss_db(self, distance_m: float) -> float:
        d0 = self.reference_distance_m
        if distance_m < d0:
            distance_m = d0
        return (self.reference_loss_db
                + 10.0 * self.exponent * math.log10(distance_m / d0))


class WaypointMobility:
    """Piecewise-linear waypoint routes at a constant speed.

    Each key moves along its waypoint list at ``speed_mps``, parking at
    the final waypoint.  The topology samples :meth:`position_at` on its
    slotted cadence (``Topology.cadence_slots``), so positions are
    piecewise-constant over cadence windows — which is what lets the
    SoA engine reason about them (it declines absorption for mobile
    worlds; see ``repro.sim.soa``).
    """

    def __init__(self, speed_mps: float = 1.0):
        if not math.isfinite(speed_mps) or speed_mps <= 0:
            raise ConfigError("speed_mps must be positive")
        self.speed_mps = float(speed_mps)
        self.routes: dict[Hashable, list[Position]] = {}

    def set_route(self, key: Hashable, waypoints: Iterable) -> None:
        points = [_as_position(p) for p in waypoints]
        if not points:
            raise ConfigError("a route needs at least one waypoint")
        self.routes[key] = points

    def position_at(self, key: Hashable, t_s: float) -> Optional[Position]:
        points = self.routes.get(key)
        if points is None:
            return None
        travelled = self.speed_mps * t_s
        for a, b in zip(points, points[1:]):
            leg = a.distance_to(b)
            if travelled <= leg:
                if leg == 0.0:
                    return a
                f = travelled / leg
                return Position(a.x + (b.x - a.x) * f,
                                a.y + (b.y - a.y) * f)
            travelled -= leg
        return points[-1]


class Topology:
    """The per-world position registry and pairwise gain cache.

    Keys are whatever the radios report as their ``topo_key`` —
    ``BdAddr`` for link-layer devices, arbitrary hashables for bare
    radios in tests.  ``gain(a, b)`` is the linear path gain between two
    keys (1.0 when either side is unplaced), cached until a placement or
    mobility epoch invalidates it.  ``advance_to`` re-resolves mobile
    positions once per ``cadence_slots`` window.
    """

    def __init__(self, model: Optional[PathLossModel] = None,
                 mobility: Optional[WaypointMobility] = None,
                 cadence_slots: int = 64):
        if cadence_slots <= 0:
            raise ConfigError("cadence_slots must be positive")
        self.model = model if model is not None else LogDistancePathLoss()
        self.mobility = mobility
        self.cadence_slots = int(cadence_slots)
        self._positions: dict[Hashable, Position] = {}
        self._gains: dict[tuple, float] = {}
        self._epoch = -1

    @property
    def is_spatial(self) -> bool:
        """False for :class:`FlatLoss` — the channel then keeps its flat
        resolvers and the world stays byte-identical to no-topology."""
        return not isinstance(self.model, FlatLoss)

    # -- placement ------------------------------------------------------

    def place(self, key: Hashable, position) -> Position:
        """Register (or move) ``key`` at ``position`` (``(x, y)`` or
        :class:`Position`).  Returns the stored position."""
        position = _as_position(position)
        self._positions[key] = position
        self._gains.clear()
        return position

    def place_all(self, keys: Sequence[Hashable],
                  positions: Sequence) -> None:
        if len(keys) != len(positions):
            raise ConfigError("keys and positions must pair up 1:1")
        for key, position in zip(keys, positions):
            self.place(key, position)

    def position_of(self, key: Hashable) -> Optional[Position]:
        return self._positions.get(key)

    def positions(self) -> dict:
        return dict(self._positions)

    # -- mobility -------------------------------------------------------

    def advance_to(self, t_ns: int) -> None:
        """Re-resolve mobile positions for the cadence window containing
        ``t_ns``.  No-op without a mobility model, and once per epoch
        otherwise (positions are piecewise-constant between epochs)."""
        mobility = self.mobility
        if mobility is None:
            return
        window_ns = self.cadence_slots * units.SLOT_NS
        epoch = t_ns // window_ns
        if epoch == self._epoch:
            return
        self._epoch = epoch
        t_s = epoch * window_ns / 1e9
        moved = False
        for key in mobility.routes:
            position = mobility.position_at(key, t_s)
            if position is not None and position != self._positions.get(key):
                self._positions[key] = position
                moved = True
        if moved:
            self._gains.clear()

    # -- link budgets ---------------------------------------------------

    def distance(self, a: Hashable, b: Hashable) -> Optional[float]:
        """Metres between two keys, or None when either is unplaced."""
        if a is None or b is None:
            return None
        pa = self._positions.get(a)
        if pa is None:
            return None
        pb = self._positions.get(b)
        if pb is None:
            return None
        return pa.distance_to(pb)

    def gain(self, a: Hashable, b: Hashable) -> float:
        """Linear path gain between two keys (1.0 when unplaced)."""
        if a is None or b is None:
            return 1.0
        cached = self._gains.get((a, b))
        if cached is not None:
            return cached
        d = self.distance(a, b)
        g = 1.0 if d is None else self.model.gain(d)
        self._gains[(a, b)] = g
        return g

    def gain_from(self, position: Optional[Position],
                  key: Hashable) -> float:
        """Gain from a free-standing source position (e.g. a static
        interferer) to a registered key.  Unplaced on either side → 1.0
        (the interferer is then heard at configured power, exactly the
        flat model)."""
        if position is None or key is None:
            return 1.0
        rx = self._positions.get(key)
        if rx is None:
            return 1.0
        return self.model.gain(position.distance_to(rx))

    def snapshot(self, keys: Sequence[Hashable]) -> list[list[float]]:
        """Warm the gain cache for every ordered pair of ``keys`` and
        return the dense gain matrix (diagonal 1.0)."""
        n = len(keys)
        matrix = [[1.0] * n for _ in range(n)]
        for i, a in enumerate(keys):
            row = matrix[i]
            for j, b in enumerate(keys):
                if i != j:
                    row[j] = self.gain(a, b)
        return matrix


# ----------------------------------------------------------------------
# Layout helpers
# ----------------------------------------------------------------------

def ring_layout(n: int, radius_m: float,
                center=(0.0, 0.0)) -> list[Position]:
    """``n`` positions evenly spaced on a circle of ``radius_m``."""
    if n <= 0:
        raise ConfigError("n must be positive")
    cx, cy = _as_position(center).x, _as_position(center).y
    return [Position(cx + radius_m * math.cos(2.0 * math.pi * i / n),
                     cy + radius_m * math.sin(2.0 * math.pi * i / n))
            for i in range(n)]


def grid_layout(n: int, spacing_m: float,
                center=(0.0, 0.0)) -> list[Position]:
    """``n`` positions on a near-square grid with ``spacing_m`` pitch,
    centred on ``center`` (row-major fill)."""
    if n <= 0:
        raise ConfigError("n must be positive")
    cols = math.ceil(math.sqrt(n))
    rows = math.ceil(n / cols)
    c = _as_position(center)
    x0 = c.x - (cols - 1) * spacing_m / 2.0
    y0 = c.y - (rows - 1) * spacing_m / 2.0
    return [Position(x0 + (i % cols) * spacing_m,
                     y0 + (i // cols) * spacing_m)
            for i in range(n)]


def uniform_disc_layout(n: int, radius_m: float, rng,
                        center=(0.0, 0.0)) -> list[Position]:
    """``n`` positions uniform over a disc of ``radius_m`` (sqrt-radius
    sampling), drawn from the caller's numpy ``Generator`` — pass a
    seeded one for deterministic campaigns."""
    if n <= 0:
        raise ConfigError("n must be positive")
    c = _as_position(center)
    out = []
    for _ in range(n):
        r = radius_m * math.sqrt(float(rng.random()))
        theta = 2.0 * math.pi * float(rng.random())
        out.append(Position(c.x + r * math.cos(theta),
                            c.y + r * math.sin(theta)))
    return out


def cluster_layout(n: int, center, spread_m: float, rng) -> list[Position]:
    """``n`` positions normally scattered (sigma ``spread_m``) around
    ``center``, drawn from the caller's numpy ``Generator``."""
    if n <= 0:
        raise ConfigError("n must be positive")
    c = _as_position(center)
    return [Position(c.x + float(rng.normal(0.0, spread_m)),
                     c.y + float(rng.normal(0.0, spread_m)))
            for _ in range(n)]
