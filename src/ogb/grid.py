"""Fixed three-level decimal grid over WGS84 degree space.

Level-0 tiles are whole 1x1 degree cells, level-1 tiles 0.1 degree, level-2
tiles 0.01 degree, so each tile splits into 10x10 children.  Tile membership
is half-open: a tile owns [low, high) on both axes, which keeps neighbouring
tiles disjoint and gives every point exactly one owner per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import GridHierarchyError, InvalidCoordinate, UnsupportedGeometry

LEVELS = 3
MAX_LEVEL = LEVELS - 1
SIDE = 10                 # children per axis per level
RATIO = SIDE * SIDE       # children per tile

LNG_MIN, LNG_MAX = -180.0, 180.0
LAT_MIN, LAT_MAX = -90.0, 90.0


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84 position, longitude first (GeoJSON axis order)."""

    lng: float
    lat: float

    def __post_init__(self):
        if not (math.isfinite(self.lng) and math.isfinite(self.lat)):
            raise InvalidCoordinate("coordinates must be finite, got (%r, %r)" % (self.lng, self.lat))
        if not (LNG_MIN <= self.lng < LNG_MAX):
            raise InvalidCoordinate("longitude %r outside [%s, %s)" % (self.lng, LNG_MIN, LNG_MAX))
        if not (LAT_MIN <= self.lat < LAT_MAX):
            raise InvalidCoordinate("latitude %r outside [%s, %s)" % (self.lat, LAT_MIN, LAT_MAX))


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box; closed containment, so zero-area boxes hold points."""

    min: GeoPoint
    max: GeoPoint

    def __post_init__(self):
        if self.min.lng > self.max.lng or self.min.lat > self.max.lat:
            raise InvalidCoordinate("box min corner must not exceed max corner")

    @classmethod
    def of(cls, min_lng, min_lat, max_lng, max_lat):
        return cls(GeoPoint(min_lng, min_lat), GeoPoint(max_lng, max_lat))

    @property
    def width(self):
        return self.max.lng - self.min.lng

    @property
    def height(self):
        return self.max.lat - self.min.lat

    @property
    def area(self):
        return self.width * self.height

    def contains(self, p: GeoPoint) -> bool:
        return (self.min.lng <= p.lng <= self.max.lng
                and self.min.lat <= p.lat <= self.max.lat)


@dataclass(frozen=True)
class TileId:
    """A grid tile: whole-degree anchor plus one (lng, lat) digit pair per level."""

    lng0: int
    lat0: int
    digits: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not (int(LNG_MIN) <= self.lng0 < int(LNG_MAX)):
            raise InvalidCoordinate("tile lng0 %r outside grid" % (self.lng0,))
        if not (int(LAT_MIN) <= self.lat0 < int(LAT_MAX)):
            raise InvalidCoordinate("tile lat0 %r outside grid" % (self.lat0,))
        if len(self.digits) > MAX_LEVEL:
            raise GridHierarchyError("at most %d digit pairs, got %d" % (MAX_LEVEL, len(self.digits)))
        for pair in self.digits:
            if len(pair) != 2 or not (isinstance(pair[0], int) and 0 <= pair[0] < SIDE
                                      and isinstance(pair[1], int) and 0 <= pair[1] < SIDE):
                raise InvalidCoordinate("digit pair %r outside 0..%d" % (pair, SIDE - 1))

    @property
    def level(self) -> int:
        return len(self.digits)


def _axis_cell(value: float, base: int, level: int) -> int:
    """Index of the half-open cell holding value within its whole degree.

    The initial scaled guess can land one cell off near edges because of float
    rounding; the correction loops compare against the exact edge expression
    (base + idx / scale) that tile_bbox uses, so locate and tile_bbox always
    agree about ownership.
    """
    scale = SIDE ** level
    idx = int((value - base) * scale)
    if idx < 0:
        idx = 0
    elif idx > scale - 1:
        idx = scale - 1
    while idx > 0 and value < base + idx / scale:
        idx -= 1
    while idx < scale - 1 and value >= base + (idx + 1) / scale:
        idx += 1
    return idx


def locate(p: GeoPoint, level: int) -> TileId:
    """Tile of `p` at `level`; negative coordinates floor to the tile below."""
    if not 0 <= level <= MAX_LEVEL:
        raise GridHierarchyError("level must be 0..%d, got %r" % (MAX_LEVEL, level))
    lng0 = math.floor(p.lng)
    lat0 = math.floor(p.lat)
    if level == 0:
        return TileId(lng0, lat0)
    ix = _axis_cell(p.lng, lng0, level)
    iy = _axis_cell(p.lat, lat0, level)
    digits = []
    for l in range(level - 1, -1, -1):
        f = SIDE ** l
        digits.append((ix // f % SIDE, iy // f % SIDE))
    return TileId(lng0, lat0, tuple(digits))


def parent(t: TileId) -> TileId:
    if t.level == 0:
        raise GridHierarchyError("level-0 tile has no parent")
    return TileId(t.lng0, t.lat0, t.digits[:-1])


def children(t: TileId) -> list[TileId]:
    if t.level >= MAX_LEVEL:
        raise GridHierarchyError("level-%d tile has no children" % t.level)
    return [TileId(t.lng0, t.lat0, t.digits + ((dx, dy),))
            for dx in range(SIDE) for dy in range(SIDE)]


def _axis_edges(base: int, digits: Sequence[int]) -> tuple[float, float]:
    level = len(digits)
    scale = SIDE ** level
    idx = 0
    for d in digits:
        idx = idx * SIDE + d
    return base + idx / scale, base + (idx + 1) / scale


def tile_bbox(t: TileId) -> BoundingBox:
    """Half-open extent of the tile; max corner is exclusive."""
    lng_lo, lng_hi = _axis_edges(t.lng0, [d[0] for d in t.digits])
    lat_lo, lat_hi = _axis_edges(t.lat0, [d[1] for d in t.digits])
    # The max corner may sit on the grid boundary (e.g. lng 180.0), which
    # GeoPoint rejects, so the box is assembled without revalidation.
    box = object.__new__(BoundingBox)
    object.__setattr__(box, "min", _raw_point(lng_lo, lat_lo))
    object.__setattr__(box, "max", _raw_point(lng_hi, lat_hi))
    return box


def _raw_point(lng: float, lat: float) -> GeoPoint:
    p = object.__new__(GeoPoint)
    object.__setattr__(p, "lng", lng)
    object.__setattr__(p, "lat", lat)
    return p


def tile_contains(t: TileId, p: GeoPoint) -> bool:
    box = tile_bbox(t)
    return (box.min.lng <= p.lng < box.max.lng
            and box.min.lat <= p.lat < box.max.lat)


def geometry_points(geometry: Mapping) -> tuple[GeoPoint, ...]:
    """Positions of a GeoJSON Point or MultiPoint geometry."""
    gtype = geometry.get("type")
    coords = geometry.get("coordinates")
    if gtype == "Point":
        coords = [coords]
    elif gtype != "MultiPoint":
        raise UnsupportedGeometry("unsupported geometry type %r" % (gtype,))
    if not coords or not isinstance(coords, (list, tuple)):
        raise UnsupportedGeometry("geometry has no positions")
    points = []
    for pos in coords:
        if (not isinstance(pos, (list, tuple)) or len(pos) < 2
                or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                           for c in pos[:2])):
            raise InvalidCoordinate("position must be [lng, lat] numbers, got %r"
                                    % (pos,))
        points.append(GeoPoint(float(pos[0]), float(pos[1])))
    return tuple(points)


def intersected_tiles(geometry: Mapping | Iterable[GeoPoint], level: int) -> set[TileId]:
    """Distinct tiles at `level` touched by the geometry's positions."""
    if isinstance(geometry, Mapping):
        points = geometry_points(geometry)
    else:
        points = tuple(geometry)
        if not points:
            raise UnsupportedGeometry("geometry has no positions")
    return {locate(p, level) for p in points}
