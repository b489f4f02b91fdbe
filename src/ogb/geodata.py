"""GeoJSON features and their stored representations.

A feature is stored once: the full payload lives as an Inline object in its
canonical tile (the lexicographically smallest level-2 tile the geometry
touches) and every other touched tile, at every level, holds a Reference to
that canonical name.  Queries at any tessellation level therefore find either
the payload itself or a pointer to it.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

from . import grid, names
from .errors import FeatureError
from .grid import BoundingBox, GeoPoint, TileId
from .names import DataName, TileName
from .trust import TrustEnvelope

MANDATORY_PROPERTIES = ("oid", "tid", "uid", "cid")
GEOMETRY_TYPES = ("Point", "MultiPoint")

MODE_INTERSECT = "intersect"
MODE_INCLUDE = "include"
QUERY_MODES = (MODE_INTERSECT, MODE_INCLUDE)

INLINE = "inline"
REFERENCE = "reference"


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass
class GeoFeature:
    """A validated Point/MultiPoint feature; the raw dict is kept verbatim so
    round trips preserve unknown application properties."""

    raw: dict
    points: tuple[GeoPoint, ...] = field(compare=False)

    @property
    def geometry_type(self) -> str:
        return self.raw["geometry"]["type"]

    @property
    def properties(self) -> dict:
        return self.raw["properties"]

    @property
    def oid(self) -> str:
        return str(self.properties["oid"])

    @property
    def tid(self) -> str:
        return str(self.properties["tid"])

    @property
    def uid(self) -> str:
        return str(self.properties["uid"])

    @property
    def cid(self) -> str:
        return str(self.properties["cid"])

    def to_geojson(self) -> dict:
        return copy.deepcopy(self.raw)

    def to_wire(self) -> bytes:
        return canonical_json(self.raw)


def parse_feature(data: Union[bytes, str, Mapping], owned: bool = False) -> GeoFeature:
    """Validate a GeoJSON Feature and its mandatory identity properties.

    `owned=True` skips the defensive copy; callers assert the mapping was
    freshly decoded and will not be mutated afterwards.
    """
    if isinstance(data, (bytes, str)):
        owned = True
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise FeatureError("feature is not valid JSON: %s" % exc) from exc
    if not isinstance(data, Mapping):
        raise FeatureError("feature must be a JSON object")
    if data.get("type") != "Feature":
        raise FeatureError("expected type 'Feature', got %r" % (data.get("type"),))
    geometry = data.get("geometry")
    if not isinstance(geometry, Mapping):
        raise FeatureError("feature has no geometry object")
    if geometry.get("type") not in GEOMETRY_TYPES:
        raise FeatureError("unsupported geometry type %r" % (geometry.get("type"),))
    properties = data.get("properties")
    if not isinstance(properties, Mapping):
        raise FeatureError("feature has no properties object")
    for key in MANDATORY_PROPERTIES:
        value = properties.get(key)
        if value is None or value == "":
            raise FeatureError("mandatory property %r missing or empty" % key)
        if not names.is_identifier(str(value)):
            raise FeatureError("property %r=%r not usable in names" % (key, value))
    points = grid.geometry_points(geometry)
    raw = dict(data) if owned else copy.deepcopy(dict(data))
    return GeoFeature(raw=raw, points=points)


def feature_tiles(f: GeoFeature, level: int) -> set[TileId]:
    return grid.intersected_tiles(f.points, level)


def canonical_tile(f: GeoFeature) -> TileId:
    """Deepest-level touched tile with the smallest tile-prefix."""
    tiles = feature_tiles(f, grid.MAX_LEVEL)
    return min(tiles, key=lambda t: names.tile_prefix(t).components)


def canonical_data_name(f: GeoFeature) -> DataName:
    return DataName(canonical_tile(f), f.tid, f.cid, f.uid, f.oid)


@dataclass
class OgbData:
    """One stored object: a name plus either the inline feature or a
    reference to the canonical copy."""

    name: DataName
    body_type: str
    body: Union[GeoFeature, DataName]
    freshness_ms: int
    signature: Optional[TrustEnvelope] = None

    def __post_init__(self):
        if self.body_type not in (INLINE, REFERENCE):
            raise FeatureError("bad body type %r" % (self.body_type,))

    def body_dict(self, copy_raw: bool = True):
        if self.body_type == INLINE:
            return self.body.to_geojson() if copy_raw else self.body.raw
        return self.body.name.text

    def signed_payload(self) -> bytes:
        """The bytes the owner's envelope covers (everything but the name and
        the signature itself)."""
        return canonical_json({
            "bodyType": self.body_type,
            "body": self.body_dict(copy_raw=False),
            "freshnessMs": self.freshness_ms,
        })

    def _dict(self, copy_raw: bool) -> dict:
        d = {
            "name": self.name.name.text,
            "bodyType": self.body_type,
            "body": self.body_dict(copy_raw),
            "freshnessMs": self.freshness_ms,
        }
        if self.signature is not None:
            d["signature"] = self.signature.to_dict()
        return d

    def to_dict(self) -> dict:
        return self._dict(copy_raw=True)

    def to_wire(self) -> bytes:
        return canonical_json(self._dict(copy_raw=False))

    @classmethod
    def from_dict(cls, d: Mapping) -> "OgbData":
        parsed = names.parse(d["name"])
        if not isinstance(parsed, DataName):
            raise FeatureError("%r is not a data name" % (d["name"],))
        body_type = d.get("bodyType")
        if body_type == INLINE:
            # Wire dicts are freshly decoded, so the feature can take them.
            body: Union[GeoFeature, DataName] = parse_feature(d["body"],
                                                              owned=True)
        elif body_type == REFERENCE:
            ref = names.parse(d["body"])
            if not isinstance(ref, DataName):
                raise FeatureError("reference %r is not a data name" % (d["body"],))
            body = ref
        else:
            raise FeatureError("bad body type %r" % (body_type,))
        signature = None
        if d.get("signature") is not None:
            signature = TrustEnvelope.from_dict(d["signature"])
        return cls(parsed, body_type, body, int(d["freshnessMs"]), signature)

    @classmethod
    def from_wire(cls, data: bytes) -> "OgbData":
        return cls.from_dict(json.loads(data.decode("utf-8")))


def make_ogb_data_set(f: GeoFeature, freshness_ms: int) -> list[OgbData]:
    """All objects the feature maps to: one Inline at the canonical tile,
    References everywhere else at all three levels.  Unsigned; the caller
    signs each item with the owner's key."""
    canonical = canonical_tile(f)
    canonical_name = DataName(canonical, f.tid, f.cid, f.uid, f.oid)
    items = []
    for level in range(grid.LEVELS):
        tiles = sorted(feature_tiles(f, level),
                       key=lambda t: names.tile_prefix(t).components)
        for tile in tiles:
            name = DataName(tile, f.tid, f.cid, f.uid, f.oid)
            if tile == canonical:
                items.append(OgbData(name, INLINE, f, freshness_ms))
            else:
                items.append(OgbData(name, REFERENCE, canonical_name, freshness_ms))
    return items


@dataclass
class OgbTile:
    """A tile-query response: every stored object of one (tile, tid, cid)."""

    name: TileName
    items: list[OgbData]
    freshness_ms: int

    def to_dict(self) -> dict:
        return {
            "name": self.name.name.text,
            "items": [item.to_dict() for item in self.items],
            "freshnessMs": self.freshness_ms,
        }

    def to_wire(self) -> bytes:
        return canonical_json({
            "name": self.name.name.text,
            "items": [item._dict(copy_raw=False) for item in self.items],
            "freshnessMs": self.freshness_ms,
        })

    @classmethod
    def from_wire(cls, data: bytes) -> "OgbTile":
        d = json.loads(data.decode("utf-8"))
        parsed = names.parse(d["name"])
        if not isinstance(parsed, TileName):
            raise FeatureError("%r is not a tile name" % (d["name"],))
        items = [OgbData.from_dict(item) for item in d["items"]]
        return cls(parsed, items, int(d["freshnessMs"]))


def post_filter(features: Iterable[GeoFeature], bbox: BoundingBox,
                mode: str) -> list[GeoFeature]:
    """Keep features matching the query mode; input order is preserved.

    `intersect` keeps features with at least one position inside the box,
    `include` only those entirely inside.
    """
    if mode not in QUERY_MODES:
        raise FeatureError("unknown query mode %r" % (mode,))
    kept = []
    for f in features:
        inside = [bbox.contains(p) for p in f.points]
        if mode == MODE_INTERSECT and any(inside):
            kept.append(f)
        elif mode == MODE_INCLUDE and all(inside):
            kept.append(f)
    return kept


def dedupe_features(features: Iterable[GeoFeature]) -> list[GeoFeature]:
    """Drop repeats of one object, keeping first occurrences.  References and
    inline copies of an object share its full identity (tid, cid, uid, oid);
    two users' objects with the same oid are distinct."""
    seen = set()
    unique = []
    for f in features:
        key = (f.tid, f.cid, f.uid, f.oid)
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique
