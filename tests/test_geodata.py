from __future__ import annotations

import json
import random

import pytest

from ogb import geodata, names, trust
from ogb.errors import FeatureError
from ogb.geodata import (
    INLINE,
    REFERENCE,
    OgbData,
    OgbTile,
    canonical_data_name,
    canonical_tile,
    dedupe_features,
    make_ogb_data_set,
    parse_feature,
    post_filter,
)
from ogb.grid import BoundingBox, TileId
from ogb.names import DataName, TileName


def test_parse_starbucks_and_identity_properties(starbucks):
    f = parse_feature(starbucks)
    assert f.geometry_type == "Point"
    assert (f.oid, f.tid, f.uid, f.cid) == ("1234", "Foo", "Alice", "ShopApp")
    assert len(f.points) == 1
    # Unknown application properties ride along untouched.
    assert f.properties["amenity"] == "Coffee Shop"


def test_round_trip_preserves_raw_json(starbucks):
    f = parse_feature(json.dumps(starbucks))
    assert f.to_geojson() == starbucks
    # oid stays numeric in JSON even though names use its string form.
    assert f.to_geojson()["properties"]["oid"] == 1234


def test_mandatory_property_validation(starbucks):
    for key in ("oid", "tid", "uid", "cid"):
        broken = json.loads(json.dumps(starbucks))
        del broken["properties"][key]
        with pytest.raises(FeatureError):
            parse_feature(broken)
    bad = json.loads(json.dumps(starbucks))
    bad["properties"]["tid"] = "has space"
    with pytest.raises(FeatureError):
        parse_feature(bad)
    nogeom = {"type": "Feature", "properties": {"oid": 1, "tid": "t", "uid": "u", "cid": "c"}}
    with pytest.raises(FeatureError):
        parse_feature(nogeom)


def test_canonical_tile_and_name(starbucks):
    f = parse_feature(starbucks)
    assert canonical_tile(f) == TileId(12, 41, ((5, 8), (1, 9)))
    assert canonical_data_name(f).name.text == \
        "ndn:/OGB/12/41/58/19/GPS-ID/DATA/Foo/ShopApp/Alice/1234"


def test_data_set_single_point(starbucks):
    f = parse_feature(starbucks)
    items = make_ogb_data_set(f, freshness_ms=60000)
    assert len(items) == 3
    by_level = {item.name.tile.level: item for item in items}
    assert set(by_level) == {0, 1, 2}
    assert by_level[2].body_type == INLINE
    assert by_level[0].body_type == REFERENCE
    assert by_level[1].body_type == REFERENCE
    assert by_level[0].body == canonical_data_name(f)
    assert by_level[2].name == canonical_data_name(f)


def multipoint_feature(coords, oid="77"):
    return parse_feature({
        "type": "Feature",
        "geometry": {"type": "MultiPoint", "coordinates": coords},
        "properties": {"oid": oid, "tid": "Foo", "uid": "Alice", "cid": "ShopApp"},
    })


def test_data_set_multipoint_one_inline_rest_references():
    # Three positions in three different level-2 tiles of one level-1 tile.
    f = multipoint_feature([[12.511, 41.891], [12.521, 41.891], [12.531, 41.891]])
    items = make_ogb_data_set(f, freshness_ms=60000)
    # 3 level-2 tiles + 1 level-1 + 1 level-0.
    assert len(items) == 5
    inline = [i for i in items if i.body_type == INLINE]
    refs = [i for i in items if i.body_type == REFERENCE]
    assert len(inline) == 1 and len(refs) == 4
    canon = canonical_tile(f)
    assert inline[0].name.tile == canon
    assert names.tile_prefix(canon).components == min(
        names.tile_prefix(t).components for t in geodata.feature_tiles(f, 2))
    assert all(r.body == inline[0].name for r in refs)


def reference_data_set(f, freshness_ms):
    """make_ogb_data_set as first written: every point located at every
    level, tiles ordered by their tile-prefixes' components."""
    def key(t):
        return names.tile_prefix(t).components
    canonical = min(geodata.feature_tiles(f, 2), key=key)
    canonical_name = DataName(canonical, f.tid, f.cid, f.uid, f.oid)
    items = []
    for level in range(3):
        for tile in sorted(geodata.feature_tiles(f, level), key=key):
            name = DataName(tile, f.tid, f.cid, f.uid, f.oid)
            if tile == canonical:
                items.append(OgbData(name, INLINE, f, freshness_ms))
            else:
                items.append(OgbData(name, REFERENCE, canonical_name, freshness_ms))
    return items


def test_data_set_locating_once_equals_the_reference():
    rng = random.Random(17)

    def coordinate(low, high):
        pick = rng.random()
        if pick < 0.3:                   # on a level-2 cell edge
            return round(rng.uniform(low, high), 2)
        if pick < 0.4:                   # on a whole degree
            return float(round(rng.uniform(low, high)))
        if pick < 0.5:                   # close under an edge
            return round(rng.uniform(low, high), 2) - 1e-12
        return rng.uniform(low, high)

    for i in range(2000):
        # Mostly near one spot, so MultiPoints share and straddle cells.
        spread = rng.choice([0.005, 0.05, 0.5, 3.0])
        lng0, lat0 = rng.uniform(-179, 176), rng.uniform(-89, 86)
        coords = [[min(179.99, coordinate(lng0, lng0 + spread)),
                   min(89.99, coordinate(lat0, lat0 + spread))]
                  for _ in range(rng.choice([1, 1, 2, 3, 6]))]
        geometry = ({"type": "Point", "coordinates": coords[0]} if len(coords) == 1
                    else {"type": "MultiPoint", "coordinates": coords})
        f = parse_feature({"type": "Feature", "geometry": geometry, "properties": {
            "oid": i, "tid": "Foo", "uid": "Alice", "cid": "ShopApp"}})
        got = make_ogb_data_set(f, 60000)
        want = reference_data_set(f, 60000)
        assert [(it.name, it.body_type, it.body) for it in got] == \
            [(it.name, it.body_type, it.body) for it in want], coords


def test_data_set_multipoint_across_level0_tiles():
    f = multipoint_feature([[12.5, 41.5], [13.5, 41.5], [14.5, 41.5]])
    items = make_ogb_data_set(f, freshness_ms=1000)
    assert len(items) == 9
    assert sum(1 for i in items if i.body_type == INLINE) == 1


def test_ogb_data_wire_round_trip(starbucks, keyring):
    f = parse_feature(starbucks)
    items = make_ogb_data_set(f, freshness_ms=60000)
    kp, cert = keyring.user("Foo", "Alice")
    for item in items:
        item.signature = trust.sign_envelope(kp, cert, item.name.name.text,
                                             item.signed_payload())
    for item in items:
        wire = item.to_wire()
        back = OgbData.from_wire(wire)
        assert back.to_wire() == wire
        assert back.name == item.name
        assert back.body_type == item.body_type
        assert back.signature == item.signature
        if item.body_type == INLINE:
            assert back.body.to_geojson() == f.to_geojson()


def test_ogb_tile_wire_round_trip(starbucks):
    f = parse_feature(starbucks)
    items = make_ogb_data_set(f, freshness_ms=60000)
    tile = OgbTile(TileName(TileId(12, 41), "Foo", "ShopApp"), items, 5000)
    wire = tile.to_wire()
    back = OgbTile.from_wire(wire)
    assert back.to_wire() == wire
    assert len(back.items) == 3


def point_feature(lng, lat, oid):
    return parse_feature({
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [lng, lat]},
        "properties": {"oid": oid, "tid": "T", "uid": "U", "cid": "C"},
    })


def test_post_filter_intersect_vs_include():
    box = BoundingBox.of(0.0, 0.0, 1.0, 1.0)
    straddling = multipoint_feature([[0.5, 0.5], [2.0, 2.0]], oid="a1")
    inside = multipoint_feature([[0.25, 0.25], [0.75, 0.75]], oid="a2")
    outside = point_feature(5.0, 5.0, "a3")
    on_edge = point_feature(1.0, 1.0, "a4")
    feats = [straddling, inside, outside, on_edge]
    assert [f.oid for f in post_filter(feats, box, "intersect")] == ["a1", "a2", "a4"]
    assert [f.oid for f in post_filter(feats, box, "include")] == ["a2", "a4"]
    with pytest.raises(FeatureError):
        post_filter(feats, box, "overlap")


def test_dedupe_keeps_first():
    a = point_feature(1.5, 1.5, "x")
    b = point_feature(2.5, 2.5, "x")
    c = point_feature(3.5, 3.5, "y")
    assert dedupe_features([a, b, c]) == [a, c]
    raw = a.to_geojson()
    raw["properties"]["uid"] = "V"
    twin = parse_feature(raw)                # same oid, another user's object
    assert dedupe_features([a, b, twin, c]) == [a, twin, c]
