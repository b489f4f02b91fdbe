from __future__ import annotations

import random

import pytest

from ogb import trust
from ogb.cluster import ClusterConfig, SimCluster
from ogb.errors import AuthorizationError, PartialResultError
from ogb.frontend import Credentials, InsertHandler, QueryHandler, RangeQuery
from ogb.geodata import make_ogb_data_set, parse_feature
from ogb.grid import BoundingBox

from conftest import starbucks_dict

ROME_BOX = BoundingBox.of(12.50, 41.88, 12.53, 41.90)


def world_cluster(prefixes=("ndn:/OGB",), **kw):
    data = {
        "mode": "sim",
        "seed": 5,
        "engines": [{"id": "e1", "servedPrefixes": list(prefixes)}],
        "bfServer": {"m": 4096, "h": 5},
        "topology": {"handlerLinkMbps": None},
    }
    data.update(kw)
    return SimCluster(ClusterConfig.from_dict(data))


def handlers(cluster, tid="Foo", uid="Alice"):
    kp, cert = cluster.issue_user(tid, uid)
    creds = Credentials(tid, uid, kp, cert)
    store = trust.TrustStore(cluster.anchor, fetcher=cluster.cert_repo.get_wire)
    return (QueryHandler(cluster.substrate, store, creds),
            InsertHandler(cluster.substrate, store, creds))


def rome_query(**kw):
    defaults = {"bbox": ROME_BOX, "mode": "intersect", "tid": "Foo",
                "cid": "ShopApp"}
    defaults.update(kw)
    return RangeQuery(**defaults)


def multipoint(oid, coords, cid="ShopApp", tid="Foo", uid="Alice"):
    return {
        "type": "Feature",
        "geometry": {"type": "MultiPoint", "coordinates": coords},
        "properties": {"oid": oid, "tid": tid, "uid": uid, "cid": cid},
    }


def test_starbucks_insert_then_range_query():
    cluster = world_cluster()
    qh, ih = handlers(cluster)

    report = ih.insert(starbucks_dict())
    assert report.all_accepted
    assert report.engines == ["e1"]
    assert report.resolutions == 1

    out = qh.range_query(rome_query())
    assert [f.oid for f in out.features] == ["1234"]
    assert out.counts["itemsAfterFilter"] == 1
    assert out.counts["tilesQueried"] <= out.counts["tilesTessellated"]
    assert out.counts["itemsAfterFilter"] <= out.counts["itemsFetched"]
    assert not out.constraint_violated
    assert set(out.timing) == {"tessellationMs", "bfMs", "tileQueryBatchMs",
                               "postFilterMs"}


def test_users_sharing_an_oid_both_come_back():
    cluster = world_cluster()
    alice_qh, alice_ih = handlers(cluster, uid="Alice")
    _, bob_ih = handlers(cluster, uid="Bob")
    bob = starbucks_dict()
    bob["properties"]["uid"] = "Bob"
    bob["geometry"]["coordinates"] = [12.5205, 41.8955]
    assert alice_ih.insert(starbucks_dict()).all_accepted
    assert bob_ih.insert(bob).all_accepted

    out = alice_qh.range_query(rome_query())
    assert sorted((f.uid, f.oid) for f in out.features) == [("Alice", "1234"),
                                                           ("Bob", "1234")]
    assert out.counts["itemsAfterFilter"] == 2


def test_address_cache_saves_resolutions():
    cluster = world_cluster()
    _, ih = handlers(cluster)
    assert ih.insert(starbucks_dict()).resolutions == 1

    second = starbucks_dict()
    second["properties"]["oid"] = 77
    report = ih.insert(second)
    assert report.all_accepted
    assert report.resolutions == 0


def test_bf_reduction_is_transparent():
    cluster = world_cluster()
    qh, ih = handlers(cluster)
    ih.insert(starbucks_dict())
    cluster.network.loop.run_until_idle()

    plain = qh.range_query(rome_query(use_bf=False))
    reduced = qh.range_query(rome_query(use_bf=True))
    assert [f.oid for f in reduced.features] == [f.oid for f in plain.features]
    assert reduced.counts["tilesQueried"] <= plain.counts["tilesQueried"]
    assert reduced.counts["tilesQueried"] >= 1


def test_include_mode_excludes_straddling_multipoints():
    cluster = world_cluster()
    qh, ih = handlers(cluster)
    ih.insert(multipoint(9000, [[12.51, 41.89], [12.60, 41.95]]))

    intersect = qh.range_query(rome_query(mode="intersect"))
    include = qh.range_query(rome_query(mode="include"))
    assert [f.oid for f in intersect.features] == ["9000"]
    assert include.features == []


def test_stored_once_feature_appears_once():
    cluster = world_cluster()
    qh, ih = handlers(cluster)
    coords = [[12.511, 41.891], [12.521, 41.891], [12.531, 41.891]]
    report = ih.insert(multipoint(31, coords))
    assert report.all_accepted
    assert len(report.statuses) == 5          # 3 level-2 + 1 level-1 + 1 level-0

    # Covering all three deepest tiles: the inline copy primes the memo, so
    # references resolve without any extra fetch.
    wide = qh.range_query(rome_query(bbox=BoundingBox.of(12.51, 41.89, 12.535, 41.8999)))
    assert [f.oid for f in wide.features] == ["31"]
    assert wide.counts["itemsFetched"] == 3

    # Covering only a non-canonical tile: exactly one dereference.
    narrow_box = BoundingBox.of(12.5305, 41.8905, 12.5395, 41.8995)
    narrow = qh.range_query(rome_query(bbox=narrow_box))
    assert [f.oid for f in narrow.features] == ["31"]
    assert narrow.counts["itemsFetched"] == 2


def test_unroutable_tiles_raise_partial_result():
    cluster = world_cluster(prefixes=("ndn:/OGB/12",))
    qh, ih = handlers(cluster)
    ih.insert(starbucks_dict())

    box = BoundingBox.of(12.99, 41.88, 13.01, 41.90)
    with pytest.raises(PartialResultError) as err:
        qh.range_query(rome_query(bbox=box))
    assert err.value.failed_tiles
    assert err.value.report is not None
    assert err.value.report.counts["tilesQueried"] > len(err.value.failed_tiles)


def test_foreign_tenant_query_is_rejected_locally():
    cluster = world_cluster()
    qh, _ = handlers(cluster, tid="Bar", uid="Eve")
    before = dict(cluster.substrate.node.counters)
    with pytest.raises(AuthorizationError):
        qh.range_query(rome_query())
    assert dict(cluster.substrate.node.counters) == before


def test_foreign_feature_insert_is_rejected_locally():
    cluster = world_cluster()
    _, ih = handlers(cluster, tid="Foo", uid="Bob")
    before = dict(cluster.substrate.node.counters)
    with pytest.raises(AuthorizationError):
        ih.insert(starbucks_dict())
    assert dict(cluster.substrate.node.counters) == before


def test_remove_restores_empty_world():
    cluster = world_cluster()
    qh, ih = handlers(cluster)
    items = make_ogb_data_set(parse_feature(starbucks_dict()), 60000)
    ih.insert(starbucks_dict())

    report = ih.remove(starbucks_dict())
    assert report.all_accepted
    assert qh.range_query(rome_query()).features == []

    cluster.network.loop.run_until_idle()
    from ogb.names import tile_prefix
    prefixes = [tile_prefix(it.name.tile).text for it in items]
    assert cluster.bloom_server.membership(prefixes) == [False] * 3

    again = ih.remove(starbucks_dict())
    assert all(s.status == "not-found" for s in again.statuses)


def test_insert_spans_engines_by_zone():
    data = {
        "mode": "sim",
        "seed": 5,
        "engines": [
            {"id": "east", "servedPrefixes": ["ndn:/OGB/12"]},
            {"id": "west", "servedPrefixes": ["ndn:/OGB/-74"]},
        ],
        "bfServer": {"m": 4096, "h": 5},
        "topology": {"handlerLinkMbps": None},
    }
    cluster = SimCluster(ClusterConfig.from_dict(data))
    _, ih = handlers(cluster)

    report = ih.insert(multipoint(8, [[12.51, 41.89], [-73.98, 40.75]]))
    assert report.all_accepted
    assert report.engines == ["east", "west"]
    assert report.resolutions == 2
    assert cluster.engines["east"].item_count == 3
    assert cluster.engines["west"].item_count == 3


def test_unvalidatable_items_are_dropped_and_counted():
    cluster = world_cluster()
    qh, ih = handlers(cluster)
    ih.insert(starbucks_dict())

    rogue = starbucks_dict()
    rogue["properties"]["oid"] = 666
    forged = make_ogb_data_set(parse_feature(rogue), 60000)[2]
    engine = cluster.engines["e1"]
    engine._apply_insert(forged, record=False)
    engine.clear_response_caches()
    cluster.network.flush_caches()

    out = qh.range_query(rome_query())
    assert [f.oid for f in out.features] == ["1234"]
    assert out.counts["itemsRejected"] == 1


def oracle_oids(feature_dicts, box, mode):
    keep = set()
    for d in feature_dicts:
        coords = d["geometry"]["coordinates"]
        if d["geometry"]["type"] == "Point":
            coords = [coords]
        inside = [box.min.lng <= lng <= box.max.lng
                  and box.min.lat <= lat <= box.max.lat
                  for lng, lat in coords]
        hit = any(inside) if mode == "intersect" else all(inside)
        if hit:
            keep.add(str(d["properties"]["oid"]))
    return keep


def test_matches_brute_force_oracle():
    cluster = world_cluster()
    qh, ih = handlers(cluster)
    rng = random.Random(17)

    world = []
    for i in range(40):
        if rng.random() < 0.5:
            geom = {"type": "Point",
                    "coordinates": [rng.uniform(12, 14), rng.uniform(41, 43)]}
        else:
            geom = {"type": "MultiPoint",
                    "coordinates": [[rng.uniform(12, 14), rng.uniform(41, 43)]
                                    for _ in range(rng.randint(2, 4))]}
        d = {"type": "Feature", "geometry": geom,
             "properties": {"oid": i, "tid": "Foo", "uid": "Alice",
                            "cid": "ShopApp"}}
        world.append(d)
        assert ih.insert(d).all_accepted
    cluster.network.loop.run_until_idle()

    for trial in range(10):
        lng = rng.uniform(12, 13.5)
        lat = rng.uniform(41, 42.5)
        box = BoundingBox.of(lng, lat, lng + rng.uniform(0.01, 0.5),
                             lat + rng.uniform(0.01, 0.5))
        for mode in ("intersect", "include"):
            expect = oracle_oids(world, box, mode)
            for use_bf in (False, True):
                out = qh.range_query(rome_query(bbox=box, mode=mode,
                                                use_bf=use_bf))
                got = {f.oid for f in out.features}
                assert got == expect, (trial, mode, use_bf)
                assert out.counts["tilesQueried"] <= out.counts["tilesTessellated"]
                assert out.counts["itemsAfterFilter"] <= out.counts["itemsFetched"]
