from __future__ import annotations

import json
import random
from functools import partial

import pytest

from ogb import trust
from ogb.cluster import ClusterConfig, SimCluster
from ogb.engine import IPRES_FRESHNESS_MS, bulk_channel
from ogb.errors import AuthorizationError, PartialResultError, ValidationError
from ogb.frontend import Credentials, InsertHandler, QueryHandler, RangeQuery
from ogb.geodata import OgbData, canonical_json, make_ogb_data_set, parse_feature
from ogb.grid import BoundingBox
from ogb.icn.core import build_segments
from ogb.names import IpResName, TileName

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


def test_an_expired_address_is_replaced_not_kept():
    cluster = world_cluster()
    _, ih = handlers(cluster)
    assert ih.insert(starbucks_dict()).resolutions == 1
    cluster.substrate.advance(IPRES_FRESHNESS_MS)   # past the address's expiry
    second = starbucks_dict()
    second["properties"]["oid"] = 77
    report = ih.insert(second)
    assert report.all_accepted
    assert report.resolutions == 1
    assert len(ih._addresses) == 1


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


def test_listing_cached_before_a_remove_drops_the_gone_reference():
    cluster = world_cluster()
    qh, ih = handlers(cluster)
    straddle = multipoint(31, [[12.511, 41.891], [12.531, 41.891]])
    assert ih.insert(straddle).all_accepted
    assert ih.insert(multipoint(32, [[12.532, 41.892]])).all_accepted
    wide = qh.range_query(rome_query(bbox=BoundingBox.of(12.51, 41.89, 12.535, 41.8999)))
    assert sorted(f.oid for f in wide.features) == ["31", "32"]
    assert wide.counts["itemsRejected"] == 0

    assert ih.remove(straddle).all_accepted
    # The cached listing of the non-canonical tile still names a Reference
    # to 31; its engine answers "gone", and only that Reference is dropped.
    narrow = qh.range_query(rome_query(bbox=BoundingBox.of(12.5305, 41.8905,
                                                           12.5395, 41.8995)))
    assert [f.oid for f in narrow.features] == ["32"]
    assert narrow.counts["itemsRejected"] == 1


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
    engine._put(forged.name.name.text, forged.to_wire())
    cluster.flush_caches()

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


def _record_tile_interests(monkeypatch):
    """The (name, payload, envelope dict) of every tile interest an engine
    checks, in the order it checks them."""
    seen = []
    verify = trust.TrustStore.verify_tile_interest

    def recording(store, name_text, payload, envelope, tid):
        seen.append((name_text, payload, envelope.to_dict()))
        return verify(store, name_text, payload, envelope, tid)

    monkeypatch.setattr(trust.TrustStore, "verify_tile_interest", recording)
    return seen


def _record_signs(monkeypatch):
    signs = []
    sign = trust.KeyPair.sign
    monkeypatch.setattr(trust.KeyPair, "sign",
                        lambda kp, data: signs.append(kp) or sign(kp, data))
    return signs


def test_a_repeated_tile_query_sends_byte_identical_envelopes(monkeypatch):
    cluster = world_cluster()
    qh, ih = handlers(cluster)
    assert ih.insert(starbucks_dict()).all_accepted
    seen = _record_tile_interests(monkeypatch)
    rounds = []
    for _ in range(2):
        cluster.flush_caches()          # so every interest reaches the engine
        seen.clear()
        assert [f.oid for f in qh.range_query(rome_query()).features] == ["1234"]
        rounds.append(sorted(seen))
    first, second = rounds
    assert len(first) > 1 and second == first
    # One batch: every envelope carries a path and the one root signature,
    # and each checks out against its own name alone.
    assert all("path" in envelope for _, _, envelope in first)
    assert len({envelope["signatureBase64"] for _, _, envelope in first}) == 1
    store = trust.TrustStore(cluster.anchor, fetcher=cluster.cert_repo.get_wire)
    for name_text, payload, envelope in first:
        assert store.verify_tile_interest(name_text, payload,
                                          trust.TrustEnvelope.from_dict(envelope),
                                          "Foo") == (True, None)


def test_a_query_signs_its_tile_interests_once_and_each_engine_verifies_once(
        monkeypatch):
    cluster = world_cluster(engines=[
        {"id": "e1", "servedPrefixes": ["ndn:/OGB/12/41"]},
        {"id": "e2", "servedPrefixes": ["ndn:/OGB/12/42"]},
    ])
    qh, ih = handlers(cluster)
    assert ih.insert(starbucks_dict()).all_accepted
    seen = _record_tile_interests(monkeypatch)
    signs = _record_signs(monkeypatch)
    query = rome_query(bbox=BoundingBox.of(12.505, 41.985, 12.525, 42.013), k=12)
    memos = {engine_id: engine.trust_store._verified
             for engine_id, engine in cluster.engines.items()}
    for repeat in range(2):
        cluster.flush_caches()
        seen.clear()
        del signs[:]
        before = {engine_id: len(memo) for engine_id, memo in memos.items()}
        report = qh.range_query(query)
        assert report.counts["tilesQueried"] == 12
        assert len(seen) == 12 and all(name.endswith("/seg=0") for name, _, _ in seen)
        # Both engines answer tiles of the query.
        assert {name.split("/")[3] for name, _, _ in seen} == {"41", "42"}
        assert [kp for kp in signs if kp is qh.credentials.keypair] == \
            [qh.credentials.keypair]
        # A real Ed25519 verify is what puts an entry in a store's memo.
        grown = {engine_id: len(memo) - before[engine_id]
                 for engine_id, memo in memos.items()}
        assert grown == {"e1": 0 if repeat else 1, "e2": 0 if repeat else 1}


def test_an_insert_request_is_the_canonical_json_of_its_items(monkeypatch):
    cluster = world_cluster()
    _, ih = handlers(cluster)
    sent = []
    get = cluster.substrate.get

    def recording(name, **kwargs):
        sent.append(kwargs.get("payload"))
        return get(name, **kwargs)

    monkeypatch.setattr(cluster.substrate, "get", recording)
    feature = multipoint("m1", [[12.511, 41.891], [12.531, 41.891]])
    feature["properties"]["note"] = "café ☕"
    assert ih.insert(feature).all_accepted
    request = json.loads(sent[-1])
    assert canonical_json(request) == sent[-1]
    assert request["op"] == "insert"
    items = [OgbData.from_dict(d) for d in request["items"]]
    assert [i.to_dict() for i in items] == request["items"]
    assert {i.body_type for i in items} == {"inline", "reference"}


def test_only_an_engine_may_sign_what_a_client_takes_from_one():
    cluster = world_cluster()
    qh, ih = handlers(cluster)
    assert ih.insert(starbucks_dict()).all_accepted
    eve_kp, eve_cert = cluster.issue_user("Bar", "Eve")
    item = make_ogb_data_set(parse_feature(starbucks_dict()), 60000)[0]
    engine = cluster.engines["e1"]
    names = [TileName(item.name.tile, "Foo", "ShopApp").name.text,   # a listing
             item.name.name.text,                                  # a body
             IpResName(item.name.tile).name.text,                  # an address
             bulk_channel("e1") + "/insert-0"]                     # a bulk reply
    for name in names:
        payload = b'{"any":"payload"}'
        content = build_segments(name, payload, 0.0, engine._sign)[0]
        qh._validate_segment(content)
        forged = build_segments(name, payload, 0.0,
                                partial(trust.sign_envelope, eve_kp, eve_cert))[0]
        with pytest.raises(ValidationError) as refused:
            qh._validate_segment(forged)
        assert refused.value.reason == trust.REASON_IDENTITY_RULE
