from __future__ import annotations

import itertools
import json

import pytest

from ogb import trust
from ogb.cluster import (BF_QUERY_ROOT, SWITCH_ID, ClusterConfig, KeyStore,
                         SimCluster)
from ogb.engine import bulk_channel
from ogb.errors import ConfigError
from ogb.frontend import Credentials, QueryHandler, RangeQuery
from ogb.geodata import OgbTile, canonical_json, make_ogb_data_set, parse_feature
from ogb.grid import BoundingBox, TileId
from ogb.names import TileName, tile_prefix

from conftest import bad_publications, starbucks_dict

_nonce = itertools.count(1)


def two_zone_dict(keys_dir=None, storage_dir=None):
    data = {
        "mode": "sim",
        "seed": 11,
        "engines": [
            {"id": "east", "servedPrefixes": ["ndn:/OGB/12"]},
            {"id": "west", "servedPrefixes": ["ndn:/OGB/-74"]},
        ],
        "bfServer": {"m": 4096, "h": 5},
        "topology": {"handlerLinkMbps": None},
    }
    if keys_dir is not None:
        data["keysDir"] = str(keys_dir)
    if storage_dir is not None:
        data["storageDir"] = str(storage_dir)
    return data


def build(**kw):
    return SimCluster(ClusterConfig.from_dict(two_zone_dict(**kw)))


def nyc_dict():
    d = starbucks_dict()
    d["geometry"]["coordinates"] = [-73.98, 40.75]
    d["properties"]["oid"] = 4321
    return d


def signed_items(feature_dict, credentials, freshness_ms=60000):
    kp, cert = credentials
    items = make_ogb_data_set(parse_feature(feature_dict), freshness_ms)
    for item in items:
        item.signature = trust.sign_envelope(kp, cert, item.name.name.text,
                                             item.signed_payload())
    return items


def service_get(cluster, engine_id, request, signer=None):
    name = "%s/t%d" % (bulk_channel(engine_id), next(_nonce))
    payload = canonical_json(request)
    sign = None
    if signer is not None:
        kp, cert = signer
        sign = lambda n, p: trust.sign_envelope(kp, cert, n, p)
    result = cluster.substrate.get(name, payload=payload, sign=sign)
    return json.loads(result.payload)


def insert_feature(cluster, engine_id, feature_dict, credentials):
    items = signed_items(feature_dict, credentials)
    reply = service_get(cluster, engine_id,
                        {"op": "insert", "items": [i.to_dict() for i in items]})
    assert [s["status"] for s in reply["statuses"]] == ["accepted"] * len(items)
    return items


def tile_get(cluster, tile, credentials, tid="Foo", cid="ShopApp"):
    kp, cert = credentials
    sign = lambda n, p: trust.sign_envelope(kp, cert, n, p)
    result = cluster.substrate.get(TileName(tile, tid, cid).name.text, sign=sign)
    return result


def test_config_round_trip_and_defaults():
    config = ClusterConfig.from_dict(two_zone_dict())
    assert config.mode == "sim"
    assert config.bf_m == 4096 and config.bf_h == 5
    assert config.engines[0].bf_m == 4096
    assert config.handler_bandwidth_mbps is None


@pytest.mark.parametrize("section, key", [
    (None, "defaults"), ("topology", "latencyMs"),
    ("engine", "tileFreshnessMs"), ("engine", "ipresFreshnessMs"),
    ("engine", "procBaseMs"), ("engine", "procPerItemMs")])
def test_a_key_of_a_fixed_value_is_refused_by_name(section, key):
    data = two_zone_dict()
    target = {None: data, "topology": data["topology"],
              "engine": data["engines"][1]}[section]
    target[key] = {}
    with pytest.raises(ConfigError, match=key):
        ClusterConfig.from_dict(data)


def test_config_rejects_overlapping_prefixes():
    data = two_zone_dict()
    data["engines"][1]["servedPrefixes"] = ["ndn:/OGB/12/41"]
    with pytest.raises(ConfigError, match="overlap"):
        ClusterConfig.from_dict(data)


def test_config_overlap_check_is_by_component():
    def config(*served):
        data = two_zone_dict()
        data["engines"] = [{"id": "e%d" % i, "servedPrefixes": list(prefixes)}
                           for i, prefixes in enumerate(served, 1)]
        return data

    # A string prefix but not a component prefix: accepted.
    ClusterConfig.from_dict(config(["ndn:/OGB/1"], ["ndn:/OGB/10"]))
    with pytest.raises(ConfigError, match="overlap") as err:
        ClusterConfig.from_dict(config(["ndn:/OGB/0", "ndn:/OGB/1"],
                                       ["ndn:/OGB/10"], ["ndn:/OGB/1/23"]))
    assert "e1:" in str(err.value) and "e3:" in str(err.value)
    with pytest.raises(ConfigError, match="overlap") as err:
        ClusterConfig.from_dict(config(["ndn:/OGB/-74", "ndn:/OGB/-74"]))
    assert str(err.value).count("e1:") == 2


def test_config_requires_seed_in_sim_mode():
    data = two_zone_dict()
    del data["seed"]
    with pytest.raises(ConfigError, match="seed"):
        ClusterConfig.from_dict(data)


def test_config_socket_mode_requires_ports():
    data = two_zone_dict()
    data["mode"] = "socket"
    with pytest.raises(ConfigError, match="port"):
        ClusterConfig.from_dict(data)


def test_seeded_key_material_is_reproducible():
    c1, c2 = build(), build()
    assert c1.anchor.to_wire() == c2.anchor.to_wire()
    assert (c1.keys.engine("east")[1].to_wire()
            == c2.keys.engine("east")[1].to_wire())


def test_insert_and_query_through_the_substrate():
    cluster = build()
    alice = cluster.issue_user("Foo", "Alice")
    items = insert_feature(cluster, "east", starbucks_dict(), alice)

    result = tile_get(cluster, items[2].name.tile, alice)
    tile = OgbTile.from_wire(result.payload)
    assert [it.name.oid for it in tile.items] == ["1234"]
    ok, reason = trust.TrustStore(
        cluster.anchor, fetcher=cluster.cert_repo.get_wire).verify(
        result.segments[0].name, result.segments[0].payload,
        result.segments[0].envelope)
    assert ok, reason


def test_tile_queries_hit_exactly_one_engine():
    cluster = build()
    alice = cluster.issue_user("Foo", "Alice")
    east_items = insert_feature(cluster, "east", starbucks_dict(), alice)
    west_items = insert_feature(cluster, "west", nyc_dict(), alice)
    cluster.network.loop.run_until_idle()
    cluster.reset_counters()

    tile_get(cluster, east_items[2].name.tile, alice)
    east, west = cluster.servers["east"], cluster.servers["west"]
    assert east.counters["interestsIn"] == 1
    assert west.counters["interestsIn"] == 0

    tile_get(cluster, west_items[2].name.tile, alice)
    assert west.counters["interestsIn"] == 1
    assert east.counters["interestsIn"] == 1


def test_bloom_server_follows_inserts_and_deletes():
    cluster = build()
    alice = cluster.issue_user("Foo", "Alice")
    items = insert_feature(cluster, "east", starbucks_dict(), alice)
    cluster.network.loop.run_until_idle()

    prefixes = [tile_prefix(it.name.tile).text for it in items]
    assert cluster.bloom_server.membership(prefixes) == [True] * 3

    name = "%s/q%d" % (BF_QUERY_ROOT, next(_nonce))
    result = cluster.substrate.get(
        name, payload=canonical_json({"op": "bf-query", "prefixes": prefixes}))
    assert json.loads(result.payload)["bits"] == [True] * 3

    reply = service_get(cluster, "east",
                        {"op": "delete",
                         "names": [i.name.name.text for i in items]},
                        signer=alice)
    assert [s["status"] for s in reply["statuses"]] == ["accepted"] * 3
    cluster.network.loop.run_until_idle()
    assert cluster.bloom_server.membership(prefixes) == [False] * 3


def test_forged_publications_are_rejected_and_the_feed_recovers():
    cluster = build()
    alice = cluster.issue_user("Foo", "Alice")
    items = insert_feature(cluster, "east", starbucks_dict(), alice)
    cluster.network.loop.run_until_idle()
    east, server = cluster.engines["east"], cluster.bloom_server
    prefixes = [tile_prefix(it.name.tile).text for it in items]
    forger = cluster.issue_user("Foo", "Mallory")
    reloads = []
    recover = cluster.bf_feed.recover
    cluster.bf_feed.recover = lambda eid: reloads.append(eid) or recover(eid)

    # Sent toward the engine's forwarder, a forgery is unsolicited there: it
    # is not cached, so it cannot answer the server's next subscription.
    engine_node = cluster.servers["east"]
    forged = bad_publications(east, forger, prefixes)[0]
    engine_node.receive_content(forged, ("node", SWITCH_ID))
    assert engine_node.counters["unsolicited"] == 1
    assert engine_node.cs.get(forged.name, cluster.network.loop.now) is None
    cluster.network.loop.run_until_idle()
    assert server.stats()["rejected"] == 0

    switch = cluster.network.nodes[SWITCH_ID]
    for count, bad in enumerate(bad_publications(east, forger, prefixes), 1):
        # On the path from the engine to the server, as an attacker would.
        switch.receive_content(bad, ("node", "east"))
        cluster.network.loop.run_until_idle()
        assert server.stats()["rejected"] == count
        assert reloads == ["east"] * count           # its digest, reloaded
        assert server.membership(prefixes) == [True] * 3
        assert server.last_seq["east"] == east.cbf.seq - 1

    store = trust.TrustStore(cluster.anchor, fetcher=cluster.cert_repo.get_wire)
    handler = QueryHandler(cluster.substrate, store,
                           Credentials("Foo", "Alice", *alice))
    report = handler.range_query(RangeQuery(
        bbox=BoundingBox.of(12.50, 41.88, 12.53, 41.90), mode="intersect",
        tid="Foo", cid="ShopApp", use_bf=True))
    assert [f.oid for f in report.features] == ["1234"]

    # The subscription survived: a genuine insert is still applied.
    later = starbucks_dict()
    later["geometry"]["coordinates"] = [12.9, 41.2]
    later["properties"]["oid"] = 99
    more = insert_feature(cluster, "east", later, alice)
    cluster.network.loop.run_until_idle()
    assert server.membership([tile_prefix(it.name.tile).text
                              for it in more]) == [True] * 3
    assert server.last_seq["east"] == east.cbf.seq - 1
    assert server.stats()["rejected"] == 3


def test_certificates_resolve_over_the_network():
    cluster = build()
    cluster.issue_user("Foo", "Alice")
    name = trust.cert_name(trust.user_identity("Foo", "Alice")).text
    result = cluster.substrate.get(name)
    cert = trust.Certificate.from_wire(result.payload)
    assert cert.identity == "/OGB/tenants/Foo/users/Alice"

    store = trust.TrustStore(cluster.anchor, fetcher=cluster.cert_repo.get_wire)
    ok, reason = store.validate_chain(cert)
    assert ok, reason


def test_restart_recovers_storage_and_filter_state(tmp_path):
    kw = {"keys_dir": tmp_path / "keys", "storage_dir": tmp_path / "storage"}
    first = build(**kw)
    alice = first.issue_user("Foo", "Alice")
    items = insert_feature(first, "east", starbucks_dict(), alice)
    first.network.loop.run_until_idle()
    before = tile_get(first, items[2].name.tile, alice)
    first.snapshot()

    second = build(**kw)
    prefixes = [tile_prefix(it.name.tile).text for it in items]
    assert second.bloom_server.membership(prefixes) == [True] * 3
    after = tile_get(second, items[2].name.tile, alice)
    assert after.payload == before.payload

    # The replayed filter keeps publishing from where the digest left off.
    reply = service_get(second, "east",
                        {"op": "delete",
                         "names": [i.name.name.text for i in items]},
                        signer=alice)
    assert [s["status"] for s in reply["statuses"]] == ["accepted"] * 3
    second.network.loop.run_until_idle()
    assert second.bloom_server.membership(prefixes) == [False] * 3


def test_status_reports_the_last_load(tmp_path):
    kw = {"keys_dir": tmp_path / "keys", "storage_dir": tmp_path / "storage"}
    first = build(**kw)
    assert service_get(first, "east", {"op": "status"})["logRecords"] == 0
    alice = first.issue_user("Foo", "Alice")
    insert_feature(first, "east", starbucks_dict(), alice)
    insert_feature(first, "east", {**starbucks_dict(), "properties": {
        **starbucks_dict()["properties"], "oid": 99}}, alice)

    second = build(**kw)
    status = service_get(second, "east", {"op": "status"})
    assert status["logRecords"] == 2           # one per bulk request
    assert status["items"] == 6
    assert isinstance(status["loadMs"], float) and status["loadMs"] > 0.0
    second.snapshot()
    third = build(**kw)
    status = service_get(third, "east", {"op": "status"})
    assert (status["logRecords"], status["items"]) == (0, 6)


def test_keystore_persists_and_rescans(tmp_path):
    store = KeyStore(tmp_path, seed=3)
    store.admin()
    store.user("Foo", "Alice")
    fresh = KeyStore(tmp_path)
    for identity in ("/OGB/admin", "/OGB/tenants/Foo/users/Alice"):
        assert fresh.certificate(trust.cert_name(identity)).identity == identity
    assert fresh.certificate(trust.cert_name("/OGB/tenants/Foo/users/Bob")) is None
    kp, cert = fresh.user("Foo", "Alice")
    assert cert.to_wire() == store.user("Foo", "Alice")[1].to_wire()


def test_a_key_file_holding_another_identity_is_a_config_error(tmp_path):
    KeyStore(tmp_path, seed=3).user("Foo", "Alice")
    users = tmp_path / "OGB" / "tenants" / "Foo" / "users"
    (users / "Bob.json").write_text((users / "Alice.json").read_text())
    fresh = KeyStore(tmp_path)
    with pytest.raises(ConfigError, match="Bob.json"):
        fresh.certificate(trust.cert_name(trust.user_identity("Foo", "Bob")))
    with pytest.raises(ConfigError, match="Bob.json"):
        fresh.user("Foo", "Bob")
