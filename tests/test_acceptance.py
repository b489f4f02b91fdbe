"""Twelve end-to-end acceptance checks, one test (and one pytest -v line)
per property: naming, tessellation soundness and near-optimality, routing
exclusivity, oracle equivalence, caching floor, latency-model agreement,
Bloom behavior, the trust matrix, storage-once, the transit feed pipeline,
and durability across restarts.

The heavyweight world (ten thousand random features plus two hundred range
queries) is built once in a module fixture; the oracle-equivalence and
restart checks both consume it.
"""

from __future__ import annotations

import math
import random
import string

import numpy as np
import pytest

import ogb.bloom as bloom
from ogb import gtfs, trust
from ogb.cluster import ClusterConfig, SimCluster
from ogb.engine import Engine
from ogb.errors import OgbError
from ogb.frontend import Credentials, InsertHandler, QueryHandler, RangeQuery
from ogb.grid import BoundingBox, TileId
from ogb.names import DataName, Name, TileName, parse, tile_prefix
from ogb.perfmodel import ModelParams, _simulate_batch, batch_duration
from ogb.tessellation import DemoGrid, constrained, optimal_cover

SEED = 20240917


def sim_config(tmp, engines, bf_m=1 << 20, bf_h=7, seed=5):
    return ClusterConfig.from_dict({
        "mode": "sim",
        "seed": seed,
        "keysDir": str(tmp / "keys"),
        "storageDir": str(tmp / "storage"),
        "engines": engines,
        "bfServer": {"m": bf_m, "h": bf_h},
        "topology": {"handlerLinkMbps": None},
    })


def four_zone_engines():
    zones = [("west-far", -180, -91), ("west", -90, -1),
             ("east", 0, 89), ("east-far", 90, 179)]
    return [{"id": eid,
             "servedPrefixes": ["ndn:/OGB/%d" % lng
                                for lng in range(lo, hi + 1)]}
            for eid, lo, hi in zones], {
        eid: (lo, hi) for eid, lo, hi in zones}


def user_session(cluster, tid="Foo", uid="Alice"):
    kp, cert = cluster.issue_user(tid, uid)
    creds = Credentials(tid, uid, kp, cert)
    store = trust.TrustStore(cluster.anchor,
                             fetcher=cluster.cert_repo.get_wire)
    return (QueryHandler(cluster.substrate, store, creds),
            InsertHandler(cluster.substrate, store, creds), creds)


def random_feature(rng, i, lng_range=(12.0, 14.0), lat_range=(41.0, 43.0)):
    def position():
        return [rng.uniform(*lng_range), rng.uniform(*lat_range)]
    if rng.random() < 0.5:
        geom = {"type": "Point", "coordinates": position()}
    else:
        geom = {"type": "MultiPoint",
                "coordinates": [position() for _ in range(rng.randint(2, 4))]}
    return {"type": "Feature", "geometry": geom,
            "properties": {"oid": i, "tid": "Foo", "uid": "Alice",
                           "cid": "S"}}


def oracle_oids(world, box, mode):
    keep = set()
    for d in world:
        coords = d["geometry"]["coordinates"]
        if d["geometry"]["type"] == "Point":
            coords = [coords]
        inside = [box.min.lng <= lng <= box.max.lng
                  and box.min.lat <= lat <= box.max.lat
                  for lng, lat in coords]
        if any(inside) if mode == "intersect" else all(inside):
            keep.add(str(d["properties"]["oid"]))
    return keep


# -- 1: naming ---------------------------------------------------------------


def random_tile(rng, level=None):
    if level is None:
        level = rng.randint(0, 2)
    digits = tuple((rng.randint(0, 9), rng.randint(0, 9))
                   for _ in range(level))
    return TileId(rng.randint(-180, 179), rng.randint(-90, 89), digits)


def random_identifier(rng):
    alphabet = string.ascii_letters + string.digits + "-_"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))


def test_01_naming_exactness_and_round_trip():
    starbucks = TileId(12, 41, ((5, 8), (1, 9)))
    assert tile_prefix(starbucks).text == "ndn:/OGB/12/41/58/19/GPS-ID"
    data = DataName(starbucks, "Foo", "ShopApp", "Alice", "1234")
    assert data.name.text == ("ndn:/OGB/12/41/58/19/GPS-ID"
                              "/DATA/Foo/ShopApp/Alice/1234")

    rng = random.Random(SEED)
    for _ in range(10_000):
        tile = random_tile(rng)
        kind = rng.randrange(3)
        if kind == 0:
            name = tile_prefix(tile)
        elif kind == 1:
            name = TileName(tile, random_identifier(rng),
                            random_identifier(rng)).name
        else:
            name = DataName(tile, random_identifier(rng),
                            random_identifier(rng), random_identifier(rng),
                            random_identifier(rng)).name
        parsed = parse(name.text)
        assert parsed.name.text == name.text
        assert Name.from_text(name.text).components == name.components
    print("criterion 1 naming exactness: PASS")


# -- 2: tessellation soundness -----------------------------------------------


def _tile_key(t):
    key = (t.lng0 + 180) * 200 + (t.lat0 + 90)
    for d_lng, d_lat in t.digits:
        key = key * 100 + d_lng * 10 + d_lat
    return key


def _point_keys(lng, lat):
    lng0 = np.floor(lng)
    lat0 = np.floor(lat)
    k0 = (lng0 + 180) * 200 + (lat0 + 90)
    k1 = (k0 * 100 + np.floor((lng - lng0) * 10) * 10
          + np.floor((lat - lat0) * 10))
    k2 = (k1 * 100 + np.floor((lng - lng0) * 100) % 10 * 10
          + np.floor((lat - lat0) * 100) % 10)
    return {0: k0, 1: k1, 2: k2}


def test_02_tessellation_soundness():
    rng = random.Random(SEED)
    sampler = np.random.default_rng(SEED)
    area_classes = [(0.02, 0.1), (0.1, 1.0), (1.0, 5.0), (5.0, 15.0)]
    for lo, hi in area_classes:
        for _ in range(1000):
            w = rng.uniform(lo, hi)
            h = rng.uniform(lo, hi)
            x = rng.uniform(-170.0, 170.0 - w)
            y = rng.uniform(-80.0, 80.0 - h)
            box = BoundingBox.of(x, y, x + w, y + h)
            touched_l0 = ((math.floor(box.max.lng) - math.floor(box.min.lng)
                           + 1)
                          * (math.floor(box.max.lat) - math.floor(box.min.lat)
                             + 1))
            lng = sampler.uniform(box.min.lng, box.max.lng, 10_000)
            lat = sampler.uniform(box.min.lat, box.max.lat, 10_000)
            keys = _point_keys(lng, lat)
            for k in (25, 50, 100):
                cover = constrained(box, k)
                assert cover.stretch >= 1.0
                # A box fits in k tiles exactly when the level-0 cells it
                # touches fit, so the violation regime starts right there.
                assert cover.constraint_violated == (touched_l0 > k)
                if not cover.constraint_violated:
                    assert len(cover.tiles) <= k
                covered = np.zeros(lng.shape, dtype=bool)
                by_level: dict[int, list] = {}
                for tile in cover.tiles:
                    by_level.setdefault(tile.level, []).append(_tile_key(tile))
                for level, tile_keys in by_level.items():
                    covered |= np.isin(keys[level], np.asarray(tile_keys))
                assert covered.all()
    print("criterion 2 tessellation soundness: PASS")


# -- 3: tessellation near-optimality -----------------------------------------


def test_03_tessellation_near_optimality():
    g = DemoGrid(roots_x=6, roots_y=6)
    rng = random.Random(SEED)
    within = 0
    cases = 0
    while cases < 200:
        ext = g.extent
        x0 = rng.uniform(ext.min.lng, ext.max.lng - 0.05)
        y0 = rng.uniform(ext.min.lat, ext.max.lat - 0.05)
        box = BoundingBox.of(
            x0, y0,
            rng.uniform(x0 + 0.01, min(ext.max.lng, x0 + 3.0)),
            rng.uniform(y0 + 0.01, min(ext.max.lat, y0 + 3.0)))
        k = rng.randint(2, 8)
        greedy = constrained(box, k, g)
        if greedy.constraint_violated:
            continue
        cases += 1
        best = optimal_cover(box, k, g)
        assert len(best.tiles) <= k
        assert greedy.stretch >= best.stretch - 1e-9
        if greedy.stretch <= best.stretch * 1.10 + 1e-9:
            within += 1
    assert within / cases >= 0.95, "%d/%d within 10%%" % (within, cases)
    print("criterion 3 tessellation near-optimality: PASS "
          "(%d/%d within 10%%)" % (within, cases))


# -- 4: routing exclusivity ---------------------------------------------------


def test_04_routing_exclusivity(tmp_path):
    engines, zones = four_zone_engines()
    cluster = SimCluster(sim_config(tmp_path, engines, bf_m=4096, bf_h=5))
    _, _, creds = user_session(cluster)
    cluster.network.loop.run_until_idle()
    for engine in cluster.engines.values():
        engine.reset_counters()
    for node in cluster.servers.values():
        node.counters.clear()

    def responsible(tile):
        for eid, (lo, hi) in zones.items():
            if lo <= tile.lng0 <= hi:
                return eid
        raise AssertionError(tile)

    rng = random.Random(SEED)
    seen = set()
    sent = 0
    while sent < 1000:
        tile = random_tile(rng)
        name = TileName(tile, "Foo", "S").name.text
        if name in seen:
            continue
        seen.add(name)
        expected = responsible(tile)
        before = {eid: e.processed_queries
                  for eid, e in cluster.engines.items()}
        cluster.substrate.get(name, sign=creds.sign)
        for eid, engine in cluster.engines.items():
            delta = engine.processed_queries - before[eid]
            assert delta == (1 if eid == expected else 0), (name, eid)
        sent += 1
    arrivals = {eid: cluster.servers[eid].counters["interestsIn"]
                for eid in cluster.engines}
    assert sum(arrivals.values()) == 1000
    assert all(e.rejected_interests == 0 for e in cluster.engines.values())
    print("criterion 4 routing exclusivity: PASS (%s)" % (arrivals,))


# -- 5 and 12: oracle equivalence, then again after a restart -----------------


@pytest.fixture(scope="module")
def oracle_world(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("world")
    config = sim_config(tmp, [{"id": "e1", "servedPrefixes": ["ndn:/OGB"]}])
    cluster = SimCluster(config)
    qh, ih, _ = user_session(cluster)

    rng = random.Random(SEED)
    world = [random_feature(rng, i) for i in range(10_000)]
    for feature in world:
        assert ih.insert(feature).all_accepted
    cluster.network.loop.run_until_idle()

    queries = []
    for i in range(200):
        lng = rng.uniform(12.0, 13.7)
        lat = rng.uniform(41.0, 42.7)
        box = BoundingBox.of(lng, lat, lng + rng.uniform(0.02, 0.3),
                             lat + rng.uniform(0.02, 0.3))
        queries.append((box, "intersect" if i % 2 else "include"))
    expected = [oracle_oids(world, box, mode) for box, mode in queries]
    return {"config": config, "cluster": cluster, "qh": qh,
            "queries": queries, "expected": expected}


def run_query_battery(qh, queries, use_bf):
    results = []
    for box, mode in queries:
        out = qh.range_query(RangeQuery(box, mode, "Foo", "S", use_bf=use_bf))
        results.append(frozenset(f.oid for f in out.features))
    return results


def test_05_oracle_equivalence(oracle_world):
    cluster = oracle_world["cluster"]
    expected = oracle_world["expected"]
    for use_bf in (False, True):
        for label in ("cold", "warm"):
            if label == "cold":
                cluster.flush_caches()
            got = run_query_battery(oracle_world["qh"],
                                    oracle_world["queries"], use_bf)
            for i, (want, have) in enumerate(zip(expected, got)):
                assert have == want, (i, use_bf, label)
    print("criterion 5 oracle equivalence: PASS "
          "(200 queries x {bf off,on} x {cold,warm})")


# -- 6: caching effect ---------------------------------------------------------


def test_06_caching_floor(tmp_path):
    config = sim_config(tmp_path, [{"id": "e1",
                                    "servedPrefixes": ["ndn:/OGB"]}],
                        bf_m=4096, bf_h=5)
    cluster = SimCluster(config)
    qh, ih, creds = user_session(cluster)
    rng = random.Random(SEED)
    for i in range(300):
        assert ih.insert(random_feature(rng, i, (12.0, 12.5),
                                        (41.0, 41.5))).all_accepted
    cluster.network.loop.run_until_idle()

    tiles = sorted({TileId(12, 41, ((rng.randint(0, 4), rng.randint(0, 4)),
                                    (rng.randint(0, 9), rng.randint(0, 9))))
                    for _ in range(800)},
                   key=lambda t: tile_prefix(t).text)[:500]
    assert len(tiles) == 500
    requests = [{"name": TileName(t, "Foo", "S").name.text,
                 "sign": creds.sign} for t in tiles]

    engine = cluster.engines["e1"]
    engine.reset_counters()
    for result in cluster.substrate.get_many(requests, window=8):
        assert not isinstance(result, Exception), result
    first_pass = engine.processed_queries
    assert first_pass == 500

    for result in cluster.substrate.get_many(requests, window=8):
        assert not isinstance(result, Exception), result
    assert engine.processed_queries == first_pass  # replay never reaches it

    params = ModelParams(nq=500, ni=100, ndb=1, h=1.0)
    stats: dict = {}
    measured = _simulate_batch(params, stats)
    assert stats["producerCalls"] == 0
    floor = batch_duration(params)
    assert abs(measured - floor) / floor <= 0.05
    print("criterion 6 caching floor: PASS (replay processed 0, "
          "batch %.1f ms vs floor %.1f ms)" % (measured, floor))


# -- 7: latency model agreement ------------------------------------------------


def test_07_latency_model_agreement():
    anchor = ModelParams(nq=500, ni=100, h=0.0, ndb=1)
    assert batch_duration(anchor) == pytest.approx(2030.0)
    assert batch_duration(ModelParams(nq=500, ni=100, h=1.0, ndb=1)) == \
        pytest.approx(415.0)

    worst = 0.0
    for ndb in (1, 4):
        for ni in (1, 100):
            for nq in range(50, 501, 50):
                for h in (0.0, 0.25, 0.5, 0.75, 1.0):
                    params = ModelParams(nq=nq, ni=ni, h=h, ndb=ndb)
                    predicted = batch_duration(params)
                    measured = _simulate_batch(params)
                    rel = abs(measured - predicted) / predicted
                    worst = max(worst, rel)
                    assert rel <= 0.10, (params, measured, predicted)
    print("criterion 7 latency model agreement: PASS "
          "(200 points, worst relErr %.4f)" % worst)


# -- 8: bloom correctness -------------------------------------------------------


def test_08_bloom_correctness():
    m, h = 1 << 20, 7
    server = bloom.BloomServer(m, h, engines=["e1"])
    cbf = bloom.CountingBloomFilter(m, h, engine_id="e1")
    rng = random.Random(SEED)
    keys = list(dict.fromkeys(
        "ndn:/OGB/%d/%d/%02d/%02d/GPS-ID"
        % (rng.randint(-180, 179), rng.randint(-90, 89),
           rng.randint(0, 99), rng.randint(0, 99))
        for _ in range(100_000)))
    for key in keys:
        for pub in cbf.insert(key):
            assert server.apply(pub)

    assert all(server.membership(keys)), "false negative"

    absent = ["ndn:/ABSENT/%d" % i for i in range(100_000)]
    positives = sum(server.membership(absent))
    limit = 2 * bloom.theoretical_fpr(m, h, len(keys))
    assert positives / len(absent) <= limit

    # Two engines holding the same key: it stays visible until the second
    # removal, because the server ORs the per-engine filters.
    pair = bloom.BloomServer(4096, 5, engines=["a", "b"])
    cbf_a = bloom.CountingBloomFilter(4096, 5, engine_id="a")
    cbf_b = bloom.CountingBloomFilter(4096, 5, engine_id="b")
    key = "ndn:/OGB/12/41/58/19/GPS-ID"
    for pub in cbf_a.insert(key) + cbf_b.insert(key):
        pair.apply(pub)
    assert pair.membership([key]) == [True]
    for pub in cbf_a.remove(key):
        pair.apply(pub)
    assert pair.membership([key]) == [True]
    for pub in cbf_b.remove(key):
        pair.apply(pub)
    assert pair.membership([key]) == [False]

    print("criterion 8 bloom correctness: PASS (FPR %.5f <= %.5f, "
          "0 false negatives)" % (positives / len(absent), limit))


# -- 9: trust matrix ------------------------------------------------------------


def test_09_trust_matrix(tmp_path):
    admin_kp = trust.KeyPair.generate()
    anchor = trust.make_anchor(admin_kp)
    rogue_kp = trust.KeyPair.generate()
    rogue_anchor = trust.make_anchor(rogue_kp)

    tenant_kp = trust.KeyPair.generate()
    tenant = trust.issue(admin_kp, anchor, trust.tenant_identity("Foo"),
                         tenant_kp.public_bytes)
    alice_kp = trust.KeyPair.generate()
    alice = trust.issue(tenant_kp, tenant,
                        trust.user_identity("Foo", "Alice"),
                        alice_kp.public_bytes)
    bob_kp = trust.KeyPair.generate()
    bob = trust.issue(tenant_kp, tenant, trust.user_identity("Foo", "Bob"),
                      bob_kp.public_bytes)
    bar_kp = trust.KeyPair.generate()
    bar = trust.issue(admin_kp, anchor, trust.tenant_identity("Bar"),
                      bar_kp.public_bytes)
    eve_kp = trust.KeyPair.generate()
    eve = trust.issue(bar_kp, bar, trust.user_identity("Bar", "Eve"),
                      eve_kp.public_bytes)

    def store_for(chain_ok):
        s = trust.TrustStore(anchor if chain_ok else rogue_anchor)
        for cert in (tenant, alice, bob, bar, eve):
            s.add_certificate(cert)
        return s

    data_name = ("ndn:/OGB/12/41/58/19/GPS-ID/DATA/Foo/ShopApp/Alice/1234"
                 "/seg=0")
    tile_name = "ndn:/OGB/12/41/58/19/GPS-ID/TILE/Foo/ShopApp/seg=0"
    payload = b'{"hello": 1}'

    accepted_data = []
    accepted_tile = []
    for chain_ok in (True, False):
        for identity_ok in (True, False):
            for intact in (True, False):
                cell = (chain_ok, identity_ok, intact)
                delivered = payload if intact else payload + b"!"
                store = store_for(chain_ok)

                kp, cert = ((alice_kp, alice) if identity_ok
                            else (bob_kp, bob))
                env = trust.sign_envelope(kp, cert, data_name, payload)
                ok, reason = store.verify_data_content(
                    data_name, delivered, env, tid="Foo", uid="Alice")
                assert ok == (chain_ok and identity_ok and intact), cell
                if ok:
                    accepted_data.append(cell)
                elif chain_ok and identity_ok:
                    assert reason == "integrity"

                kp, cert = ((alice_kp, alice) if identity_ok
                            else (eve_kp, eve))
                env = trust.sign_envelope(kp, cert, tile_name, payload)
                ok, reason = store.verify_tile_interest(
                    tile_name, delivered, env, tid="Foo")
                assert ok == (chain_ok and identity_ok and intact), cell
                if ok:
                    accepted_tile.append(cell)
                elif chain_ok and not identity_ok:
                    assert reason == "identity-rule"

    assert accepted_data == [(True, True, True)]
    assert accepted_tile == [(True, True, True)]

    # Engine side: a tile-query signed by another tenant's user is dropped
    # before any table work happens.
    cluster = SimCluster(sim_config(
        tmp_path, [{"id": "e1", "servedPrefixes": ["ndn:/OGB"]}],
        bf_m=4096, bf_h=5))
    _, ih, _ = user_session(cluster)
    kp, cert = cluster.issue_user("Bar", "Eve")
    eve_creds = Credentials("Bar", "Eve", kp, cert)
    engine = cluster.engines["e1"]
    engine.reset_counters()
    name = TileName(TileId(12, 41, ((5, 8), (1, 9))), "Foo", "S").name.text
    with pytest.raises(OgbError):
        cluster.substrate.get(name, sign=eve_creds.sign, lifetime_ms=50.0,
                              retries=1)
    assert engine.processed_queries == 0
    assert engine.rejected_interests >= 1
    print("criterion 9 trust matrix: PASS (1 accepting cell of 8, "
          "cross-tenant processed 0)")


# -- 10: storage-once and dedup --------------------------------------------------


def count_bodies(engine):
    from ogb.geodata import OgbData
    kinds = {"inline": 0, "reference": 0}
    for wire in engine.co_table.values():
        kinds[OgbData.from_wire(wire).body_type] += 1
    return kinds


def test_10_storage_once_and_dedup(tmp_path, monkeypatch):
    data_fetches = [0]
    named = Engine.handle_named_interest

    def counting(engine, interest, base):
        if "/DATA/" in interest.name:
            data_fetches[0] += 1
        return named(engine, interest, base)

    # Producers are bound when the cluster is assembled, so wrap them first.
    monkeypatch.setattr(Engine, "handle_named_interest", counting)
    config = sim_config(tmp_path, [{"id": "e1",
                                    "servedPrefixes": ["ndn:/OGB"]}],
                        bf_m=4096, bf_h=5)
    cluster = SimCluster(config)
    qh, ih, _ = user_session(cluster)
    coords = [[12.511, 41.891], [12.521, 41.891], [12.531, 41.891]]
    report = ih.insert({
        "type": "Feature",
        "geometry": {"type": "MultiPoint", "coordinates": coords},
        "properties": {"oid": 31, "tid": "Foo", "uid": "Alice", "cid": "S"},
    })
    assert report.all_accepted
    assert len(report.statuses) == 5       # 1 level-0 + 1 level-1 + 3 level-2

    engine = cluster.engines["e1"]
    kinds = count_bodies(engine)
    assert kinds == {"inline": 1, "reference": 4}

    data_fetches[0] = 0
    wide = qh.range_query(RangeQuery(
        BoundingBox.of(12.51, 41.89, 12.535, 41.8999), "intersect",
        "Foo", "S"))
    assert [f.oid for f in wide.features] == ["31"]
    assert data_fetches[0] == 0            # inline copy rode the tile reply

    narrow = qh.range_query(RangeQuery(
        BoundingBox.of(12.5305, 41.8905, 12.5395, 41.8995), "intersect",
        "Foo", "S"))
    assert [f.oid for f in narrow.features] == ["31"]
    assert data_fetches[0] == 1            # one dereference, memoized

    # Across engines: the split keeps exactly one inline copy in total.
    engines, _ = four_zone_engines()
    spanning = SimCluster(sim_config(tmp_path / "zones", engines,
                                     bf_m=4096, bf_h=5))
    _, ih2, _ = user_session(spanning)
    report = ih2.insert({
        "type": "Feature",
        "geometry": {"type": "MultiPoint",
                     "coordinates": [[-0.5, 51.5], [0.5, 51.5]]},
        "properties": {"oid": 7, "tid": "Foo", "uid": "Alice", "cid": "S"},
    })
    assert report.all_accepted
    assert report.engines == ["east", "west"]
    totals = {"inline": 0, "reference": 0}
    for engine in spanning.engines.values():
        for kind, n in count_bodies(engine).items():
            totals[kind] += n
    assert totals == {"inline": 1, "reference": 5}
    print("criterion 10 storage-once and dedup: PASS")


# -- 11: transit feed pipeline ----------------------------------------------------


def test_11_gtfs_application(tmp_path):
    stops = tmp_path / "stops.txt"
    stops.write_text(
        "stop_id,stop_name,stop_lat,stop_lon\n"
        "S1,Termini,41.9009,12.5018\n"
        "S2,Colosseo,41.8902,12.4922\n"
        "S3,Ostiense,41.8705,12.4803\n"
        "S4,Trastevere,41.8765,12.4662\n"
        "S5,Tiburtina,41.9109,12.5305\n"
        "S6,Ghost,,\n",
        encoding="utf-8")
    url = "https://transit.example/rome.zip"
    feed = gtfs.GtfsFeed.load(stops, url)
    assert len(feed.stops) == 5 and feed.skipped == 1
    feature = gtfs.ingest_gtfs(feed, "Foo", "Transit", "Alice", oid="rome")
    assert len(feature["geometry"]["coordinates"]) == 5
    assert feature["properties"]["URL"] == url

    engines, _ = four_zone_engines()
    cluster = SimCluster(sim_config(tmp_path, engines))
    qh, ih, _ = user_session(cluster)
    assert ih.insert(feature).all_accepted
    cluster.network.loop.run_until_idle()

    out = qh.range_query(RangeQuery(
        BoundingBox.of(12.46, 41.86, 12.54, 41.92), "include",
        "Foo", "Transit", k=50, use_bf=True))
    (found,) = out.features
    assert found.raw["properties"]["URL"] == url
    assert len(found.points) == 5
    assert out.counts["tilesQueried"] <= out.counts["tilesTessellated"]
    print("criterion 11 transit feed pipeline: PASS")


# -- 12: durability across restart -------------------------------------------------


def test_12_durability_restart(oracle_world):
    queries = oracle_world["queries"]
    expected = oracle_world["expected"]
    before = run_query_battery(oracle_world["qh"], queries, use_bf=True)

    restarted = SimCluster(oracle_world["config"])
    qh, _, _ = user_session(restarted)
    after = run_query_battery(qh, queries, use_bf=True)
    assert after == before
    for want, have in zip(expected, after):
        assert have == want
    print("criterion 12 durability restart: PASS")
