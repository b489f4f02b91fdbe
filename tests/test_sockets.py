import gc
import io
import json
import random
import socket
import sys
import threading
import time
import weakref
from functools import partial

import pytest

from ogb import engine as engine_module
from ogb import geodata, grid, tessellation, trust
from ogb.bloom import BloomServer
from ogb.cluster import (ClusterConfig, KeyStore, SimCluster, SocketCluster,
                         network_cert_fetcher)
from ogb.engine import (GROUP_MIN_PATH, IPRES_FRESHNESS_MS, TILE_FRESHNESS_MS, Engine,
                        bulk_channel)
from ogb.errors import (ConfigError, NoRouteError, PartialResultError, ProtocolError,
                        ServiceError, TimeoutError_, UnreachableError)
from ogb.frontend import DEFAULT_K, Credentials, InsertHandler, QueryHandler, RangeQuery
from ogb.geodata import (INLINE, REFERENCE, OgbData, canonical_data_name,
                         canonical_json, is_gone, make_ogb_data_set,
                         parse_feature)
from ogb.grid import BoundingBox
from ogb.icn import wire
from ogb.icn.core import (DEFAULT_LIFETIME_MS, PIT_SWEEP_MIN, ContentObject,
                          Interest, build_segments)
from ogb.icn.sockets import ContentServer, SocketSubstrate
from ogb.names import DataName, Name, TileName, tile_prefix
from ogb.trust import TrustEnvelope

from conftest import bad_publications, malformed_batch_envelopes, starbucks_dict


class _FakeSock:
    def __init__(self, data=b""):
        self._reader = io.BytesIO(data)
        self.sent = bytearray()

    def sendall(self, data):
        self.sent.extend(data)

    def recv(self, count):
        return self._reader.read(count)


def test_wire_round_trips():
    envelope = TrustEnvelope("ndn:/OGB-SYS/certs/x", b"\x01\x02")
    interest = Interest("ndn:/OGB/12/x", b"params", envelope, 2500.0)
    parsed = wire.parse_interest(wire.interest_message(interest, nonce=7))
    assert parsed == interest
    # A batch envelope travels with its path; a plain one has none.
    assert "path" not in wire.interest_message(interest, nonce=7)["signature"]
    batched = Interest("ndn:/OGB/12/x", b"", TrustEnvelope(
        "ndn:/OGB-SYS/certs/x", b"\x01", ((trust.LEFT, bytes(32)), (trust.RIGHT, b"\x07" * 32))))
    assert wire.parse_interest(wire.interest_message(batched, nonce=8)) == batched

    content = ContentObject("ndn:/OGB/12/x/seg=0", b"\x00\xffdata", 60000.0,
                            envelope, final_segment=4)
    assert wire.parse_content(wire.content_message(content)) == content

    sock = _FakeSock()
    wire.write_frame(sock, wire.announce_message("ndn:/OGB/12", last=True))
    echoed = wire.read_frame(_FakeSock(bytes(sock.sent)))
    assert echoed == {"type": "announce", "name": "ndn:/OGB/12", "last": True}


def test_wire_rejects_garbage():
    assert wire.read_frame(_FakeSock(b"")) is None
    with pytest.raises(ProtocolError):
        wire.read_frame(_FakeSock(b"\x00\x00\x00\x10abc"))
    with pytest.raises(ProtocolError):
        wire.read_frame(_FakeSock(b"\xff\xff\xff\xff"))
    with pytest.raises(ProtocolError):
        wire.read_frame(_FakeSock(b"\x00\x00\x00\x02[]"))
    for name in ("no-scheme", "ndn:/", "ndn:/a//b", 7, None):
        with pytest.raises(ProtocolError):
            wire.parse_interest({"type": "interest", "name": name, "nonce": 1})
        with pytest.raises(ProtocolError):
            wire.parse_announce(dict(wire.announce_message("ndn:/a", True), name=name))
    content = wire.content_message(ContentObject("ndn:/a/seg=0", b"", final_segment=0))
    for bad in ({"name": 7}, {"name": "ndn:/a//b"}, {"finalSegment": "x"},
                {"finalSegment": -3}, {"finalSegment": None}, {"finalSegment": True}):
        with pytest.raises(ProtocolError):
            wire.parse_content(dict(content, **bad))


def echo_server(port=0):
    server = ContentServer(port=port, cache_capacity=8)
    calls = {"count": 0}

    def producer(interest, base):
        calls["count"] += 1
        return build_segments(base, b"pong" * 6000, freshness_ms=60000.0), 0.0

    server.attach_producer("ndn:/echo", producer)
    server.start()
    return server, calls


def test_segmented_fetch_and_server_cache():
    server, calls = echo_server()
    try:
        client = SocketSubstrate([server.address])
        result = client.get("ndn:/echo/a")
        assert result.payload == b"pong" * 6000
        assert len(result.segments) == 3
        first = calls["count"]
        again = client.get("ndn:/echo/a")
        assert again.payload == result.payload
        assert calls["count"] == first          # served from the content store

        with pytest.raises(NoRouteError):
            client.get("ndn:/elsewhere/a")
        client.close()
    finally:
        server.stop()


def test_a_bad_interest_name_kills_no_server_thread(monkeypatch):
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    server, _ = echo_server()
    before = set(threading.enumerate())
    try:
        socks = []
        for name in ("no-scheme", "ndn:/echo/x/seg=zz"):
            sock = socket.create_connection(server.address)
            socks.append(sock)
            assert wire.read_frame(sock)["type"] == wire.TYPE_ANNOUNCE
            wire.write_frame(sock, {"type": "interest", "name": name, "nonce": 1})
        # A name that is not a name closes its connection; a bad segment
        # index is held, and the connection still serves.
        assert wire.read_frame(socks[0]) is None
        wire.write_frame(socks[1], wire.interest_message(
            Interest("ndn:/echo/x/seg=0"), nonce=2))
        assert wire.read_frame(socks[1])["name"] == "ndn:/echo/x/seg=0"
        for sock in socks:
            sock.close()
        client = SocketSubstrate([server.address])
        assert client.get("ndn:/echo/a").payload == b"pong" * 6000
        client.close()
        for thread in set(threading.enumerate()) - before:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert uncaught == []
    finally:
        server.stop()


def test_threads_of_one_substrate_redial_a_restarted_server_once():
    server, _ = echo_server()
    client = SocketSubstrate([server.address])
    restarted = None
    interval = sys.getswitchinterval()
    try:
        assert client.get("ndn:/echo/a").payload == b"pong" * 6000
        old = client._peers[server.address]
        server.stop()
        limit = time.monotonic() + 5.0
        while not old.closed:
            assert time.monotonic() < limit
            time.sleep(0.01)
        restarted, _ = echo_server(server.port)
        sys.setswitchinterval(1e-6)
        payloads = []
        threads = [threading.Thread(
            target=lambda i=i: payloads.append(client.get("ndn:/echo/%d" % i).payload))
            for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert payloads == [b"pong" * 6000] * 8
        with restarted.dispatch_lock:
            assert len(restarted._conns) == 1        # one redial served them all
    finally:
        sys.setswitchinterval(interval)
        client.close()
        server.stop()
        if restarted is not None:
            restarted.stop()


def test_calls_of_one_substrate_share_one_interest_and_its_connection():
    server = ContentServer()
    server.attach_producer("ndn:/hold", lambda interest, base: None)
    server.start()
    client = SocketSubstrate([server.address])
    try:
        payloads = []
        threads = [threading.Thread(target=lambda: payloads.append(
            client.get("ndn:/hold/x", lifetime_ms=None).payload)) for _ in range(2)]
        for thread in threads:
            thread.start()
        limit = time.monotonic() + 5.0
        while client.counters["aggregated"] + server.counters["interestsIn"] < 2:
            assert time.monotonic() < limit
            time.sleep(0.01)
        assert (client.counters["forwarded"], client.counters["aggregated"]) == (1, 1)
        assert server.counters["interestsIn"] == 1
        # A reply from a connection the interest did not go out on is dropped.
        content = build_segments("ndn:/hold/x", b"event")[0]
        client.receive_content(content, object())
        assert client.counters["unsolicited"] == 1
        assert server.satisfy(content) == 1
        for thread in threads:
            thread.join(timeout=5.0)
        assert payloads == [b"event"] * 2
        assert len(client.pit) == 0
    finally:
        client.close()
        server.stop()


def test_a_substrate_that_cannot_reach_every_server_leaks_nothing():
    server, _ = echo_server()
    dead = ("127.0.0.1", free_ports(1)[0])
    baseline = threading.active_count()
    try:
        for _ in range(3):
            with pytest.raises(UnreachableError, match="127.0.0.1:%d" % dead[1]):
                SocketSubstrate([server.address, dead])
        limit = time.monotonic() + 5.0
        while ((threading.active_count() > baseline or server._conns)
               and time.monotonic() < limit):
            time.sleep(0.01)
        assert threading.active_count() <= baseline
        with server.dispatch_lock:
            assert not server._conns
    finally:
        server.stop()


def test_a_bad_announce_closes_its_connection_cleanly(monkeypatch):
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    listener = socket.create_server(("127.0.0.1", 0))
    address = listener.getsockname()
    announce = wire.announce_message("ndn:/echo", last=True)
    bad = dict(announce, name="ndn:/echo//x")
    conns = []

    def serve(*frames):
        def run():
            conns.append(listener.accept()[0])
            for frame in frames:
                wire.write_frame(conns[-1], frame)
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread

    client = None
    try:
        serve(bad)
        with pytest.raises(ProtocolError):          # in the handshake
            SocketSubstrate([address])
        served = serve(announce)
        client = SocketSubstrate([address])
        served.join(timeout=5.0)
        peer = client._peers[address]
        wire.write_frame(conns[-1], bad)            # once connected
        limit = time.monotonic() + 5.0
        while not peer.closed:
            assert time.monotonic() < limit
            time.sleep(0.01)
        assert uncaught == []
    finally:
        if client is not None:
            client.close()
        for conn in conns:
            conn.close()
        listener.close()


def test_connections_set_tcp_nodelay():
    server, _ = echo_server()
    try:
        client = SocketSubstrate([server.address])
        socks = [peer.sock for peer in client._peers.values()]
        socks += [conn.sock for conn in server._conns]
        assert len(socks) == 2
        for sock in socks:
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        client.close()
    finally:
        server.stop()


def test_modeled_delay_is_not_slept_over_sockets():
    server = ContentServer()
    content = build_segments("ndn:/slow/a", b"done", 1000.0)[0]
    server.attach_producer("ndn:/slow", lambda interest, base: ([content], 5000.0))
    server.start()
    try:
        client = SocketSubstrate([server.address])
        started = time.monotonic()
        assert client.get("ndn:/slow/a").payload == b"done"
        assert time.monotonic() - started < 1.0
        client.close()
    finally:
        server.stop()


def test_concurrent_get_many_on_one_substrate():
    server, _ = echo_server()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        client = SocketSubstrate([server.address])
        results = {}

        def worker(k):
            # Names 0-2 are asked for by every thread at once.
            names = ["ndn:/echo/%d" % i for i in range(3)]
            names += ["ndn:/echo/%d-%d" % (k, i) for i in range(3)]
            results[k] = client.get_many([{"name": n} for n in names],
                                         window=3)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20.0)
        assert not any(thread.is_alive() for thread in threads)
        assert [[r.payload for r in results[k]] for k in range(6)] == \
            [[b"pong" * 6000] * 6] * 6
        # The threads share one PIT: each of the 108 segment interests was
        # sent or joined a sent one, and every entry was answered.
        counts = client.counters
        assert counts["interestsIn"] == 108
        assert counts["interestsIn"] == counts["forwarded"] + counts["aggregated"]
        assert counts["contentsIn"] == counts["forwarded"]
        assert len(client.pit) == 0
        client.close()
    finally:
        sys.setswitchinterval(interval)
        server.stop()


def test_concurrent_clients_share_one_host_state():
    server, calls = echo_server()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [SocketSubstrate([server.address]) for _ in range(6)]
        results = {}

        def worker(k):
            # Names 0-3 are asked for by every client, each on its own
            # connection, so each on its own server thread.
            names = ["ndn:/echo/%d" % i for i in range(4)]
            names += ["ndn:/echo/%d-%d" % (k, i) for i in range(2)]
            results[k] = clients[k].get_many([{"name": n} for n in names],
                                             window=3)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20.0)
        assert not any(thread.is_alive() for thread in threads)
        assert [[r.payload for r in results[k]] for k in range(6)] == \
            [[b"pong" * 6000] * 6] * 6
        # Each of the 108 segment interests was counted once, as exactly one
        # of a cache hit, a producer call or an aggregation.
        counts = server.counters
        assert counts["interestsIn"] == 108
        assert counts["interestsIn"] == (counts["cacheHits"] + counts["aggregated"]
                                         + counts["producerCalls"])
        assert counts["producerCalls"] == calls["count"]
        assert len(server.pit) == 0
        for client in clients:
            client.close()
    finally:
        sys.setswitchinterval(interval)
        server.stop()


def dropping_server(drops):
    """Answers every segment but holds (never answers) the first `drops`
    interests for segment 1."""
    server = ContentServer()
    calls = {"seg1": 0}

    def producer(interest, base):
        if interest.name.endswith("/seg=1"):
            calls["seg1"] += 1
            if calls["seg1"] <= drops:
                return None
        return build_segments(base, b"ping" * 6000, 60000.0), 0.0

    server.attach_producer("ndn:/lossy", producer)
    server.start()
    return server, calls


def test_a_dropped_reply_is_retried():
    server, calls = dropping_server(drops=1)
    try:
        client = SocketSubstrate([server.address])
        [result] = client.get_many([{"name": "ndn:/lossy/a",
                                     "lifetime_ms": 100.0}])
        assert result.payload == b"ping" * 6000
        assert calls["seg1"] == 2
        client.close()
    finally:
        server.stop()


def test_a_fetch_fails_once_its_retries_run_out():
    server, calls = dropping_server(drops=3)
    try:
        client = SocketSubstrate([server.address])
        with pytest.raises(TimeoutError_):
            client.get("ndn:/lossy/b", lifetime_ms=50.0, retries=2)
        assert calls["seg1"] == 3
        client.close()
    finally:
        server.stop()


def test_a_server_forgets_the_interests_it_held():
    server = ContentServer()
    server.attach_producer("ndn:/hold", lambda interest, base: None)
    server.start()
    try:
        subscriber = SocketSubstrate([server.address])
        got = {}
        thread = threading.Thread(target=lambda: got.update(
            result=subscriber.get("ndn:/hold/next", lifetime_ms=None)),
            daemon=True)
        thread.start()
        client = SocketSubstrate([server.address])
        results = client.get_many([{"name": "ndn:/hold/%d" % i,
                                    "lifetime_ms": 5.0} for i in range(200)])
        assert all(isinstance(r, TimeoutError_) for r in results)
        # Held interests past their lifetime are swept as new ones arrive.
        assert len(server.pit) <= PIT_SWEEP_MIN
        client.close()
        # Those of a closed connection go at once; the subscription stays.
        limit = time.monotonic() + 5.0
        while len(server.pit) != 1 and time.monotonic() < limit:
            time.sleep(0.01)
        assert len(server.pit) == 1
        content = build_segments("ndn:/hold/next", b"later", 1000.0)[0]
        assert server.satisfy(content) == 1
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert got["result"].payload == b"later"
        subscriber.close()
    finally:
        server.stop()


def free_ports(count):
    socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(count)]
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def cluster_dict(mode, ports=None):
    engines = [
        {"id": "east", "servedPrefixes": ["ndn:/OGB/12"]},
        {"id": "west", "servedPrefixes": ["ndn:/OGB/-74"]},
    ]
    data = {
        "mode": mode,
        "seed": 5,
        "engines": engines,
        "bfServer": {"m": 4096, "h": 5},
        "topology": {"handlerLinkMbps": None},
    }
    if mode == "socket":
        for engine, port in zip(engines, ports):
            engine["address"] = {"host": "127.0.0.1", "port": port}
        data["bfServer"]["address"] = {"host": "127.0.0.1", "port": ports[2]}
        data["certRepo"] = {"address": {"host": "127.0.0.1", "port": ports[3]}}
    return data


def handlers_for(substrate, anchor, fetcher, creds):
    store = trust.TrustStore(anchor, fetcher=fetcher)
    return (QueryHandler(substrate, store, creds),
            InsertHandler(substrate, store, creds))


WORLD = [
    starbucks_dict(),
    {"type": "Feature",
     "geometry": {"type": "Point", "coordinates": [-73.98, 40.75]},
     "properties": {"oid": 2, "tid": "Foo", "uid": "Alice", "cid": "ShopApp"}},
    {"type": "Feature",
     "geometry": {"type": "MultiPoint",
                  "coordinates": [[12.511, 41.891], [12.531, 41.891]]},
     "properties": {"oid": 3, "tid": "Foo", "uid": "Alice", "cid": "ShopApp"}},
]

QUERIES = [
    (BoundingBox.of(12.50, 41.88, 12.54, 41.90), "intersect"),
    (BoundingBox.of(12.50, 41.88, 12.52, 41.90), "include"),
    (BoundingBox.of(-74.00, 40.70, -73.90, 40.80), "intersect"),
]


def run_queries(query_handler, use_bf=False):
    outcomes = []
    for box, mode in QUERIES:
        report = query_handler.range_query(
            RangeQuery(bbox=box, mode=mode, tid="Foo", cid="ShopApp",
                       use_bf=use_bf))
        outcomes.append(frozenset(canonical_json(f.raw) for f in report.features))
    return outcomes


def await_bf_sync(cluster, deadline_s=5.0):
    limit = time.monotonic() + deadline_s
    while time.monotonic() < limit:
        if all(cluster.bloom_server.last_seq[eid] == engine.cbf.seq - 1
               for eid, engine in cluster.engines.items()):
            return
        time.sleep(0.02)
    raise AssertionError("bloom server never caught up")


def test_socket_cluster_round_trip():
    ports = free_ports(4)
    cluster = SocketCluster(ClusterConfig.from_dict(cluster_dict("socket", ports)))
    cluster.start()
    try:
        kp, cert = cluster.issue_user("Foo", "Alice")
        creds = Credentials("Foo", "Alice", kp, cert)
        substrate = cluster.substrate()
        qh, ih = handlers_for(substrate, cluster.anchor,
                              network_cert_fetcher(substrate), creds)
        for feature in WORLD:
            assert ih.insert(feature).all_accepted
        await_bf_sync(cluster)

        plain = run_queries(qh)
        reduced = run_queries(qh, use_bf=True)
        assert plain == reduced
        assert len(plain[0]) == 2               # starbucks + the multipoint
        substrate.close()
    finally:
        cluster.stop()


def test_socket_and_sim_modes_agree_on_result_sets():
    ports = free_ports(4)
    socket_cluster = SocketCluster(
        ClusterConfig.from_dict(cluster_dict("socket", ports)))
    socket_cluster.start()
    try:
        kp, cert = socket_cluster.issue_user("Foo", "Alice")
        creds = Credentials("Foo", "Alice", kp, cert)
        substrate = socket_cluster.substrate()
        qh, ih = handlers_for(substrate, socket_cluster.anchor,
                              network_cert_fetcher(substrate), creds)
        for feature in WORLD:
            assert ih.insert(feature).all_accepted
        await_bf_sync(socket_cluster)
        socket_results = run_queries(qh)
        substrate.close()
    finally:
        socket_cluster.stop()

    sim_cluster = SimCluster(ClusterConfig.from_dict(cluster_dict("sim")))
    kp, cert = sim_cluster.issue_user("Foo", "Alice")
    creds = Credentials("Foo", "Alice", kp, cert)
    qh, ih = handlers_for(sim_cluster.substrate, sim_cluster.anchor,
                          sim_cluster.cert_repo.get_wire, creds)
    for feature in WORLD:
        assert ih.insert(feature).all_accepted
    sim_cluster.network.loop.run_until_idle()
    sim_results = run_queries(qh)

    assert socket_results == sim_results


def test_socket_listing_cached_before_a_remove_drops_the_gone_reference():
    ports = free_ports(4)
    cluster = SocketCluster(ClusterConfig.from_dict(cluster_dict("socket", ports)))
    cluster.start()
    try:
        kp, cert = cluster.issue_user("Foo", "Alice")
        creds = Credentials("Foo", "Alice", kp, cert)
        substrate = cluster.substrate()
        qh, ih = handlers_for(substrate, cluster.anchor,
                              network_cert_fetcher(substrate), creds)
        straddle, other = WORLD[2], dict(WORLD[0])
        assert ih.insert(straddle).all_accepted
        other["geometry"] = {"type": "Point", "coordinates": [12.532, 41.892]}
        assert ih.insert(other).all_accepted
        query = RangeQuery(bbox=BoundingBox.of(12.51, 41.89, 12.535, 41.8999),
                           mode="intersect", tid="Foo", cid="ShopApp")
        assert len(qh.range_query(query).features) == 2

        assert ih.remove(straddle).all_accepted
        # The engine's server still holds the listing naming a Reference to
        # the removed feature; the "gone" reply drops only that Reference.
        query.bbox = BoundingBox.of(12.5305, 41.8905, 12.5395, 41.8995)
        narrow = qh.range_query(query)
        assert [f.oid for f in narrow.features] == ["1234"]
        assert narrow.counts["itemsRejected"] == 1
        substrate.close()
    finally:
        cluster.stop()


def stored_socket_cluster(storage):
    data = cluster_dict("socket", free_ports(4))
    data["storageDir"] = str(storage)
    cluster = SocketCluster(ClusterConfig.from_dict(data))
    cluster.start()
    return cluster


def test_socket_status_reports_the_last_load(tmp_path):
    cluster = stored_socket_cluster(tmp_path / "storage")
    try:
        kp, cert = cluster.issue_user("Foo", "Alice")
        substrate = cluster.substrate()
        _, ih = handlers_for(substrate, cluster.anchor,
                             network_cert_fetcher(substrate),
                             Credentials("Foo", "Alice", kp, cert))
        assert ih.insert(WORLD[0]).all_accepted
        substrate.close()
    finally:
        cluster.stop()

    cluster = stored_socket_cluster(tmp_path / "storage")
    try:
        substrate = cluster.substrate()
        reply = substrate.get(bulk_channel("east") + "/status-1",
                              payload=canonical_json({"op": "status"}))
        status = json.loads(reply.payload)
        assert (status["logRecords"], status["items"]) == (1, 3)
        assert isinstance(status["loadMs"], float) and status["loadMs"] > 0.0
        substrate.close()
    finally:
        cluster.stop()


def feature_prefixes(feature):
    return [tile_prefix(item.name.tile).text
            for item in make_ogb_data_set(parse_feature(feature), 60000)]


def test_socket_bloom_server_rejects_forged_publications():
    ports = free_ports(4)
    cluster = SocketCluster(ClusterConfig.from_dict(cluster_dict("socket", ports)))
    cluster.start()
    try:
        kp, cert = cluster.issue_user("Foo", "Alice")
        creds = Credentials("Foo", "Alice", kp, cert)
        substrate = cluster.substrate()
        qh, ih = handlers_for(substrate, cluster.anchor,
                              network_cert_fetcher(substrate), creds)
        assert ih.insert(WORLD[0]).all_accepted
        await_bf_sync(cluster)
        east, server = cluster.engines["east"], cluster.bloom_server
        prefixes = feature_prefixes(WORLD[0])
        assert server.membership(prefixes) == [True] * 3

        forger = cluster.issue_user("Foo", "Mallory")
        for count, bad in enumerate(bad_publications(east, forger, prefixes), 1):
            # Pushed down the server's held subscription, as by an attacker,
            # once the server has re-expressed it after the last rejection.
            limit = time.monotonic() + 5.0
            while (not cluster.servers["east"].satisfy(bad)
                   and time.monotonic() < limit):
                time.sleep(0.01)
            while server.rejected < count and time.monotonic() < limit:
                time.sleep(0.01)
            assert server.stats()["rejected"] == count
            assert server.membership(prefixes) == [True] * 3

        assert len(run_queries(qh, use_bf=True)[0]) == 1     # still visible
        # The subscription survived: a genuine insert is still applied.
        assert ih.insert(WORLD[2]).all_accepted
        await_bf_sync(cluster)
        later = feature_prefixes(WORLD[2])
        assert server.membership(later) == [True] * len(later)
        assert server.stats()["rejected"] == 3
        substrate.close()
    finally:
        cluster.stop()


def test_stopped_socket_clusters_leave_no_threads():
    baseline = threading.active_count()
    for _ in range(3):
        cluster = SocketCluster(
            ClusterConfig.from_dict(cluster_dict("socket", free_ports(4))))
        cluster.start()
        substrate = cluster.substrate()
        assert substrate.get(bulk_channel("east") + "/status-1",
                             payload=canonical_json({"op": "status"}))
        substrate.close()
        cluster.stop()
    limit = time.monotonic() + 2.0
    while threading.active_count() > baseline and time.monotonic() < limit:
        time.sleep(0.02)
    assert threading.active_count() <= baseline


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_a_stopped_cluster_is_freed_without_a_collection(mode, tmp_path):
    gc.disable()
    try:
        cluster, qh, ih, close = deploy(mode, tmp_path / "storage")
        assert ih.insert(WORLD[0]).all_accepted
        if mode == "sim":
            cluster.network.loop.run_until_idle()
        await_bf_sync(cluster)
        assert len(run_queries(qh, use_bf=True)[0]) == 1
        close()
        refs = [weakref.ref(cluster), weakref.ref(cluster.engines["east"])]
        if mode == "sim":
            refs.append(weakref.ref(cluster.network))
        del cluster, qh, ih, close
        # Server threads still unwinding hold their server a little longer.
        limit = time.monotonic() + 2.0
        while any(ref() is not None for ref in refs) and time.monotonic() < limit:
            time.sleep(0.02)
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def deploy(mode, storage, keys_dir=None):
    """A cluster in `mode` on `storage`, Alice's handlers, and a closer."""
    data = cluster_dict(mode, free_ports(4) if mode == "socket" else None)
    data["storageDir"] = str(storage)
    if keys_dir is not None:
        data["keysDir"] = str(keys_dir)
    config = ClusterConfig.from_dict(data)
    if mode == "sim":
        cluster = SimCluster(config)
        substrate, fetcher = cluster.substrate, cluster.cert_repo.get_wire
        close = cluster.stop
    else:
        cluster = SocketCluster(config)
        cluster.start()
        substrate = cluster.substrate()
        fetcher = network_cert_fetcher(substrate)
        close = lambda: (substrate.close(), cluster.stop())
    kp, cert = cluster.issue_user("Foo", "Alice")
    qh, ih = handlers_for(substrate, cluster.anchor, fetcher,
                          Credentials("Foo", "Alice", kp, cert))
    return cluster, qh, ih, close


# A second feature in the tile of WORLD[0].
NEIGHBOUR = dict(WORLD[0], properties=dict(WORLD[0]["properties"], oid=77))


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_flush_caches_shows_a_later_insert(mode, tmp_path):
    cluster, qh, ih, close = deploy(mode, tmp_path / "storage")
    try:
        assert ih.insert(WORLD[0]).all_accepted
        assert len(run_queries(qh)[1]) == 1
        assert ih.insert(NEIGHBOUR).all_accepted
        # The listing is still served from the engine host's content store.
        assert len(run_queries(qh)[1]) == 1
        cluster.flush_caches()
        assert all(len(host.cs) == 0 for host in cluster.hosts)
        assert len(run_queries(qh)[1]) == 2

        status = cluster.status()
        assert status["engines"]["east"]["processedQueries"] > 0
        # Every host counts what it answered, in either mode.
        nodes = status["nodes"]
        assert {"east", "west", "bf-server", "cert-repo"} <= set(nodes)
        assert mode == "socket" or {"switch", "handler"} <= set(nodes)
        assert nodes["east"]["cacheHits"] > 0
        cluster.reset_counters()
        status = cluster.status()
        assert status["engines"]["east"]["processedQueries"] == 0
        assert status["nodes"]["east"].get("cacheHits", 0) == 0
    finally:
        close()


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_snapshot_folds_the_log(mode, tmp_path):
    storage = tmp_path / "storage"
    cluster, _, ih, close = deploy(mode, storage)
    try:
        assert ih.insert(WORLD[0]).all_accepted
        cluster.snapshot()
    finally:
        close()

    cluster, _, _, close = deploy(mode, storage)
    try:
        status = cluster.status()["engines"]["east"]
        assert (status["logRecords"], status["items"]) == (0, 3)
    finally:
        close()


def test_sim_a_stale_listing_lasts_only_its_freshness(tmp_path):
    cluster, qh, ih, close = deploy("sim", tmp_path / "storage")
    try:
        assert ih.insert(WORLD[0]).all_accepted
        assert len(run_queries(qh)[1]) == 1
        assert ih.insert(NEIGHBOUR).all_accepted
        assert len(run_queries(qh)[1]) == 1       # the cached listing
        cluster.substrate.advance(TILE_FRESHNESS_MS)
        assert len(run_queries(qh)[1]) == 2
    finally:
        close()


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_an_unknown_certificate_is_answered_at_once(mode, tmp_path):
    cluster, qh, _, close = deploy(mode, tmp_path / "storage")
    try:
        fetch = network_cert_fetcher(qh.substrate)
        name = trust.cert_name(trust.user_identity("Foo", "Nobody"))
        started = qh.substrate.now_ms()
        assert fetch(name) is None
        assert qh.substrate.now_ms() - started < DEFAULT_LIFETIME_MS
        _, cert = cluster.issue_user("Foo", "Nobody")
        assert fetch(name) == cert.to_wire()
    finally:
        close()


def test_a_user_issued_by_another_process_resolves_over_the_network(tmp_path):
    data = cluster_dict("socket", free_ports(4))
    data["engines"] = data["engines"][:1]
    data["keysDir"] = str(tmp_path / "keys")
    cluster = SocketCluster(ClusterConfig.from_dict(data))
    cluster.start()
    substrate = cluster.substrate()
    try:
        _, late = KeyStore(tmp_path / "keys").user("Foo", "Late")
        assert network_cert_fetcher(substrate)(late.name) == late.to_wire()
    finally:
        substrate.close()
        cluster.stop()


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_no_certificate_name_reads_outside_the_key_store(mode, tmp_path):
    keys_dir = tmp_path / "keys"
    cluster, qh, _, close = deploy(mode, tmp_path / "storage", keys_dir)
    try:
        # What a key store would write for the identity "/../outside".
        kp = trust.KeyPair.from_seed(bytes(32))
        (tmp_path / "outside.json").write_text(json.dumps({
            "identity": "/../outside", "keypair": kp.to_dict(),
            "certificate": trust.make_anchor(kp, "/../outside").to_dict()}))
        outside = Name.from_text("ndn:/OGB-SYS/certs/../outside")
        assert cluster.cert_repo.get_wire(outside) is None
        # A corrupt key file is a config error here, and "gone" on the wire.
        broken = trust.cert_name(trust.user_identity("Foo", "Broken"))
        (keys_dir / "OGB" / "tenants" / "Foo" / "users" / "Broken.json") \
            .write_text("{not json")
        with pytest.raises(ConfigError, match="Broken.json"):
            cluster.cert_repo.get_wire(broken)
        for name in (outside, broken):
            assert is_gone(qh.substrate.get(name.text).payload)
    finally:
        close()


ROME = [12.51133, 41.8919]


def _feature(tid, uid, oid, coordinates=ROME):
    return {"type": "Feature",
            "geometry": {"type": "Point", "coordinates": coordinates},
            "properties": {"oid": oid, "tid": tid, "uid": uid, "cid": "ShopApp"}}


def forgeries(alice, eve_feature):
    """Alice's signed items that speak for others: at every tile, an Inline
    or Reference claiming Bob's oid 1, and a Reference to Eve's feature in
    tenant Bar, all under Alice's own names."""
    claim = parse_feature(_feature("Foo", "Bob", 1, [12.5114, 41.892]))
    eve_target = canonical_data_name(eve_feature)
    items = []
    for item in make_ogb_data_set(claim, 60000):
        item.name = DataName(item.name.tile, "Foo", "ShopApp", "Alice", "1")
        items.append(item)
    for item in make_ogb_data_set(eve_feature, 60000):
        items.append(OgbData(DataName(item.name.tile, "Foo", "ShopApp", "Alice", "5"),
                             REFERENCE, eve_target, 60000))
    for item in items:
        item.signature = alice.sign(item.name.name.text, item.signed_payload())
    return items


def _forgery_world(mode, tmp_path):
    cluster, _, ih, close = deploy(mode, tmp_path / "storage")
    substrate, fetcher = ih.substrate, ih.trust_store.fetcher
    handlers = {}
    for tid, uid in (("Foo", "Bob"), ("Bar", "Eve")):
        kp, cert = cluster.issue_user(tid, uid)
        handlers[uid] = handlers_for(substrate, cluster.anchor, fetcher,
                                     Credentials(tid, uid, kp, cert))
    bob, eve = _feature("Foo", "Bob", 1), _feature("Bar", "Eve", 9)
    assert handlers["Bob"][1].insert(bob).all_accepted
    assert handlers["Eve"][1].insert(eve).all_accepted
    return cluster, ih, handlers["Bob"][0], bob, parse_feature(eve), close


BOB_BOX = BoundingBox.of(12.50, 41.88, 12.53, 41.90)


def _bob_query(qh):
    return qh.range_query(RangeQuery(bbox=BOB_BOX, mode="intersect", tid="Foo",
                                     cid="ShopApp"))


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_an_engine_refuses_items_that_speak_for_another(mode, tmp_path):
    cluster, ih, bob_qh, bob, eve, close = _forgery_world(mode, tmp_path)
    try:
        items = forgeries(ih.credentials, eve)
        report = ih._push(items, op="insert")
        assert [s.reason for s in report.statuses] == \
            [trust.REASON_IDENTITY_RULE] * len(items)
        assert [f.raw for f in _bob_query(bob_qh).features] == [bob]
    finally:
        close()


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_a_query_drops_stored_items_that_speak_for_another(mode, tmp_path,
                                                          monkeypatch):
    cluster, ih, bob_qh, bob, eve, close = _forgery_world(mode, tmp_path)
    try:
        items = forgeries(ih.credentials, eve)
        assert {i.body_type for i in items} == {INLINE, REFERENCE}
        # And Alice's genuine Reference, whose target the engine answers
        # with Eve's validly signed Inline.
        target = canonical_data_name(parse_feature(
            _feature("Foo", "Alice", 7, [12.525, 41.895])))
        reference = OgbData(DataName(canonical_data_name(eve).tile, "Foo",
                                     "ShopApp", "Alice", "7"),
                            REFERENCE, target, 60000)
        reference.signature = ih.credentials.sign(
            reference.name.name.text, reference.signed_payload())
        engine = cluster.engines["east"]
        eve_wire = engine.co_table[canonical_data_name(eve).name.text]
        honest = engine._data_response

        def swapped(data_name):
            if data_name != target:
                return honest(data_name)
            return build_segments(target.name, eve_wire, 0.0, engine._sign), 0.0

        monkeypatch.setattr(engine, "_data_response", swapped)
        with cluster.servers["east"].dispatch_lock:
            for item in items + [reference]:
                engine._put(item.name.name.text, item.to_wire())
        cluster.flush_caches()
        report = _bob_query(bob_qh)
        assert [f.raw for f in report.features] == [bob]
        assert report.counts["itemsRejected"] >= 2
    finally:
        close()


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_a_query_drops_items_spliced_into_a_listing(mode, tmp_path, monkeypatch):
    cluster, ih, bob_qh, bob, eve, close = _forgery_world(mode, tmp_path)
    try:
        # Eve's Inline of tenant Bar, and Bob's own Inline from its tile.
        east = cluster.engines["east"]
        eve_wire = east.co_table[canonical_data_name(eve).name.text]
        bob_name = canonical_data_name(parse_feature(bob))
        bob_wire = east.co_table[bob_name.name.text]
        bob_prefix = tile_prefix(bob_name.tile).text
        honest = Engine.rows
        spliced_in = {}

        # Every listing build, single or grouped, reads its rows here.
        def spliced(engine, level, prefix, key):
            extra = [eve_wire] + ([bob_wire] if prefix != bob_prefix else [])
            spliced_in[prefix] = len(extra)
            return honest(engine, level, prefix, key) + extra

        monkeypatch.setattr(Engine, "rows", spliced)
        cluster.flush_caches()
        report = _bob_query(bob_qh)
        assert [f.raw for f in report.features] == [bob]
        queried = [tile_prefix(tile).text
                   for tile in tessellation.constrained(BOB_BOX, DEFAULT_K).tiles]
        assert len(queried) == report.counts["tilesQueried"]
        assert report.counts["itemsRejected"] == sum(spliced_in[p] for p in queried)
    finally:
        close()


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_a_query_drops_a_listing_of_another_tile_name(mode, tmp_path, monkeypatch):
    cluster, ih, bob_qh, bob, eve, close = _forgery_world(mode, tmp_path)
    try:
        honest_rows, honest_wire = Engine.rows, geodata.listing_wire

        # Tenant Bar's rows, under Bar's tile name, for every listing build.
        def other_tenants(engine, level, prefix, key):
            return honest_rows(engine, level, prefix, "Bar/" + key.split("/")[1])

        def other_name(name_text, items, freshness_ms):
            return honest_wire(name_text.replace("/TILE/Foo/", "/TILE/Bar/"), items,
                               freshness_ms)

        monkeypatch.setattr(Engine, "rows", other_tenants)
        monkeypatch.setattr(geodata, "listing_wire", other_name)
        monkeypatch.setattr(engine_module, "listing_wire", other_name)
        cluster.flush_caches()
        report = _bob_query(bob_qh)
        assert report.features == []
        assert report.counts["itemsRejected"] >= 1
    finally:
        close()


def _first_segments(box):
    """The segment-0 names of Foo's ShopApp tile interests for `box`."""
    return [TileName(tile, "Foo", "ShopApp").name.text + "/seg=0"
            for tile in tessellation.constrained(box, 50).tiles]


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_an_engine_drops_tile_interests_outside_or_malformed_batches(mode, tmp_path):
    cluster, qh, ih, close = deploy(mode, tmp_path / "storage")
    try:
        assert ih.insert(WORLD[0]).all_accepted
        creds = qh.credentials
        firsts = _first_segments(QUERIES[0][0])
        batch = trust.sign_batch(creds.keypair, creds.certificate,
                                 [(name, b"") for name in firsts[1:]])
        refused = {"outside the batch": (firsts[0], batch[0])}
        refused.update((case, (firsts[1], envelope)) for case, envelope
                       in malformed_batch_envelopes(batch[0]).items())
        cluster.flush_caches()             # so every interest reaches the engine
        for case, (first, envelope) in refused.items():
            with pytest.raises(TimeoutError_):
                qh.substrate.get(first[:-len("/seg=0")], lifetime_ms=100.0, retries=0,
                                 sign=lambda name, payload, e=envelope: e)
        with cluster.servers["east"].dispatch_lock:
            assert cluster.engines["east"].rejected_interests == len(refused)
        # The same interest under its genuine envelope is answered.
        got = qh.substrate.get(firsts[1][:-len("/seg=0")], validator=qh._validate_segment,
                               sign=lambda name, payload: batch[0])
        assert got.segments[0].name == firsts[1]
        assert len(run_queries(qh)[0]) == 1
    finally:
        close()


@pytest.mark.parametrize("garble", [
    {"signatureBase64": "A"},           # what a garbled signature has always done
    {"path": 7}, {"path": "LR"}, {"path": [["L"]]}, {"path": [["L", "A"]]},
], ids=["signature", "path-number", "path-string", "short-step", "bad-base64"])
def test_a_garbled_interest_envelope_drops_only_its_connection(garble, tmp_path,
                                                               monkeypatch):
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    cluster, qh, ih, close = deploy("socket", tmp_path / "storage")
    try:
        assert ih.insert(WORLD[0]).all_accepted
        creds = qh.credentials
        first = _first_segments(QUERIES[0][0])[0]
        envelope = trust.sign_batch(creds.keypair, creds.certificate, [(first, b"")])[0]
        sock = socket.create_connection(cluster.servers["east"].address, timeout=5.0)
        try:
            while not wire.read_frame(sock).get("last"):
                pass                                    # the announcements
            wire.write_frame(sock, {"type": wire.TYPE_INTEREST, "name": first, "nonce": 1,
                                    "signature": dict(envelope.to_dict(), **garble)})
            assert wire.read_frame(sock) is None         # the server hung up
        finally:
            sock.close()
        assert len(run_queries(qh)[0]) == 1
        assert uncaught == []
    finally:
        close()


def test_an_old_substrate_redials_a_restarted_cluster(tmp_path):
    cluster, qh, ih, _ = deploy("socket", tmp_path / "storage", tmp_path / "keys")
    substrate = qh.substrate
    try:
        assert ih.insert(WORLD[0]).all_accepted
        expected = run_queries(qh)
        assert len(expected[0]) == 1
        cluster.stop()
        limit = time.monotonic() + 5.0
        while not all(peer.closed for peer in substrate._peers.values()):
            assert time.monotonic() < limit
            time.sleep(0.01)
        # Nothing listens, so the one redial fails and there is no route.
        with pytest.raises(PartialResultError):
            run_queries(qh)
        cluster = SocketCluster(cluster.config)
        cluster.start()
        assert run_queries(qh) == expected
    finally:
        substrate.close()
        cluster.stop()


HOSTILE_LISTINGS = {
    "drop": lambda items, rng: [item for item in items if rng.random() < 0.5],
    "reorder": lambda items, rng: rng.sample(items, len(items)),
    "duplicate": lambda items, rng: rng.sample(items * 2, 2 * len(items)),
}


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_a_hostile_engine_can_hide_results_but_never_forge_them(mode, tmp_path,
                                                                monkeypatch):
    cluster, _, ih, close = deploy(mode, tmp_path / "storage")
    try:
        users = {}
        for tid, uid in (("Foo", "Bob"), ("Bar", "Eve")):
            kp, cert = cluster.issue_user(tid, uid)
            users[uid] = handlers_for(ih.substrate, cluster.anchor, ih.trust_store.fetcher,
                                      Credentials(tid, uid, kp, cert))
        (bob_qh, bob_ih), (_, eve_ih) = users["Bob"], users["Eve"]
        bob, eve = _feature("Foo", "Bob", 1), _feature("Bar", "Eve", 9)
        bob_multi = dict(_feature("Foo", "Bob", 2), geometry={
            "type": "MultiPoint", "coordinates": [[12.505, 41.885], [12.545, 41.905]]})
        for handler, feature in ((bob_ih, bob), (bob_ih, bob_multi), (eve_ih, eve),
                                 (ih, WORLD[0]), (ih, WORLD[2])):
            assert handler.insert(feature).all_accepted
        # Alice's validly signed items that claim Bob's oid 1, stored as a
        # store written before the engine checked them would hold them.
        east = cluster.engines["east"]
        with cluster.servers["east"].dispatch_lock:
            for item in forgeries(ih.credentials, parse_feature(eve)):
                east._put(item.name.name.text, item.to_wire())
        box = BoundingBox.of(12.50, 41.88, 12.53, 41.90)
        genuine = {}
        for raw in (bob, bob_multi, WORLD[0], WORLD[2], eve):
            f = parse_feature(raw)
            if f.tid == "Foo" and any(box.contains(p) for p in f.points):
                genuine[(f.tid, f.cid, f.uid, f.oid)] = canonical_json(raw)
        assert len(genuine) == 4

        honest = Engine.rows
        for kind, mangle in HOSTILE_LISTINGS.items():
            for seed in range(3):
                # The same rows for a tile every time it is read, as an
                # engine's signed listing group needs.
                def hostile(engine, level, prefix, key, seed=seed):
                    rng = random.Random("%d %s %s" % (seed, prefix, key))
                    return mangle(honest(engine, level, prefix, key), rng)

                monkeypatch.setattr(Engine, "rows", hostile)
                cluster.flush_caches()
                features = _bob_query(bob_qh).features
                got = {(f.tid, f.cid, f.uid, f.oid): canonical_json(f.raw)
                       for f in features}
                assert len(got) == len(features), (kind, seed)
                # Every feature is the genuine copy of an oracle answer.
                assert all(genuine.get(key) == raw for key, raw in got.items()), \
                    (kind, seed)
                if kind != "drop":
                    assert got == genuine, (kind, seed)
    finally:
        close()


def settle(cluster):
    """Let the Bloom filter server catch up with every engine."""
    if cluster.config.mode == "sim":
        cluster.network.loop.run_until_idle()
    await_bf_sync(cluster)


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_two_insert_sessions_of_one_user_each_get_their_insert(mode, tmp_path):
    cluster, qh, ih, close = deploy(mode, tmp_path / "storage")
    try:
        # As two `ogb insert` processes of Alice would.
        second = InsertHandler(ih.substrate, ih.trust_store, ih.credentials)
        assert ih.insert(WORLD[0]).all_accepted
        assert second.insert(NEIGHBOUR).all_accepted
        assert len(run_queries(qh)[1]) == 2
    finally:
        close()


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_two_query_sessions_of_one_user_each_get_their_bloom_answer(mode, tmp_path):
    cluster, qh, ih, close = deploy(mode, tmp_path / "storage")
    try:
        for feature in WORLD[:2]:
            assert ih.insert(feature).all_accepted
        settle(cluster)
        expected = run_queries(qh)
        assert expected[0] and expected[2]
        # Rome, then New York, each by a new session, as `ogb query --bf` does.
        for index in (0, 2):
            session = QueryHandler(qh.substrate, qh.trust_store, qh.credentials)
            box, how = QUERIES[index]
            report = session.range_query(RangeQuery(bbox=box, mode=how, tid="Foo",
                                                    cid="ShopApp", use_bf=True))
            assert frozenset(canonical_json(f.raw) for f in report.features) \
                == expected[index], index
    finally:
        close()


# One 1-degree tile, whose listing of 120 References spans several segments.
TILE_BOX = BoundingBox.of(12.01, 41.01, 12.99, 41.99)


def _tile_query(qh):
    report = qh.range_query(RangeQuery(bbox=TILE_BOX, mode="intersect", tid="Foo",
                                       cid="ShopApp", k=1))
    return {f.oid for f in report.features}


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_a_write_between_a_listings_segments_splices_no_versions(mode, tmp_path,
                                                                 monkeypatch):
    cluster, qh, ih, close = deploy(mode, tmp_path / "storage")
    try:
        for i in range(120):
            point = [12.05 + (i % 12) * 0.08, 41.05 + (i // 12) * 0.09]
            assert ih.insert(_feature("Foo", "Alice", 1000 + i, point)).all_accepted
        # Its names sort first in every listing, so it shifts every segment.
        late = make_ogb_data_set(parse_feature(
            _feature("Foo", "Alice", 1, [12.5, 41.5])), 60000)
        for item in late:
            item.signature = ih.credentials.sign(item.name.name.text, item.signed_payload())
        first = _first_segments(TILE_BOX)[0].replace("/seg=0", "/seg=")
        honest = qh._validate_segment
        segments = []

        def validate(content):
            honest(content)
            if content.name.startswith(first):
                segments.append(content.name)
                if len(segments) == 1:
                    # A second client's insert, between segment 0 and the rest.
                    with cluster.servers["east"].dispatch_lock:
                        cluster.engines["east"].bulk_insert(late)

        monkeypatch.setattr(qh, "_validate_segment", validate)
        cluster.flush_caches()
        before = {str(1000 + i) for i in range(120)}
        assert _tile_query(qh) == before
        assert len(segments) > 2
        cluster.flush_caches()
        assert _tile_query(qh) == before | {"1"}
    finally:
        close()


def _unreadable_listing(engine, level, prefix, key):
    return [b"{"]


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_listings_signed_by_a_user_fail_their_tiles(mode, tmp_path, monkeypatch):
    cluster, qh, ih, close = deploy(mode, tmp_path / "storage")
    try:
        assert ih.insert(WORLD[0]).all_accepted
        box, how = QUERIES[0]
        query = RangeQuery(bbox=box, mode=how, tid="Foo", cid="ShopApp")
        assert len(qh.range_query(query).features) == 1
        eve_kp, eve_cert = cluster.issue_user("Bar", "Eve")
        honest = Engine._tile_response

        # Each tile answered with an empty listing that Eve signed.
        def forged(engine, interest, tile_name):
            if honest(engine, interest, tile_name) is None:
                return None
            empty = geodata.WireTile(tile_name, [], 60000).to_wire()
            return build_segments(tile_name.name, empty, TILE_FRESHNESS_MS,
                                  partial(trust.sign_envelope, eve_kp, eve_cert)), 0.0

        monkeypatch.setattr(Engine, "_tile_response", forged)
        cluster.flush_caches()
        # Not an empty answer: every tile fails, which the CLI exits 3 for.
        with pytest.raises(PartialResultError) as failed:
            qh.range_query(query)
        report = failed.value.report
        assert len(failed.value.failed_tiles) == report.counts["tilesQueried"] > 0
        assert report.features == []
    finally:
        close()


# An empty box of twelve tiles in one level-1 tile of engine east.
EMPTY_BOX = BoundingBox.of(12.60, 41.60, 12.64, 41.62)


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_a_query_of_nine_or_more_tiles_costs_one_verify_per_group(mode, tmp_path):
    cluster, qh, ih, close = deploy(mode, tmp_path / "storage")
    try:
        assert ih.insert(WORLD[0]).all_accepted
        tiles = tessellation.constrained(EMPTY_BOX, DEFAULT_K).tiles
        assert len(tiles) >= 9
        creds = qh.credentials
        envelopes = trust.sign_batch(creds.keypair, creds.certificate,
                                     [(name, b"") for name in _first_segments(EMPTY_BOX)])
        grouped = [tile for tile, env in zip(tiles, envelopes)
                   if len(env.path) >= GROUP_MIN_PATH]
        groups = {grid.parent(tile) for tile in grouped}
        assert len(grouped) > len(groups) >= 1
        east = cluster.engines["east"]
        signs = []
        sign = east.keypair.sign
        east.keypair.sign = lambda data: signs.append(data) or sign(data)
        cluster.flush_caches()
        memo = len(qh.trust_store._verified)
        report = qh.range_query(RangeQuery(bbox=EMPTY_BOX, mode="intersect",
                                           tid="Foo", cid="ShopApp"))
        assert report.features == [] and report.counts["tilesQueried"] == len(tiles)
        # One signature per group, one per listing asked outside a group.
        expected = len(groups) + len(tiles) - len(grouped)
        assert len(qh.trust_store._verified) - memo == expected
        assert len(signs) == expected
    finally:
        close()


@pytest.mark.parametrize("mode", ["sim", "socket"])
def test_a_listing_that_does_not_decode_fails_its_tile(mode, tmp_path, monkeypatch):
    cluster, qh, ih, close = deploy(mode, tmp_path / "storage")
    try:
        assert ih.insert(WORLD[0]).all_accepted
        monkeypatch.setattr(Engine, "rows", _unreadable_listing)
        cluster.flush_caches()
        with pytest.raises(PartialResultError) as failed:
            _tile_query(qh)
        assert len(failed.value.failed_tiles) == 1
    finally:
        close()


def test_replies_that_do_not_decode_fail_cleanly(tmp_path, monkeypatch):
    cluster, qh, ih, close = deploy("sim", tmp_path / "storage")
    try:
        assert ih.insert(WORLD[0]).all_accepted
        settle(cluster)
        assert _tile_query(qh) == {str(WORLD[0]["properties"]["oid"])}

        # A dereferenced body that does not decode counts as rejected.
        def unreadable_body(engine, data_name):
            return build_segments(data_name.name, b"not json", 0.0, engine._sign), 0.0

        with monkeypatch.context() as patch:
            patch.setattr(Engine, "_data_response", unreadable_body)
            cluster.flush_caches()
            report = qh.range_query(RangeQuery(bbox=TILE_BOX, mode="intersect",
                                               tid="Foo", cid="ShopApp", k=1))
            assert (report.features, report.counts["itemsRejected"]) == ([], 1)

        # A Bloom reply with a bit too few for the prefixes sent.
        honest = BloomServer.membership
        with monkeypatch.context() as patch:
            patch.setattr(BloomServer, "membership",
                          lambda server, prefixes: honest(server, prefixes)[:-1])
            with pytest.raises(ServiceError):
                run_queries(qh, use_bf=True)

        # A bulk reply that lacks an item's status.
        insert = Engine.bulk_insert
        with monkeypatch.context() as patch:
            patch.setattr(Engine, "bulk_insert",
                          lambda engine, items: insert(engine, items)[:-1])
            with pytest.raises(ServiceError):
                ih.insert(NEIGHBOUR)

        # An address reply that does not decode.
        def unreadable_address(engine, ipres):
            return build_segments(ipres.name, b"not json", 0.0, engine._sign), 0.0

        with monkeypatch.context() as patch:
            patch.setattr(Engine, "_ipres_response", unreadable_address)
            cluster.flush_caches()
            cluster.substrate.advance(IPRES_FRESHNESS_MS)    # past the cached address
            with pytest.raises(ServiceError):
                ih.insert(NEIGHBOUR)

        # A digest request answered with an error reply.
        with monkeypatch.context() as patch:
            patch.setattr(Engine, "digest_payload", lambda engine: 1 / 0)
            with pytest.raises(ServiceError):
                cluster.bf_feed.recover("east")
    finally:
        close()
