from __future__ import annotations

import threading
import time

import pytest

from ogb.errors import (ConfigError, NameParseError, NoRouteError, OgbError,
                        TimeoutError_, ValidationError)
from ogb.icn import (
    ContentObject,
    ContentStore,
    EventLoop,
    Fib,
    Future,
    Interest,
    Pit,
    SimNetwork,
    SimSubstrate,
    build_segments,
    segment_payloads,
)
from ogb.icn.core import PIT_SWEEP_MIN
from ogb.icn.sim import LOCAL
from ogb.icn.sockets import ContentServer, SocketSubstrate
from ogb.names import segment_name


def test_event_loop_orders_and_advances():
    loop = EventLoop()
    seen = []
    loop.schedule(1.0, lambda: seen.append(("late", loop.now)))
    loop.schedule(0.0, lambda: loop.advance(5.0))
    loop.schedule(0.0, lambda: seen.append(("early", loop.now)))
    loop.run_until_idle()
    # The first t=0 handler was busy for 5 ms, so everything after it runs
    # at t=5, including the event scheduled for t=1.
    assert seen == [("early", 5.0), ("late", 5.0)]
    assert loop.now == 5.0


def test_event_loop_cancellation():
    loop = EventLoop()
    seen = []
    ev = loop.schedule(1.0, lambda: seen.append("cancelled"))
    loop.schedule(2.0, lambda: seen.append("kept"))
    ev.cancel()
    loop.run_until_idle()
    assert seen == ["kept"]


def test_cancelled_events_leave_the_heap_without_reordering_the_rest():
    loop = EventLoop()
    seen = []
    events = [loop.schedule(float(i % 7), lambda i=i: seen.append((i, loop.now)))
              for i in range(100)]
    for event in events[::4] + events[1::4] + events[2::4]:
        event.cancel()
    assert len(loop._heap) < 50           # rebuilt once most were cancelled
    loop.run_until_idle()
    kept = sorted(range(3, 100, 4), key=lambda i: (i % 7, i))
    assert seen == [(i, float(i % 7)) for i in kept]


def test_fib_longest_prefix():
    # Routes are marker-less routing prefixes, so they component-nest.
    fib = Fib()
    fib.add("ndn:/OGB/12/41", "coarse")
    fib.add("ndn:/OGB/12/41/51", "fine")
    assert fib.lookup("ndn:/OGB/12/41/51/GPS-ID/TILE/Foo/ShopApp/seg=0") == "fine"
    assert fib.lookup("ndn:/OGB/12/41/52/GPS-ID") == "coarse"
    assert fib.lookup("ndn:/OGB/13/41") is None
    fib.add("ndn:/OGB/12/41", "coarse")                 # same hop is idempotent
    with pytest.raises(ConfigError):
        fib.add("ndn:/OGB/12/41", "other")


def test_fib_probes_only_route_lengths_and_keeps_longest_match():
    fib = Fib()
    fib.add("ndn:/OGB/12/41/51/89", "deepest")
    fib.add("ndn:/OGB", "root")
    fib.add("ndn:/OGB/12/41", "mid")
    assert fib.lookup("ndn:/OGB/12/41/51/89/GPS-ID/seg=0") == "deepest"
    assert fib.lookup("ndn:/OGB/12/41/51/88") == "mid"
    # Names shorter than the longest route.
    assert fib.lookup("ndn:/OGB/12/41/51") == "mid"
    assert fib.lookup("ndn:/OGB/12") == "root"
    assert fib.lookup("ndn:/OGB") == "root"
    assert fib.lookup("ndn:/Other/12/41") is None
    with pytest.raises(NameParseError):
        fib.lookup("not a name")


def test_pit_aggregation_and_renewal():
    pit = Pit()
    assert pit.add("ndn:/x/seg=0", "a", expiry=10.0, now=0.0)
    assert not pit.add("ndn:/x/seg=0", "b", expiry=12.0, now=2.0)
    assert pit.add("ndn:/x/seg=0", "a", expiry=14.0, now=4.0)    # a retransmission
    assert not pit.add("ndn:/x/seg=0", "c", expiry=20.0, now=12.0)  # live until 14
    assert pit.add("ndn:/x/seg=0", "d", expiry=30.0, now=14.0)   # expired: renew
    assert sorted(pit.consume("ndn:/x/seg=0")) == ["a", "b", "c", "d"]
    assert pit.consume("ndn:/x/seg=0") == []


def test_content_store_lru_and_freshness():
    cs = ContentStore(capacity=2)
    c1 = ContentObject("ndn:/a/seg=0", b"1", freshness_ms=100.0)
    c2 = ContentObject("ndn:/b/seg=0", b"2", freshness_ms=100.0)
    c3 = ContentObject("ndn:/c/seg=0", b"3", freshness_ms=100.0)
    cs.put(c1, now=0.0)
    cs.put(c2, now=0.0)
    assert cs.get("ndn:/a/seg=0", now=50.0) is c1
    cs.put(c3, now=50.0)                       # evicts the LRU entry, b
    assert cs.get("ndn:/b/seg=0", now=50.0) is None
    assert cs.get("ndn:/a/seg=0", now=99.0) is c1
    assert cs.get("ndn:/a/seg=0", now=100.0) is None      # stale
    cs.put(ContentObject("ndn:/d/seg=0", b"4", freshness_ms=0.0), now=0.0)
    assert cs.get("ndn:/d/seg=0", now=0.0) is None        # freshness 0: no cache


def test_segmenting():
    assert segment_payloads(b"") == [b""]
    chunks = segment_payloads(b"x" * 20000)
    assert [len(c) for c in chunks] == [8000, 8000, 4000]
    contents = build_segments("ndn:/OGB-SYS/thing", b"x" * 20000, freshness_ms=5.0)
    assert [c.name for c in contents] == [
        "ndn:/OGB-SYS/thing/seg=0",
        "ndn:/OGB-SYS/thing/seg=1",
        "ndn:/OGB-SYS/thing/seg=2",
    ]
    assert all(c.final_segment == 2 for c in contents)
    assert b"".join(c.payload for c in contents) == b"x" * 20000


def line_network(producer_fn, cache_capacity=64, bandwidth=None):
    net = SimNetwork()
    consumer = net.add_node("consumer")
    net.add_node("switch")
    producer = net.add_node("producer", cache_capacity=cache_capacity)
    net.connect("consumer", "switch", bandwidth_mbps=bandwidth)
    net.connect("switch", "producer", bandwidth_mbps=bandwidth)
    producer.attach_producer("ndn:/OGB-SYS/svc", producer_fn)
    net.announce("ndn:/OGB-SYS/svc", "producer")
    return net, SimSubstrate(net, consumer), producer


def chunked_producer(payload, freshness_ms=60000.0, delay_ms=0.0):
    def handler(interest, base):
        return build_segments(base, payload, freshness_ms), delay_ms
    return handler


def test_interest_aggregation():
    net, sub, producer = line_network(chunked_producer(b"slow", delay_ms=5.0))
    f1 = sub.get_async("ndn:/OGB-SYS/svc/blob")
    f2 = sub.get_async("ndn:/OGB-SYS/svc/blob")
    net.loop.run_until(lambda: f1.done and f2.done)
    assert f1.result().payload == f2.result().payload == b"slow"
    assert producer.counters["producerCalls"] == 1
    assert net.nodes["consumer"].counters["aggregated"] == 1


def test_link_serialization_timing():
    payload = b"z" * 5500
    net, sub, _ = line_network(chunked_producer(payload, delay_ms=3.8),
                               bandwidth=200.0)
    result = sub.get("ndn:/OGB-SYS/svc/blob")
    assert result.payload == payload
    # interest: 2 hops x 64 B; content: 2 hops x 5500 B at 200 Mbit/s,
    # plus the producer delay on segment 0.
    tx_interest = 2 * 64 * 8 / (200.0 * 1000.0)
    tx_content = 2 * 5500 * 8 / (200.0 * 1000.0)
    assert net.loop.now == pytest.approx(tx_interest + 3.8 + tx_content)


def test_the_delay_is_charged_with_segment_0_only():
    # The producer reports its delay on every call; the host charges it once.
    net, sub, producer = line_network(chunked_producer(b"y" * 20000, delay_ms=5.0))
    assert len(sub.get("ndn:/OGB-SYS/svc/blob").segments) == 3
    assert producer.counters["producerCalls"] == 3
    assert net.loop.now == pytest.approx(5.0)


def test_no_route_is_immediate():
    net = SimNetwork()
    consumer = net.add_node("consumer")
    sub = SimSubstrate(net, consumer)
    with pytest.raises(NoRouteError):
        sub.get("ndn:/OGB-SYS/nowhere/x")
    assert net.loop.now == 0.0
    assert consumer.counters["noRoute"] == 1


def test_retry_then_success():
    calls = []

    def flaky(interest, base):
        calls.append(interest.name)
        if len(calls) == 1:
            return None                        # hold the PIT, never answer
        return build_segments(base, b"ok", 0.0), 0.0

    net, sub, _ = line_network(flaky)
    result = sub.get("ndn:/OGB-SYS/svc/x", lifetime_ms=10.0)
    assert result.payload == b"ok"
    assert len(calls) == 2
    assert net.loop.now == pytest.approx(10.0)


def test_timeout_after_retry():
    net, sub, _ = line_network(lambda interest, base: None)
    with pytest.raises(TimeoutError_):
        sub.get("ndn:/OGB-SYS/svc/x", lifetime_ms=10.0)
    assert net.loop.now == pytest.approx(20.0)


def test_fetches_leave_no_cancelled_timeouts_behind():
    net, sub, _ = line_network(chunked_producer(b"answer", freshness_ms=0.0))
    for _ in range(500):
        assert sub.get("ndn:/OGB-SYS/svc/blob").payload == b"answer"
    assert net.loop.now < 4000.0          # no timeout has fallen due
    assert len(net.loop._heap) <= 1


def test_pit_hold_until_publish():
    held = []

    def subscription(interest, base):
        held.append(interest.name)
        return None

    net, sub, producer = line_network(subscription)
    future = sub.get_async("ndn:/OGB-SYS/svc/updates/7", lifetime_ms=None)
    net.loop.run_until_idle()
    assert not future.done
    content = build_segments("ndn:/OGB-SYS/svc/updates/7", b"event", 1000.0)[0]
    net.loop.schedule(50.0, producer.satisfy, content)
    assert net.loop.run_until(lambda: future.done)
    assert future.result().payload == b"event"
    assert net.loop.now == pytest.approx(50.0)


def test_announce_conflict():
    net = SimNetwork()
    net.add_node("a")
    net.add_node("b")
    net.add_node("c")
    net.connect("a", "b")
    net.connect("a", "c")
    net.announce("ndn:/OGB/10/10", "b")
    with pytest.raises(ConfigError):
        net.announce("ndn:/OGB/10/10", "c")


def test_announce_reaches_all_nodes():
    net = SimNetwork()
    for node_id in ("e1", "s1", "s2", "h"):
        net.add_node(node_id)
    net.connect("e1", "s1")
    net.connect("s1", "s2")
    net.connect("s2", "h")
    net.announce("ndn:/OGB/5/5", "e1")
    assert net.nodes["h"].fib.lookup("ndn:/OGB/5/5/55/GPS-ID/TILE/Foo/x") == "s2"
    assert net.nodes["s2"].fib.lookup("ndn:/OGB/5/5/GPS-ID") == "s1"
    assert net.nodes["s1"].fib.lookup("ndn:/OGB/5/5/GPS-ID") == "e1"


def answering(payload):
    def producer(interest, base):
        return build_segments(base, payload), 0.0
    return producer


class OnSimNode:
    """A host node that `attach` gives producers, with consumer nodes linked
    to it; `substrate` is the first consumer's."""

    def __init__(self, attach):
        self.net = SimNetwork()
        self.host = self.net.add_node("host", cache_capacity=64)
        attach(self.host)
        self._consumers = []
        self.substrate = self.consumer()

    def consumer(self):
        node = self.net.add_node("consumer-%d" % len(self._consumers))
        self.net.connect(node.id, "host")
        for prefix in self.host.producers.prefixes():
            self.net.announce(prefix, "host")
        self._consumers.append(node)
        return SimSubstrate(self.net, node)

    def face(self):
        """A face of the host's own, distinct from every other."""
        return (LOCAL, [].append)

    def waiting(self):
        """The names the consumers still wait on: their live PIT entries."""
        now = self.net.loop.now
        return [name for node in self._consumers
                for name, entry in node.pit._entries.items()
                if entry.expiry is None or now < entry.expiry]

    def ask(self, substrate, name, **kwargs):
        """Start fetching `name`; returns a call that waits for the result."""
        future = substrate.get_async(name, **kwargs)

        def result():
            self.until(lambda: future.done)
            return future.result()

        return result

    def until(self, predicate):
        assert self.net.loop.run_until(predicate)

    def close(self):
        pass


class _Face:
    def send(self, message):
        return True


class OnContentServer:
    """The same over a loopback ContentServer: each consumer is a client
    host with its own connection, and the names waited on are the live
    entries of the clients' PITs."""

    def __init__(self, attach):
        self.host = ContentServer(cache_capacity=64)
        attach(self.host)
        self.host.start()
        self._clients = []
        self.substrate = self.consumer()

    def consumer(self):
        self._clients.append(SocketSubstrate([self.host.address]))
        return self._clients[-1]

    def face(self):
        return _Face()

    def waiting(self):
        return [name for client in self._clients
                for name, entry in client.pit._entries.items()
                if entry.expiry is None or client.now_ms() < entry.expiry]

    def ask(self, substrate, name, **kwargs):
        future = Future()

        def run():
            try:
                future.resolve(substrate.get(name, **kwargs))
            except OgbError as exc:
                future.fail(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()

        def result():
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            return future.result()

        return result

    def until(self, predicate):
        limit = time.monotonic() + 5.0
        while not predicate():
            assert time.monotonic() < limit
            time.sleep(0.005)

    def close(self):
        for client in self._clients:
            client.close()
        self.host.stop()


@pytest.mark.parametrize("host", [OnSimNode, OnContentServer],
                         ids=["SimNode", "ContentServer"])
def test_hosts_pick_the_longest_attached_prefix(host):
    def attach(node):
        node.attach_producer("ndn:/svc", answering(b"short"))
        node.attach_producer("ndn:/svc/deep", answering(b"long"))
        with pytest.raises(ConfigError):
            node.attach_producer("ndn:/svc/deep", answering(b"again"))

    rig = host(attach)
    try:
        assert rig.substrate.get("ndn:/svc/deep/x").payload == b"long"
        assert rig.substrate.get("ndn:/svc/other").payload == b"short"
        assert rig.substrate.get("ndn:/svc/deeper").payload == b"short"   # by component
    finally:
        rig.close()


# -- the fetch contract, the same on both transports ----------------------------

@pytest.fixture(params=[OnSimNode, OnContentServer], ids=["sim", "socket"])
def host_of(request):
    """host_of(producer) -> a rig whose host serves ndn:/svc with `producer`."""
    rigs = []

    def build(producer):
        rigs.append(request.param(
            lambda host: host.attach_producer("ndn:/svc", producer)))
        return rigs[-1]

    yield build
    for rig in rigs:
        rig.close()


@pytest.fixture
def consumer_of(host_of):
    """consumer_of(producer) -> (substrate, waiting) with `producer` serving
    ndn:/svc on the other side of the transport."""
    def build(producer):
        rig = host_of(producer)
        return rig.substrate, rig.waiting

    return build


def recording(calls, body=lambda base: b"ok", held=(), freshness_ms=0.0):
    """Answers each segment of `body(base name)` and records every interest's
    name; holds (never answers) the calls whose 1-based ordinal is in
    `held`, and every call for a name under ndn:/svc/held."""
    def producer(interest, base):
        calls.append(interest.name)
        if len(calls) in held or base.text.startswith("ndn:/svc/held"):
            return None
        return build_segments(base, body(base), freshness_ms), 0.0
    return producer


def test_fetch_reassembles_segments(consumer_of):
    payload = bytes(range(256)) * 80          # 20480 bytes -> 3 segments
    calls = []
    substrate, waiting = consumer_of(recording(calls, lambda base: payload))
    result = substrate.get("ndn:/svc/blob")
    assert result.payload == payload
    assert len(result.segments) == 3
    assert len(calls) == 3
    assert waiting() == []


def test_fetch_retries_a_dropped_reply(consumer_of):
    calls = []
    payload = b"x" * 20000
    substrate, waiting = consumer_of(recording(calls, lambda base: payload,
                                               held={2}))
    result = substrate.get("ndn:/svc/blob", lifetime_ms=50.0)
    assert result.payload == payload
    assert calls.count("ndn:/svc/blob/seg=1") == 2       # dropped, then sent again
    assert len(calls) == 4
    assert waiting() == []


def test_fetch_gives_up_after_one_retry_by_default(consumer_of):
    calls = []
    substrate, waiting = consumer_of(recording(calls))
    with pytest.raises(TimeoutError_):
        substrate.get("ndn:/svc/held/x", lifetime_ms=20.0)
    assert calls == ["ndn:/svc/held/x/seg=0"] * 2
    assert waiting() == []


def test_fetch_fails_on_a_rejected_segment(consumer_of):
    def validator(content):
        raise ValidationError("integrity", "bad segment %s" % content.name)

    substrate, waiting = consumer_of(recording([]))
    with pytest.raises(ValidationError) as err:
        substrate.get("ndn:/svc/x", validator=validator)
    assert err.value.reason == "integrity"
    assert waiting() == []


def test_fetch_without_a_route_fails(consumer_of):
    substrate, waiting = consumer_of(recording([]))
    with pytest.raises(NoRouteError):
        substrate.get("ndn:/elsewhere/x")
    assert waiting() == []


def test_get_many_keeps_order_with_errors(consumer_of):
    def body(base):
        tail = base.components[-1]
        return b"big" * 9000 if tail == "big" else ("got %s" % tail).encode()

    substrate, waiting = consumer_of(recording([], body))
    names = ["ndn:/svc/item/%d" % i for i in range(9)]
    names[2:2] = ["ndn:/svc/big"]
    names[4:4] = ["ndn:/elsewhere/unroutable"]
    names[7:7] = ["ndn:/svc/held/y"]
    results = substrate.get_many([{"name": n, "lifetime_ms": 50.0} for n in names],
                                 window=3)
    assert len(results) == 12
    assert isinstance(results[4], NoRouteError)
    assert isinstance(results[7], TimeoutError_)
    assert results[2].payload == b"big" * 9000
    assert len(results[2].segments) == 4
    items = [r for i, r in enumerate(results) if i not in (2, 4, 7)]
    assert [r.payload for r in items] == [b"got %d" % i for i in range(9)]
    assert waiting() == []


@pytest.mark.parametrize("finals", [[-1], ["x"], [2, 0, 2], [2, 1, 2]],
                         ids=["negative", "not-an-int", "below-its-index", "changed"])
def test_a_bad_final_segment_index_fails_the_fetch(host_of, finals):
    def producer(interest, base):
        return [ContentObject(segment_name(base, i).text, b"x", final_segment=final)
                for i, final in enumerate(finals)], 0.0

    rig = host_of(producer)
    result = rig.ask(rig.substrate, "ndn:/svc/x", lifetime_ms=200.0)
    if isinstance(rig, OnContentServer) and finals in ([-1], ["x"]):
        # The wire refuses the frame, which drops the connection it came on.
        with pytest.raises(NoRouteError):
            result()
    else:
        with pytest.raises(ValidationError) as err:
            result()
        assert err.value.reason == "integrity"


# -- the host contract, the same on both transports -----------------------------

def test_a_cache_hit_skips_the_producer(host_of):
    calls = []
    rig = host_of(recording(calls, freshness_ms=60000.0))
    assert rig.substrate.get("ndn:/svc/blob").payload == b"ok"
    assert rig.substrate.get("ndn:/svc/blob").payload == b"ok"
    assert calls == ["ndn:/svc/blob/seg=0"]
    assert rig.host.counters["cacheHits"] == 1
    rig.host.clear_cache()
    rig.substrate.get("ndn:/svc/blob")
    assert len(calls) == 2


def test_two_consumers_of_one_name_cause_one_producer_call(host_of):
    calls = []
    rig = host_of(recording(calls))
    first = rig.ask(rig.substrate, "ndn:/svc/held/x", lifetime_ms=None)
    second = rig.ask(rig.consumer(), "ndn:/svc/held/x", lifetime_ms=None)
    rig.until(lambda: rig.host.counters["aggregated"] == 1)
    assert calls == ["ndn:/svc/held/x/seg=0"]
    content = build_segments("ndn:/svc/held/x", b"event")[0]
    assert rig.host.satisfy(content) == 2
    assert first().payload == second().payload == b"event"


def test_a_retransmission_from_the_same_face_reaches_the_producer(host_of):
    calls = []
    rig = host_of(recording(calls))
    interest = Interest("ndn:/svc/held/x/seg=0", lifetime_ms=60000.0)
    face, other = rig.face(), rig.face()
    rig.host.receive_interest(interest, face)
    rig.host.receive_interest(interest, other)
    rig.host.receive_interest(interest, face)        # long before it expires
    assert calls == [interest.name] * 2
    assert rig.host.counters["aggregated"] == 1
    content = build_segments("ndn:/svc/held/x", b"event")[0]
    assert rig.host.satisfy(content) == 2


def test_a_held_interest_is_answered_by_satisfy(host_of):
    calls = []
    rig = host_of(recording(calls))
    result = rig.ask(rig.substrate, "ndn:/svc/held/next", lifetime_ms=None)
    rig.until(lambda: len(calls) == 1)
    content = build_segments("ndn:/svc/held/next", b"later", 1000.0)[0]
    assert rig.host.satisfy(content) == 1
    assert result().payload == b"later"
    assert rig.waiting() == []


def test_content_pushed_to_nobody_is_not_cached(host_of):
    calls = []
    rig = host_of(recording(calls, freshness_ms=60000.0))
    early = build_segments("ndn:/svc/x", b"early", 60000.0)[0]
    assert rig.host.satisfy(early) == 0
    assert rig.host.counters["publishedUnconsumed"] == 1
    assert len(rig.host.cs) == 0
    assert rig.substrate.get("ndn:/svc/x").payload == b"ok"
    assert calls == ["ndn:/svc/x/seg=0"]


def test_the_host_answers_only_a_segment_the_object_has(host_of):
    calls = []
    rig = host_of(recording(calls))                 # one segment each
    face = rig.face()
    for name in ("ndn:/svc/x", "ndn:/svc/x/seg=zz", "ndn:/svc/x/seg=-1",
                 "ndn:/svc/x/seg=1"):
        rig.host.receive_interest(Interest(name, lifetime_ms=60000.0), face)
    assert calls == ["ndn:/svc/x/seg=1"]    # only a parsed index reaches it
    assert rig.host.counters["satisfied"] == 0
    assert len(rig.host.pit) == 4           # each is held, none raised


def test_pit_sweeps_expired_entries_but_keeps_subscriptions():
    net, sub, producer = line_network(lambda interest, base: None)
    subscription = sub.get_async("ndn:/OGB-SYS/svc/updates/1", lifetime_ms=None)
    results = sub.get_many([{"name": "ndn:/OGB-SYS/svc/x/%d" % i,
                             "lifetime_ms": 10.0} for i in range(200)])
    assert all(isinstance(r, TimeoutError_) for r in results)
    for node in net.nodes.values():
        assert 0 < len(node.pit) <= PIT_SWEEP_MIN
    content = build_segments("ndn:/OGB-SYS/svc/updates/1", b"event", 1000.0)[0]
    producer.satisfy(content)
    assert net.loop.run_until(lambda: subscription.done)
    assert subscription.result().payload == b"event"


@pytest.mark.parametrize("name", ["", "ndn:/", "ndn:", "OGB/12", "ndn:/OGB//12",
                                  "ndn:/OGB/12/", "ndn://OGB", "/ndn:/OGB"])
def test_fib_lookup_refuses_what_name_parsing_refuses(name):
    fib = Fib()
    fib.add("ndn:/OGB", "root")
    with pytest.raises(NameParseError):
        fib.lookup(name)
