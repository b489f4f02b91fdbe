"""Discrete-event simulation of a named-data network.

Virtual time is in milliseconds.  Links serialize transmissions per
direction at a configured bandwidth; producer and handler processing cost is
modeled explicitly (producers return a delay, consumers call
`EventLoop.advance`).  The whole network runs single-threaded, so runs are
deterministic for a fixed input sequence.  A `SimNode` is the shared
`core.Host` plus a FIB and links; `SimSubstrate` runs the shared consumer
(`core.fetch_many`) on the network's loop through a node's `express`.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Optional

from ..errors import ConfigError
from .core import (
    ContentObject,
    FetchResult,
    Fib,
    Future,
    GetOperation,
    Host,
    Interest,
    Pit,
    fetch,
    fetch_many,
)


class _Event:
    __slots__ = ("fn", "args", "loop")

    def __init__(self, fn, args, loop):
        self.fn = fn
        self.args = args
        self.loop = loop             # until it runs or is cancelled

    def cancel(self):
        """Drop the callback and what it holds; a no-op once it has run."""
        loop = self.loop
        if loop is not None:
            self.fn = self.args = self.loop = None
            loop._cancelled()


class EventLoop:
    """A heap-driven scheduler over virtual milliseconds.

    `advance` models synchronous processing time inside a handler: it pushes
    the clock forward without running events, so work scheduled meanwhile is
    delivered afterwards, exactly as if the handler had been busy.

    A cancelled event stays on the heap until it reaches the top or until
    cancelled events are more than half of the heap, which is then rebuilt
    without them; neither changes the order or the time of the rest.
    """

    def __init__(self):
        self.now = 0.0
        self._heap: list = []
        self._seq = 0
        self._ncancelled = 0

    def schedule(self, delay_ms: float, fn, *args) -> _Event:
        event = _Event(fn, args, self)
        self._seq += 1
        heapq.heappush(self._heap, (self.now + max(delay_ms, 0.0), self._seq, event))
        return event

    def _cancelled(self) -> None:
        self._ncancelled += 1
        if 2 * self._ncancelled > len(self._heap):
            self._heap = [entry for entry in self._heap if entry[2].fn is not None]
            heapq.heapify(self._heap)
            self._ncancelled = 0

    def advance(self, delay_ms: float) -> None:
        self.now += max(delay_ms, 0.0)

    def _step(self) -> None:
        when, _, event = heapq.heappop(self._heap)
        if event.fn is None:
            self._ncancelled -= 1
            return
        if when > self.now:
            self.now = when
        event.loop = None
        event.fn(*event.args)

    def run_until(self, predicate: Callable[[], bool]) -> bool:
        """Run events until the predicate holds; False if the heap drained."""
        while not predicate():
            if not self._heap:
                return False
            self._step()
        return True

    def run_until_idle(self, limit_ms: Optional[float] = None) -> None:
        while self._heap and (limit_ms is None or self._heap[0][0] <= limit_ms):
            self._step()

    def clear(self) -> None:
        """Drop every scheduled event."""
        for _, _, event in self._heap:
            event.loop = None
        self._heap.clear()
        self._ncancelled = 0


class SimLink:
    """One direction of a link; bandwidth None means unconstrained."""

    def __init__(self, loop: EventLoop, bandwidth_mbps: Optional[float],
                 latency_ms: float = 0.0):
        self.loop = loop
        self.bandwidth_mbps = bandwidth_mbps
        self.latency_ms = latency_ms
        self.next_free = 0.0
        self.bytes_sent = 0

    def transmit(self, nbytes: int, deliver, *args) -> None:
        start = max(self.loop.now, self.next_free)
        if self.bandwidth_mbps is None:
            tx = 0.0
        else:
            tx = nbytes * 8.0 / (self.bandwidth_mbps * 1000.0)
        self.next_free = start + tx
        self.bytes_sent += nbytes
        self.loop.schedule(self.next_free + self.latency_ms - self.loop.now,
                           deliver, *args)


LOCAL = "local"


class SimNode(Host):
    """A host that is also a forwarder, with a FIB and links to its peers.

    A name no attached producer serves goes one hop along the FIB; one with
    no route fails a local fetch at once.  A producer's delay is modeled
    processing time: its answer leaves that much later.  The whole network
    runs on the loop's one thread, so `dispatch_lock` locks nothing.
    """

    def __init__(self, network: "SimNetwork", node_id: str, cache_capacity: int = 0):
        super().__init__(cache_capacity)
        self.network = network
        self.id = node_id
        self.loop = network.loop
        self.fib = Fib()
        self.links: dict[str, SimLink] = {}

    def now_ms(self) -> float:
        return self.loop.now

    def express(self, interest: Interest, on_content) -> None:
        """Entry point for locally originated interests."""
        self.receive_interest(interest, (LOCAL, on_content))

    def _route(self, name: str, face):
        """The FIB's next hop; with none, a local fetch fails at once."""
        hop = self.fib.lookup(name)
        if hop is None and face[0] == LOCAL:
            self.loop.schedule(0, face[1], None)
        return hop

    def _forward(self, interest: Interest, hop: str) -> None:
        self.links[hop].transmit(interest.wire_size,
                                 self.network.nodes[hop].receive_interest,
                                 interest, ("node", self.id))

    def _answer(self, content: ContentObject, delay_ms: float) -> None:
        if delay_ms > 0:
            self.loop.schedule(delay_ms, super()._answer, content, 0.0)
        else:
            super()._answer(content, 0.0)

    def receive_content(self, content: ContentObject, face) -> None:
        self.counters["contentsIn"] += 1
        faces = self.pit.consume(content.name, upstream=face[1])
        if not faces:
            self.counters["unsolicited"] += 1
            return
        self.cs.put(content, self.loop.now)
        for f in faces:
            self._deliver(content, f)

    def _deliver(self, content: ContentObject, face) -> None:
        if face[0] == LOCAL:
            self.loop.schedule(0, face[1], content)
        else:
            hop = face[1]
            self.links[hop].transmit(content.wire_size,
                                     self.network.nodes[hop].receive_content,
                                     content, ("node", self.id))


class SimNetwork:
    """Nodes, links, and prefix announcements over one event loop."""

    def __init__(self):
        self.loop = EventLoop()
        self.nodes: dict[str, SimNode] = {}
        self._adjacency: dict[str, list[str]] = {}

    def add_node(self, node_id: str, cache_capacity: int = 0) -> SimNode:
        if node_id in self.nodes:
            raise ConfigError("duplicate node id %r" % node_id)
        node = SimNode(self, node_id, cache_capacity)
        self.nodes[node_id] = node
        self._adjacency[node_id] = []
        return node

    def connect(self, a: str, b: str, bandwidth_mbps: Optional[float] = None,
                latency_ms: float = 0.0,
                reverse_bandwidth_mbps: Optional[float] = None,
                ) -> None:
        """Create both directions of a link; `bandwidth_mbps` shapes a->b and
        the reverse direction uses `reverse_bandwidth_mbps` (default same)."""
        if a not in self.nodes or b not in self.nodes:
            raise ConfigError("connect() on unknown node: %r-%r" % (a, b))
        if b in self.nodes[a].links:
            raise ConfigError("duplicate link %r-%r" % (a, b))
        if reverse_bandwidth_mbps is None:
            reverse_bandwidth_mbps = bandwidth_mbps
        self.nodes[a].links[b] = SimLink(self.loop, bandwidth_mbps, latency_ms)
        self.nodes[b].links[a] = SimLink(self.loop, reverse_bandwidth_mbps, latency_ms)
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)

    def announce(self, prefix: str, origin_id: str) -> None:
        """Install FIB entries on every node pointing one hop toward origin."""
        if origin_id not in self.nodes:
            raise ConfigError("announce from unknown node %r" % origin_id)
        toward: dict[str, str] = {}
        queue = deque([origin_id])
        seen = {origin_id}
        while queue:
            current = queue.popleft()
            for neighbor in self._adjacency[current]:
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                toward[neighbor] = current
                queue.append(neighbor)
        for node_id, hop in toward.items():
            self.nodes[node_id].fib.add(prefix, hop)

    def close(self) -> None:
        """Drop every scheduled event and pending interest and unlink the
        nodes, whose callbacks and back-references would otherwise keep
        the network and everything they reach alive until a cyclic
        collection."""
        self.loop.clear()
        for node in self.nodes.values():
            node.pit = Pit()
        self.nodes.clear()
        self._adjacency.clear()


class SimSubstrate:
    """Consumer-side facade over one node of the simulated network."""

    def __init__(self, network: SimNetwork, node: SimNode):
        self.network = network
        self.node = node
        self.loop = network.loop

    def now_ms(self) -> float:
        return self.loop.now

    def advance(self, delay_ms: float) -> None:
        self.loop.advance(delay_ms)

    def get_async(self, name: str, **kwargs) -> Future:
        return GetOperation(self.node.express, None, self.loop, name,
                            **kwargs).start()

    def get(self, name: str, **kwargs) -> FetchResult:
        return fetch(self.node.express, None, self.loop, name, **kwargs)

    def get_many(self, requests: list[dict], window: int = 8) -> list:
        """Fetch several objects with at most `window` in flight; returns a
        FetchResult or an Exception per request, in order."""
        return fetch_many(self.node.express, None, self.loop, requests, window)
