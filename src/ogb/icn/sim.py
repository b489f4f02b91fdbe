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

from collections import deque
from typing import Optional

from ..errors import ConfigError
from .core import (
    ContentObject,
    EventLoop,
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


class SimLink:
    """One direction of a link; bandwidth None means unconstrained."""

    def __init__(self, loop: EventLoop, bandwidth_mbps: Optional[float]):
        self.loop = loop
        self.bandwidth_mbps = bandwidth_mbps
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
        self.loop.schedule(self.next_free - self.loop.now, deliver, *args)


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
        self.pit.forwarded(interest.name, ("node", hop))
        self.links[hop].transmit(interest.wire_size,
                                 self.network.nodes[hop].receive_interest,
                                 interest, ("node", self.id))

    def _answer(self, content: ContentObject, delay_ms: float) -> None:
        if delay_ms > 0:
            self.loop.schedule(delay_ms, super()._answer, content, 0.0)
        else:
            super()._answer(content, 0.0)

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

    def connect(self, a: str, b: str, bandwidth_mbps: Optional[float] = None) -> None:
        """Create both directions of a link, each shaped by `bandwidth_mbps`."""
        if a not in self.nodes or b not in self.nodes:
            raise ConfigError("connect() on unknown node: %r-%r" % (a, b))
        if b in self.nodes[a].links:
            raise ConfigError("duplicate link %r-%r" % (a, b))
        self.nodes[a].links[b] = SimLink(self.loop, bandwidth_mbps)
        self.nodes[b].links[a] = SimLink(self.loop, bandwidth_mbps)
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
        return GetOperation(self.node.express, self.loop, name, **kwargs).start()

    def get(self, name: str, **kwargs) -> FetchResult:
        return fetch(self.node.express, self.loop, name, **kwargs)

    def get_many(self, requests: list[dict], window: int = 8) -> list:
        """Fetch several objects with at most `window` in flight; returns a
        FetchResult or an Exception per request, in order."""
        return fetch_many(self.node.express, self.loop, requests, window)
