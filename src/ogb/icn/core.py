"""Named-data primitives shared by the simulated and socket transports.

Interests pull content by name; a FIB routes them by longest component
prefix, a PIT aggregates outstanding requests and routes contents back, and
a content store caches fresh contents.  Large payloads travel as fixed-size
segments under `<name>/seg=<i>`; every segment carries the final segment
index so a consumer can pipeline the rest after segment 0.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConfigError
from ..names import Name, segment_name
from ..trust import TrustEnvelope

# Interests are small and fixed-cost on the wire; contents cost their payload.
INTEREST_OVERHEAD_BYTES = 64
DEFAULT_LIFETIME_MS = 4000.0
SEGMENT_SIZE = 8000


def segment_payloads(payload: bytes) -> list[bytes]:
    """Split a payload into segment chunks (always at least one)."""
    if not payload:
        return [b""]
    return [payload[i:i + SEGMENT_SIZE] for i in range(0, len(payload), SEGMENT_SIZE)]


@dataclass(frozen=True)
class Interest:
    """A request for the content named `name`.

    The optional payload carries signed request parameters; the envelope
    binds (name, payload) to the requesting identity.
    """

    name: str
    payload: bytes = b""
    envelope: Optional[TrustEnvelope] = None
    lifetime_ms: Optional[float] = DEFAULT_LIFETIME_MS

    @property
    def wire_size(self) -> int:
        return INTEREST_OVERHEAD_BYTES + len(self.payload)


@dataclass(frozen=True)
class ContentObject:
    """A named, signed unit of data; freshness 0 means never cache."""

    name: str
    payload: bytes
    freshness_ms: float = 0.0
    envelope: Optional[TrustEnvelope] = None
    final_segment: Optional[int] = None

    @property
    def wire_size(self) -> int:
        return len(self.payload)


@dataclass
class FetchResult:
    """A reassembled object: concatenated payload plus its segments."""

    name: str
    payload: bytes
    segments: list[ContentObject]


def build_segments(base, payload: bytes, freshness_ms: float = 0.0,
                   sign=None) -> list[ContentObject]:
    """Segment a payload under `<base>/seg=<i>`, optionally signing each
    segment; `sign` maps (name_text, chunk) to a TrustEnvelope."""
    base = base if isinstance(base, Name) else Name.from_text(base)
    chunks = segment_payloads(payload)
    final = len(chunks) - 1
    contents = []
    for i, chunk in enumerate(chunks):
        name = segment_name(base, i).text
        envelope = sign(name, chunk) if sign else None
        contents.append(ContentObject(name, chunk, freshness_ms, envelope, final))
    return contents


class Fib:
    """Longest-component-prefix forwarding table.  A lookup probes only the
    prefix lengths that some route has, longest first."""

    def __init__(self):
        self._routes: dict[tuple[str, ...], object] = {}
        self._lengths: list[int] = []        # of the routes, longest first

    def add(self, prefix: str, next_hop) -> None:
        key = Name.from_text(prefix).components
        existing = self._routes.get(key)
        if existing is not None and existing != next_hop:
            raise ConfigError("conflicting routes for %s: %r vs %r"
                              % (prefix, existing, next_hop))
        self._routes[key] = next_hop
        if len(key) not in self._lengths:
            self._lengths.append(len(key))
            self._lengths.sort(reverse=True)

    def lookup(self, name: str):
        comps = Name.from_text(name).components
        for length in self._lengths:
            if length <= len(comps):
                hop = self._routes.get(comps[:length])
                if hop is not None:
                    return hop
        return None

    def prefixes(self) -> list[str]:
        return [Name(k).text for k in self._routes]

    def __len__(self):
        return len(self._routes)


@dataclass
class PitEntry:
    faces: list
    expiry: Optional[float]
    upstream: set = field(default_factory=set)    # hops it was forwarded to


class Pit:
    """Pending-interest table keyed by exact name text.

    `add` returns True when the interest must be forwarded (new entry, or an
    expired one being renewed) and False when it was aggregated onto an
    in-flight request.
    """

    def __init__(self):
        self._entries: dict[str, PitEntry] = {}

    def add(self, name: str, face, expiry: Optional[float], now: float) -> bool:
        entry = self._entries.get(name)
        if entry is None:
            self._entries[name] = PitEntry([face], expiry)
            return True
        if face not in entry.faces:
            entry.faces.append(face)
        if entry.expiry is not None and now >= entry.expiry:
            entry.expiry = expiry
            return True
        return False

    def forwarded(self, name: str, hop) -> None:
        self._entries[name].upstream.add(hop)

    def consume(self, name: str, upstream=None) -> list:
        """Remove the entry and return its faces.  Given the hop a content
        came from, only when the interest was forwarded there: content from
        any other hop is unsolicited, so it neither satisfies nor is cached."""
        entry = self._entries.get(name)
        if entry is None or (upstream is not None and upstream not in entry.upstream):
            return []
        del self._entries[name]
        return entry.faces

    def pending(self, name: str) -> bool:
        return name in self._entries

    def __len__(self):
        return len(self._entries)


class ContentStore:
    """LRU cache of fresh contents; capacity 0 disables it."""

    def __init__(self, capacity: int = 0):
        self.capacity = capacity
        self._items: OrderedDict[str, tuple[ContentObject, float]] = OrderedDict()

    def get(self, name: str, now: float) -> Optional[ContentObject]:
        hit = self._items.get(name)
        if hit is None:
            return None
        content, stored = hit
        if now - stored >= content.freshness_ms:
            del self._items[name]
            return None
        self._items.move_to_end(name)
        return content

    def put(self, content: ContentObject, now: float) -> None:
        if self.capacity <= 0 or content.freshness_ms <= 0:
            return
        self._items[content.name] = (content, now)
        self._items.move_to_end(content.name)
        while len(self._items) > self.capacity:
            self._items.popitem(last=False)

    def clear(self) -> None:
        self._items.clear()

    def __len__(self):
        return len(self._items)
