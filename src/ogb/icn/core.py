"""Named-data primitives shared by the simulated and socket transports.

Interests pull content by name; a FIB routes them by longest component
prefix, a PIT aggregates outstanding requests and routes contents back, and
a content store caches fresh contents.  Large payloads travel as fixed-size
segments under `<name>/seg=<i>`; every segment carries the final segment
index so a consumer can pipeline the rest after segment 0.

Both ends are written once, here, for both transports.  `Host` answers
interests from its content store, PIT and producers, and forwards what no
producer serves; a transport adds its clock, faces and routes.  A
simulated node and a socket client forward; a socket server only
produces.  A producer is called
as `producer(interest, base)`, `base` being the name less its `seg=<i>`,
and returns every segment of that object with a modeled delay, or None to
hold the interest; the host answers the asked segment, or nothing for a
name with no valid index.  `GetOperation` fetches one object and
`fetch_many` keeps a window of them in flight; a transport supplies their
clock, as an `EventLoop`, and how an interest enters its host, as
`express`.  Each segment interest is retried once, each attempt waiting
its lifetime, on either transport.
"""

from __future__ import annotations

import contextlib
import heapq
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import (ConfigError, NameParseError, NoRouteError, TimeoutError_,
                      ValidationError)
from ..names import SCHEME, Name, segment_name, split_segment
from ..trust import TrustEnvelope

# Interests are small and fixed-cost on the wire; contents cost their payload.
INTEREST_OVERHEAD_BYTES = 64
DEFAULT_LIFETIME_MS = 4000.0
SEGMENT_SIZE = 8000
# A PIT sweeps its expired entries when it reaches this size, or twice its
# size after the last sweep if that is larger.
PIT_SWEEP_MIN = 64


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
    """A heap-driven scheduler over virtual milliseconds; a socket call
    runs one on the wall clock.

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
        """The next hop of the longest route prefixing `name`; a name that
        `Name.from_text` refuses raises its NameParseError."""
        comps = tuple(name[len(SCHEME):].split("/")) if name.startswith(SCHEME) else ()
        if not comps or "" in comps:
            Name.from_text(name)                 # raises its refusal
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
    upstream: set = field(default_factory=set)    # faces it went out on


class Pit:
    """Pending-interest table keyed by exact name text.

    `add` returns True when the interest must go on (a new entry, an expired
    one renewed, or a retransmission: a face sending again a name it waits
    on, which renews the entry too) and False when it joined a live entry.

    An expired entry stays until it is renewed or consumed, or until `add`
    sweeps: once the table has doubled since the last sweep, adding a new
    name drops every expired entry first.  Entries without an expiry (held
    subscriptions) are never swept.  Nothing is scheduled per interest.
    """

    def __init__(self):
        self._entries: dict[str, PitEntry] = {}
        self._sweep_at = PIT_SWEEP_MIN

    def add(self, name: str, face, expiry: Optional[float], now: float) -> bool:
        entry = self._entries.get(name)
        if entry is None:
            if len(self._entries) >= self._sweep_at:
                self._entries = {key: e for key, e in self._entries.items()
                                 if e.expiry is None or now < e.expiry}
                self._sweep_at = max(PIT_SWEEP_MIN, 2 * len(self._entries))
            self._entries[name] = PitEntry([face], expiry)
            return True
        if face not in entry.faces:
            entry.faces.append(face)
            if entry.expiry is None or now < entry.expiry:
                return False
        entry.expiry = expiry
        return True

    def forwarded(self, name: str, face) -> bool:
        """Record a face the interest went out on; False if it is gone."""
        entry = self._entries.get(name)
        if entry is None:
            return False
        entry.upstream.add(face)
        return True

    def consume(self, name: str, upstream=None) -> list:
        """Remove the entry and return its faces.  Given the face a content
        came in on, only when the interest went out there: content from any
        other face is unsolicited, so it neither satisfies nor is cached."""
        entry = self._entries.get(name)
        if entry is None or (upstream is not None and upstream not in entry.upstream):
            return []
        del self._entries[name]
        return entry.faces

    def consume_upstream(self, face) -> list:
        """Remove every entry that went out on `face`; returns their faces."""
        names = [name for name, entry in self._entries.items()
                 if face in entry.upstream]
        return [f for name in names for f in self._entries.pop(name).faces]

    def drop_face(self, face) -> None:
        """Remove `face` from every entry, and each entry it leaves empty."""
        for name, entry in list(self._entries.items()):
            if face in entry.faces:
                entry.faces.remove(face)
                if not entry.faces:
                    del self._entries[name]

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


class Host:
    """Answers interests on either transport: `receive_interest` tries the
    content store, then the PIT, then the producer under the longest
    matching prefix.  The asked segment of what it returns is cached and
    answers every waiting face, and its delay is charged with segment 0
    only; with no segment, the entry is held for `satisfy`.  A transport
    adds `now_ms` and `_deliver(content, face)`, and may change what a delay
    means (`_answer`) and where an unserved name goes (`_route`, and
    `_forward`, which records the face it sends on with `Pit.forwarded`).
    State and producers need `dispatch_lock`; `_forward` runs after it is
    released, so it may block on I/O.
    """

    def __init__(self, cache_capacity: int = 0):
        self.cs = ContentStore(cache_capacity)
        self.pit = Pit()
        self.producers = Fib()
        self.counters: Counter = Counter()
        self.dispatch_lock = contextlib.nullcontext()

    def _route(self, name: str, face):
        return None

    def attach_producer(self, prefix: str, handler: Callable) -> None:
        self.producers.add(prefix, handler)

    def clear_cache(self) -> None:
        with self.dispatch_lock:
            self.cs.clear()

    def receive_interest(self, interest: Interest, face) -> None:
        name = interest.name
        with self.dispatch_lock:
            self.counters["interestsIn"] += 1
            now = self.now_ms()
            cached = self.cs.get(name, now)
            if cached is not None:
                self.counters["cacheHits"] += 1
                self._deliver(cached, face)
                return
            producer = self.producers.lookup(name) if self.producers else None
            hop = None if producer is not None else self._route(name, face)
            if producer is None and hop is None:
                self.counters["noRoute"] += 1
                return
            expiry = None if interest.lifetime_ms is None else now + interest.lifetime_ms
            if not self.pit.add(name, face, expiry, now):
                self.counters["aggregated"] += 1
                return
            if producer is not None:
                self.counters["producerCalls"] += 1
                try:
                    base, index = split_segment(Name.from_text(name))
                except NameParseError:
                    return
                result = producer(interest, base) if index is not None else None
                if result is not None and index < len(result[0]):
                    segments, delay_ms = result
                    self._answer(segments[index], delay_ms if index == 0 else 0.0)
                return
            self.counters["forwarded"] += 1
        self._forward(interest, hop)

    def receive_content(self, content: ContentObject, face) -> None:
        """A content that came in on `face`: it answers the faces waiting
        on its name, and is cached, only if the interest went out there."""
        with self.dispatch_lock:
            self.counters["contentsIn"] += 1
            faces = self.pit.consume(content.name, upstream=face)
            if not faces:
                self.counters["unsolicited"] += 1
                return
            self.cs.put(content, self.now_ms())
            for f in faces:
                self._deliver(content, f)

    def _answer(self, content: ContentObject, delay_ms: float) -> None:
        self.cs.put(content, self.now_ms())
        self.satisfy(content)

    def satisfy(self, content: ContentObject) -> int:
        """Answer the faces waiting on this exact name; returns how many.  Not
        cached: a forgery pushed here would answer every later subscriber."""
        with self.dispatch_lock:
            faces = self.pit.consume(content.name)
            self.counters["satisfied" if faces else "publishedUnconsumed"] += 1
            for face in faces:
                self._deliver(content, face)
            return len(faces)


class Future:
    """Single-assignment result used by asynchronous fetches."""

    def __init__(self):
        self.done = False
        self.value = None
        self.error: Optional[Exception] = None
        self._callbacks: list = []

    def resolve(self, value) -> None:
        self._settle(value, None)

    def fail(self, error: Exception) -> None:
        self._settle(None, error)

    def _settle(self, value, error: Optional[Exception]) -> None:
        if self.done:
            return
        self.done = True
        self.value, self.error = value, error
        # Each runs once, so a settled future keeps none of them alive.
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def add_done_callback(self, fn) -> None:
        if self.done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def result(self):
        if not self.done:
            raise RuntimeError("future is not resolved")
        if self.error is not None:
            raise self.error
        return self.value


class GetOperation:
    """Fetch one named object: segment 0 first, then the rest pipelined.

    `express(interest, on_content)` hands an interest to the host; its
    reply, or None when the interest found no route, comes back as
    `on_content(content)` run by `loop`.

    Each segment interest may be individually signed (`sign` maps a name to
    an envelope); `validator` runs on every arriving segment and a raised
    ValidationError fails the whole fetch.  One retry per segment, then
    timeout.  The `on_content` every segment interest leaves behind is the
    bound method `_on_content`, equal across retries, so the operation holds
    no reference to itself and is freed with the last PIT entry or event
    holding it.  Each segment must carry the same final segment index, an
    int no less than its own index, unless a segment before it did.
    """

    def __init__(self, express: Callable, loop, name: str, payload: bytes = b"",
                 sign: Optional[Callable] = None,
                 validator: Optional[Callable[[ContentObject], None]] = None,
                 lifetime_ms: Optional[float] = DEFAULT_LIFETIME_MS,
                 retries: int = 1):
        self.express = express
        self.loop = loop
        self.base = Name.from_text(name)
        self.name = name
        self.payload = payload
        self.sign = sign
        self.validator = validator
        self.lifetime_ms = lifetime_ms
        self.future = Future()
        self._segments: dict[int, ContentObject] = {}
        self._final: Optional[int] = None
        self._retries_left: dict[int, int] = {}  # of each requested index
        self._retries = retries
        self._timeouts: dict = {}                 # index -> timeout event
        self._index_of: dict[str, int] = {}      # segment name -> index

    def start(self) -> Future:
        self._request(0)
        return self.future

    def _request(self, index: int) -> None:
        self._retries_left.setdefault(index, self._retries)
        seg = segment_name(self.base, index).text
        payload = self.payload if index == 0 else b""
        envelope = self.sign(seg, payload) if self.sign else None
        self._index_of[seg] = index
        self.express(Interest(seg, payload, envelope, self.lifetime_ms),
                     self._on_content)
        # Timed after the host's PIT entry, so that has expired when it runs.
        if self.lifetime_ms is not None:
            self._timeouts[index] = self.loop.schedule(
                self.lifetime_ms, self._on_timeout, index)

    def _on_timeout(self, index: int) -> None:
        if self.future.done or index in self._segments:
            return
        if self._retries_left.get(index, 0) > 0:
            self._retries_left[index] -= 1
            self._request(index)
            return
        self._abort(TimeoutError_("timed out fetching %s segment %d"
                                  % (self.name, index)))

    def _on_content(self, content: Optional[ContentObject]) -> None:
        """A segment arrived, or None: an interest found no route."""
        if self.future.done:
            return
        if content is None:
            self._abort(NoRouteError("no route for %s" % self.name))
            return
        index = self._index_of[content.name]
        if index in self._segments:
            return
        timeout = self._timeouts.pop(index, None)
        if timeout is not None:
            timeout.cancel()
        if self.validator is not None:
            try:
                self.validator(content)
            except ValidationError as exc:
                self._abort(exc)
                return
        final = content.final_segment
        if final is None:
            final = self._final
        if type(final) is not int or final < index or self._final not in (None, final):
            self._abort(ValidationError(
                "integrity", "segment %d of %s has final segment index %r"
                % (index, self.name, content.final_segment)))
            return
        self._final = final
        self._segments[index] = content
        for i in range(self._final + 1):
            if i not in self._retries_left:
                self._request(i)
        if len(self._segments) == self._final + 1:
            ordered = [self._segments[i] for i in range(self._final + 1)]
            payload = b"".join(c.payload for c in ordered)
            self.future.resolve(FetchResult(self.name, payload, ordered))

    def _abort(self, error: Exception) -> None:
        for timeout in self._timeouts.values():
            timeout.cancel()
        self._timeouts.clear()
        self.future.fail(error)


def fetch_many(express: Callable, loop, requests: list[dict], window: int) -> list:
    """Fetch several objects with at most `window` in flight; returns a
    FetchResult or an Exception per request, in order.  Each request is the
    keyword arguments of one `GetOperation`."""
    results: list = [None] * len(requests)
    state = {"next": 0, "pending": 0}
    window = max(1, window)

    def launch() -> None:
        while state["next"] < len(requests) and state["pending"] < window:
            idx = state["next"]
            state["next"] += 1
            state["pending"] += 1
            future = GetOperation(express, loop, **requests[idx]).start()

            def finish(fut, _idx=idx):
                results[_idx] = fut.error if fut.error is not None else fut.value
                state["pending"] -= 1
                launch()

            future.add_done_callback(finish)

    launch()
    done = lambda: state["pending"] == 0 and state["next"] == len(requests)
    if not loop.run_until(done):
        raise TimeoutError_("network went idle during a fetch")
    launch = None        # it refers to itself through `finish`: end the cycle
    return results


def fetch(express: Callable, loop, name: str, **kwargs) -> FetchResult:
    """Fetch one object; raises the error that failed it."""
    future = GetOperation(express, loop, name, **kwargs).start()
    if not loop.run_until(lambda: future.done):
        raise TimeoutError_("network went idle while fetching %s" % name)
    if future.error is None:
        return future.value
    error, future = future.error, None
    try:
        raise error
    finally:
        error = None    # else error -> traceback -> frame -> error
