"""TCP transport: threaded content servers and a client substrate.

A ContentServer keeps its producers in a longest-prefix `Fib`, announces
their prefixes to every client on connect, and answers interests from its
content store or producers.  A producer may hold an interest; `satisfy`
pushes the reply later, as on a simulated node (solicited only: a pending
interest must exist).  Producers run one at a time under the server's
dispatch lock, because engine handlers are not thread-safe.  The delay a
producer returns is the simulator's modeled processing time; it is not
slept here.

The SocketSubstrate mirrors the simulated substrate's surface (get,
get_many, now_ms) so the frontend runs unchanged over real sockets.  It
keeps one connection per server, whose reader thread routes each reply by
name to the fetch waiting on it.  A fetch asks for segment 0, then for
segments 1..final at once.  `get_many` keeps up to `window` fetches in
flight from the calling thread, and sends a segment's interest again when
no reply comes within its lifetime, doubling the lifetime on each of
SOCKET_RETRIES attempts.

Every connection sets TCP_NODELAY: pipelined interests and back-to-back
replies would otherwise wait for the peer's delayed ACK (Nagle's
algorithm).  `stop` and `close` shut sockets down before closing them,
which wakes the threads blocked on them, so nothing keeps running after.
"""

from __future__ import annotations

import logging
import queue
import random
import socket
import threading
import time
from collections import deque
from typing import Callable, Optional

from ..errors import (NoRouteError, ProtocolError, TimeoutError_,
                      ValidationError)
from ..names import Name, segment_name
from . import wire
from .core import (DEFAULT_LIFETIME_MS, ContentObject, ContentStore,
                   FetchResult, Fib, Interest)

log = logging.getLogger(__name__)

SOCKET_RETRIES = 3
CONNECT_TIMEOUT_S = 5.0


def _now_ms() -> float:
    return time.monotonic() * 1000.0


def _no_delay(sock) -> None:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _shut(sock) -> None:
    """Close `sock`, first waking any thread blocked on it in accept() or
    recv(); close() alone does not wake them on Linux."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class _ServedConn:
    def __init__(self, sock):
        self.sock = sock
        self.write_lock = threading.Lock()

    def send(self, message: dict) -> bool:
        try:
            with self.write_lock:
                wire.write_frame(self.sock, message)
            return True
        except OSError:
            return False


class ContentServer:
    """One listener hosting producers behind announced prefixes.

    Producers run only under `dispatch_lock`; hold it to touch a producer's
    state from another thread.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 cache_capacity: int = 0):
        self.host = host or "127.0.0.1"
        self.port = port
        self.cs = ContentStore(cache_capacity)
        self.producers = Fib()
        self.dispatch_lock = threading.Lock()
        self._state = threading.Lock()
        self._pending: dict[str, set[_ServedConn]] = {}
        self._conns: set[_ServedConn] = set()
        self._listener: Optional[socket.socket] = None
        self._closing = False

    def attach_producer(self, prefix: str, handler: Callable) -> None:
        self.producers.add(prefix, handler)

    def start(self) -> None:
        if not len(self.producers):
            raise ProtocolError("a content server needs at least one producer")
        listener = socket.create_server((self.host, self.port))
        self.port = listener.getsockname()[1]
        self._listener = listener
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def stop(self) -> None:
        self._closing = True
        if self._listener is not None:
            _shut(self._listener)
        with self._state:
            conns = list(self._conns)
            self._conns.clear()
            self._pending.clear()
        for conn in conns:
            _shut(conn.sock)

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def clear_cache(self) -> None:
        with self._state:
            self.cs.clear()

    def satisfy(self, content: ContentObject) -> int:
        """Satisfy any interests held open for this exact name; returns how
        many connections were waiting."""
        with self._state:
            waiting = self._pending.pop(content.name, set())
        message = wire.content_message(content)
        for conn in waiting:
            conn.send(message)
        return len(waiting)

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(sock,),
                             daemon=True).start()

    def _serve(self, sock) -> None:
        _no_delay(sock)
        conn = _ServedConn(sock)
        with self._state:
            closing = self._closing     # else `stop` will shut this one
            if not closing:
                self._conns.add(conn)
        if closing:
            _shut(sock)
            return
        try:
            prefixes = self.producers.prefixes()
            for index, prefix in enumerate(prefixes):
                last = index == len(prefixes) - 1
                if not conn.send(wire.announce_message(prefix, last)):
                    return
            while True:
                message = wire.read_frame(sock)
                if message is None:
                    return
                if message["type"] == wire.TYPE_INTEREST:
                    self._handle(conn, wire.parse_interest(message))
        except (ProtocolError, OSError) as exc:
            if not self._closing:
                log.debug("connection dropped: %s", exc)
        finally:
            with self._state:
                self._conns.discard(conn)
                for waiting in self._pending.values():
                    waiting.discard(conn)
            try:
                sock.close()
            except OSError:
                pass

    def _handle(self, conn: _ServedConn, interest: Interest) -> None:
        with self._state:
            cached = self.cs.get(interest.name, _now_ms())
        if cached is not None:
            conn.send(wire.content_message(cached))
            return
        handler = self.producers.lookup(interest.name)
        if handler is None:
            return
        with self.dispatch_lock:
            result = handler(interest)
            if result is None:
                with self._state:
                    self._pending.setdefault(interest.name, set()).add(conn)
                return
            content = result[0]
            with self._state:
                self.cs.put(content, _now_ms())
        conn.send(wire.content_message(content))


class _Peer:
    def __init__(self, sock, address):
        self.sock = sock
        self.address = address
        self.write_lock = threading.Lock()
        self.state = threading.Lock()
        self.waiters: dict[str, list[queue.Queue]] = {}
        self.closed = False

    def add_waiter(self, name: str, waiter: queue.Queue) -> None:
        with self.state:
            if self.closed:
                raise NoRouteError("connection to %s:%d is closed" % self.address)
            self.waiters.setdefault(name, []).append(waiter)

    def drop_waiter(self, name: str, waiter: queue.Queue) -> None:
        with self.state:
            pending = self.waiters.get(name, [])
            if waiter in pending:
                pending.remove(waiter)
            if not pending:
                self.waiters.pop(name, None)

    def satisfy(self, name: str, value) -> None:
        with self.state:
            pending = self.waiters.pop(name, [])
        for waiter in pending:
            waiter.put(value)

    def close(self) -> None:
        with self.state:
            if self.closed:
                return
            self.closed = True
            pending = list(self.waiters.values())
            self.waiters.clear()
        error = NoRouteError("connection to %s:%d is closed" % self.address)
        for waiters in pending:
            for waiter in waiters:
                waiter.put(error)
        _shut(self.sock)


class _Segment:
    """One segment interest of a fetch, and the waiter its reply goes to."""

    def __init__(self, fetch: "_Fetch", index: int):
        self.fetch = fetch
        self.index = index
        self.text = segment_name(fetch.base, index).text
        payload = fetch.payload if index == 0 else b""
        envelope = fetch.sign(self.text, payload) if fetch.sign else None
        self.interest = Interest(self.text, payload, envelope, fetch.lifetime_ms)
        self.attempt = 0
        self.deadline: Optional[float] = None

    def put(self, value) -> None:
        """Takes the reply, or the error that closed the connection."""
        self.fetch.events.put((self, value))


class _Fetch:
    """One named object in flight: segment 0, then segments 1..final at once.
    `result` is set, to a FetchResult or an Exception, once it is over."""

    def __init__(self, slot: int, peer: _Peer, events: queue.Queue, send,
                 name: str, payload: bytes = b"", sign=None, validator=None,
                 lifetime_ms: Optional[float] = DEFAULT_LIFETIME_MS,
                 retries: int = SOCKET_RETRIES):
        self.slot = slot
        self.peer = peer
        self.events = events
        self.send = send
        self.name = name
        self.base = Name.from_text(name)
        self.payload = payload
        self.sign = sign
        self.validator = validator
        self.lifetime_ms = lifetime_ms
        self.retries = retries
        self.segments: dict[int, ContentObject] = {}
        self.waiting: dict[int, _Segment] = {}
        self.final: Optional[int] = None
        self.result = None
        self.request(_Segment(self, 0))

    def request(self, seg: _Segment) -> None:
        self.waiting[seg.index] = seg
        try:
            self.peer.add_waiter(seg.text, seg)
        except NoRouteError as exc:
            self.finish(exc)
            return
        if not self.send(self.peer, seg.interest):
            self.finish(NoRouteError("connection to %s:%d is closed"
                                     % self.peer.address))
            return
        if self.lifetime_ms is not None:
            seg.deadline = (time.monotonic()
                            + self.lifetime_ms / 1000.0 * 2 ** seg.attempt)

    def on_timeout(self, seg: _Segment) -> None:
        self.peer.drop_waiter(seg.text, seg)
        if seg.attempt >= self.retries:
            self.finish(TimeoutError_("timed out fetching %s after %d attempts"
                                      % (seg.text, self.retries + 1)))
            return
        seg.attempt += 1
        self.request(seg)

    def on_reply(self, seg: _Segment, value) -> None:
        if self.result is not None or self.waiting.get(seg.index) is not seg:
            return                      # late: the fetch or segment is over
        del self.waiting[seg.index]
        self.peer.drop_waiter(seg.text, seg)    # a retry's, if still held
        if isinstance(value, Exception):
            self.finish(value)
            return
        try:
            if self.validator is not None:
                self.validator(value)
        except Exception as exc:
            self.finish(exc)
            return
        if value.final_segment is not None:
            self.final = value.final_segment
        if self.final is None:
            self.finish(ValidationError(
                "integrity", "segment %d of %s lacks a final segment index"
                % (seg.index, self.name)))
            return
        self.segments[seg.index] = value
        for index in range(self.final + 1):
            if index not in self.segments and index not in self.waiting:
                self.request(_Segment(self, index))
                if self.result is not None:
                    return
        if not self.waiting:
            ordered = [self.segments[i] for i in range(self.final + 1)]
            self.finish(FetchResult(self.name,
                                    b"".join(c.payload for c in ordered),
                                    ordered))

    def finish(self, result) -> None:
        self.result = result
        for seg in self.waiting.values():
            self.peer.drop_waiter(seg.text, seg)
        self.waiting.clear()


class SocketSubstrate:
    """Consumer endpoint over TCP, one connection per configured server."""

    def __init__(self, peers: list[tuple[str, int]],
                 connect_timeout_s: float = CONNECT_TIMEOUT_S):
        self.fib = Fib()
        self._peers: list[_Peer] = []
        self._rng = random.Random()
        for address in peers:
            self._connect(tuple(address), connect_timeout_s)

    def _connect(self, address: tuple[str, int], timeout_s: float) -> None:
        sock = socket.create_connection(address, timeout=timeout_s)
        _no_delay(sock)
        peer = _Peer(sock, address)
        while True:
            message = wire.read_frame(sock)
            if message is None:
                raise ProtocolError("%s:%d closed during the announce "
                                    "handshake" % address)
            if message["type"] != wire.TYPE_ANNOUNCE:
                raise ProtocolError("expected an announce from %s:%d, got %r"
                                    % (address + (message["type"],)))
            self.fib.add(message["name"], peer)
            if message.get("last"):
                break
        sock.settimeout(None)
        self._peers.append(peer)
        threading.Thread(target=self._read_loop, args=(peer,),
                         daemon=True).start()

    def _read_loop(self, peer: _Peer) -> None:
        try:
            while True:
                message = wire.read_frame(peer.sock)
                if message is None:
                    return
                if message["type"] == wire.TYPE_CONTENT:
                    content = wire.parse_content(message)
                    peer.satisfy(content.name, content)
                elif message["type"] == wire.TYPE_ANNOUNCE:
                    self.fib.add(message["name"], peer)
        except (ProtocolError, OSError):
            pass
        finally:
            peer.close()

    def close(self) -> None:
        for peer in self._peers:
            peer.close()

    def now_ms(self) -> float:
        return _now_ms()

    def _send(self, peer: _Peer, interest: Interest) -> bool:
        message = wire.interest_message(interest, self._rng.getrandbits(63))
        try:
            with peer.write_lock:
                wire.write_frame(peer.sock, message)
            return True
        except OSError:
            return False

    def _begin(self, slot: int, request: dict, events: queue.Queue) -> _Fetch:
        peer = self.fib.lookup(request["name"])
        if peer is None:
            raise NoRouteError("no route for %s" % request["name"])
        return _Fetch(slot, peer, events, self._send, **request)

    def _fetch_all(self, requests: list[dict], window: int) -> list:
        results: list = [None] * len(requests)
        events: queue.Queue = queue.Queue()
        todo = deque(enumerate(requests))
        active: list[_Fetch] = []
        try:
            while todo or active:
                while todo and len(active) < window:
                    slot, request = todo.popleft()
                    try:
                        active.append(self._begin(slot, request, events))
                    except Exception as exc:
                        results[slot] = exc
                for fetch in active:
                    if fetch.result is not None:
                        results[fetch.slot] = fetch.result
                active = [f for f in active if f.result is None]
                if not active:
                    continue
                deadlines = [seg.deadline for fetch in active
                             for seg in fetch.waiting.values()
                             if seg.deadline is not None]
                timeout = (max(0.0, min(deadlines) - time.monotonic())
                           if deadlines else None)
                try:
                    seg, value = events.get(timeout=timeout)
                except queue.Empty:
                    pass
                else:
                    seg.fetch.on_reply(seg, value)
                now = time.monotonic()
                for fetch in active:
                    for seg in list(fetch.waiting.values()):
                        if (fetch.result is None and seg.deadline is not None
                                and seg.deadline <= now):
                            fetch.on_timeout(seg)
        finally:
            for fetch in active:        # left by an error: release waiters
                fetch.finish(fetch.result)
        return results

    def get(self, name: str, payload: bytes = b"", sign=None, validator=None,
            lifetime_ms: Optional[float] = DEFAULT_LIFETIME_MS,
            retries: int = SOCKET_RETRIES) -> FetchResult:
        [result] = self._fetch_all([{
            "name": name, "payload": payload, "sign": sign,
            "validator": validator, "lifetime_ms": lifetime_ms,
            "retries": retries}], 1)
        if isinstance(result, Exception):
            try:
                raise result
            finally:
                result = None   # else error -> traceback -> frame -> error
        return result

    def get_many(self, requests: list[dict], window: int = 8) -> list:
        """Fetch several objects with at most `window` in flight; returns a
        FetchResult or an Exception per request, in order."""
        return self._fetch_all(requests, max(1, window))
