"""TCP transport: threaded content servers and a blocking client substrate.

A ContentServer announces its prefixes to every client on connect, answers
interests from its content store or producers, and can push a held reply
later (solicited only: a pending interest must exist).  The SocketSubstrate
mirrors the simulated substrate's surface (get, get_many, now_ms) so the
frontend runs unchanged over real sockets.
"""

from __future__ import annotations

import logging
import queue
import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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
    """One listener hosting producers behind announced prefixes."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 cache_capacity: int = 0):
        self.host = host or "127.0.0.1"
        self.port = port
        self.cs = ContentStore(cache_capacity)
        self._producers: list[tuple[tuple[str, ...], Callable]] = []
        self._prefixes: list[str] = []
        self._dispatch = threading.Lock()
        self._state = threading.Lock()
        self._pending: dict[str, set[_ServedConn]] = {}
        self._conns: set[_ServedConn] = set()
        self._listener: Optional[socket.socket] = None
        self._closing = False

    def attach_producer(self, prefix: str, handler: Callable) -> None:
        self._producers.append((Name.from_text(prefix).components, handler))
        self._prefixes.append(prefix)

    def start(self) -> None:
        if not self._prefixes:
            raise ProtocolError("a content server needs at least one producer")
        listener = socket.create_server((self.host, self.port))
        self.port = listener.getsockname()[1]
        self._listener = listener
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def stop(self) -> None:
        self._closing = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._state:
            conns = list(self._conns)
            self._conns.clear()
            self._pending.clear()
        for conn in conns:
            try:
                conn.sock.close()
            except OSError:
                pass

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def publish(self, content: ContentObject) -> int:
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
        conn = _ServedConn(sock)
        with self._state:
            self._conns.add(conn)
        try:
            for index, prefix in enumerate(self._prefixes):
                last = index == len(self._prefixes) - 1
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

    def _find_producer(self, name: str) -> Optional[Callable]:
        comps = Name.from_text(name).components
        best = None
        best_len = -1
        for prefix, handler in self._producers:
            if len(prefix) > best_len and comps[:len(prefix)] == prefix:
                best, best_len = handler, len(prefix)
        return best

    def _handle(self, conn: _ServedConn, interest: Interest) -> None:
        with self._state:
            cached = self.cs.get(interest.name, _now_ms())
        if cached is not None:
            conn.send(wire.content_message(cached))
            return
        handler = self._find_producer(interest.name)
        if handler is None:
            return
        with self._dispatch:
            result = handler(interest)
            if result is None:
                with self._state:
                    self._pending.setdefault(interest.name, set()).add(conn)
                return
            content, delay_ms = result
            if delay_ms > 0:
                time.sleep(delay_ms / 1000.0)
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
        try:
            self.sock.close()
        except OSError:
            pass


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

    def _fetch_segment(self, peer: _Peer, seg_text: str, payload: bytes,
                       sign, lifetime_ms, retries: int) -> ContentObject:
        envelope = sign(seg_text, payload) if sign else None
        waiter: queue.Queue = queue.Queue()
        timeout_s = None if lifetime_ms is None else lifetime_ms / 1000.0
        for attempt in range(retries + 1):
            interest = Interest(seg_text, payload, envelope, lifetime_ms)
            peer.add_waiter(seg_text, waiter)
            if not self._send(peer, wire.interest_message(
                    interest, self._rng.getrandbits(63))):
                peer.drop_waiter(seg_text, waiter)
                raise NoRouteError("connection to %s:%d is closed"
                                   % peer.address)
            wait_s = None if timeout_s is None else timeout_s * (2 ** attempt)
            try:
                value = waiter.get(timeout=wait_s)
            except queue.Empty:
                peer.drop_waiter(seg_text, waiter)
                continue
            if isinstance(value, Exception):
                raise value
            return value
        raise TimeoutError_("timed out fetching %s after %d attempts"
                            % (seg_text, retries + 1))

    def _send(self, peer: _Peer, message: dict) -> bool:
        try:
            with peer.write_lock:
                wire.write_frame(peer.sock, message)
            return True
        except OSError:
            return False

    def get(self, name: str, payload: bytes = b"", sign=None, validator=None,
            lifetime_ms: Optional[float] = DEFAULT_LIFETIME_MS,
            retries: int = SOCKET_RETRIES) -> FetchResult:
        peer = self.fib.lookup(name)
        if peer is None:
            raise NoRouteError("no route for %s" % name)
        base = Name.from_text(name)
        segments = []
        final: Optional[int] = None
        index = 0
        while final is None or index <= final:
            seg_text = segment_name(base, index).text
            content = self._fetch_segment(peer, seg_text,
                                          payload if index == 0 else b"",
                                          sign, lifetime_ms, retries)
            if validator is not None:
                validator(content)
            if content.final_segment is not None:
                final = content.final_segment
            if final is None:
                raise ValidationError("integrity",
                                      "segment %d of %s lacks a final segment"
                                      " index" % (index, name))
            segments.append(content)
            index += 1
        return FetchResult(name, b"".join(c.payload for c in segments),
                           segments)

    def get_many(self, requests: list[dict], window: int = 8) -> list:
        def one(request: dict):
            request = dict(request)
            name = request.pop("name")
            try:
                return self.get(name, **request)
            except Exception as exc:
                return exc

        with ThreadPoolExecutor(max_workers=max(1, window)) as pool:
            return list(pool.map(one, requests))
