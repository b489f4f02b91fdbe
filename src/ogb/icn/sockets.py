"""TCP transport: threaded content servers and a client substrate.

A ContentServer is the shared `core.Host` behind a TCP listener: it
announces its producers' prefixes to every client on connect and answers
interests from its content store, PIT and producers, as a simulated node
does.  Its faces are connections, so a held interest expires after its
lifetime and a closed connection leaves none behind.  A name no producer
serves is answered nothing.  One thread serves each connection; host state
and producers are touched only under the server's reentrant dispatch lock,
because engine handlers are not thread-safe and an engine publishes through
`satisfy` from inside its handler.  The delay a producer returns is the
simulator's modeled processing time; it is not slept here.

The SocketSubstrate is the same host again, with no producers and no
content store, forwarding through its PIT as a simulated node does.  It
runs the shared consumer (`core.fetch_many`) on a wall-clock event loop of
its own per call, whose inbox is that call's face.  Its FIB routes a name
to a server's address, and its faces toward the servers are connections,
one per server, each with a reader thread that hands replies to the PIT.
An interest routed to a closed connection first redials it once, reading
its announcements again, so a restarted server is reached again; a closed
connection fails every interest that went out on it.  Nothing blocks on
I/O under the client's lock.

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
from typing import Callable, Optional

from ..errors import OgbError, ProtocolError, UnreachableError
from . import wire
from .core import (ContentObject, EventLoop, FetchResult, Fib, Host, Interest,
                   Pit, fetch, fetch_many)

log = logging.getLogger(__name__)

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
    """One connection's socket and the lock its writers share."""

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


class ContentServer(Host):
    """One listener hosting producers behind announced prefixes.

    Producers run only under `dispatch_lock`; hold it to touch a producer's
    state from another thread.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 cache_capacity: int = 0):
        super().__init__(cache_capacity)
        self.host = host or "127.0.0.1"
        self.port = port
        self.dispatch_lock = threading.RLock()
        self._conns: set[_ServedConn] = set()
        self._listener: Optional[socket.socket] = None
        self._closing = False

    def now_ms(self) -> float:
        return _now_ms()

    def _deliver(self, content: ContentObject, conn: _ServedConn) -> None:
        conn.send(wire.content_message(content))

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
        with self.dispatch_lock:
            conns = list(self._conns)
            self._conns.clear()
            self.pit = Pit()
        for conn in conns:
            _shut(conn.sock)

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

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
        with self.dispatch_lock:
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
                    self.receive_interest(wire.parse_interest(message), conn)
        except (ProtocolError, OSError) as exc:
            if not self._closing:
                log.debug("connection dropped: %s", exc)
        finally:
            with self.dispatch_lock:
                self._conns.discard(conn)
                self.pit.drop_face(conn)
            try:
                sock.close()
            except OSError:
                pass


class _Peer(_ServedConn):
    """One client connection: a face of the client's host."""

    def __init__(self, sock, address):
        super().__init__(sock)
        self.address = address
        self.closed = False


class _CallLoop(EventLoop):
    """The event loop of one socket call, on the wall clock.

    Its faces are (loop, on_content) pairs: the client's host puts their
    replies into the loop's inbox, and `run_until` runs them, and the timers
    as they fall due, on the calling thread, so a call's fetches share no
    state with any other call's.
    """

    def __init__(self):
        super().__init__()
        self.inbox: Optional[queue.SimpleQueue] = queue.SimpleQueue()

    def schedule(self, delay_ms: float, fn, *args):
        self.now = _now_ms()
        return super().schedule(delay_ms, fn, *args)

    def run_until(self, predicate: Callable[[], bool]) -> bool:
        """Run until the predicate holds, then drop every timer and unread
        reply, and every later one: the call is over, and they would tie its
        operations and this loop in a reference cycle."""
        try:
            while not predicate():
                wait = None
                if self._heap:
                    wait = max(0.0, self._heap[0][0] - _now_ms()) / 1000.0
                try:
                    fn, value = self.inbox.get(timeout=wait)
                except queue.Empty:
                    self._step()
                else:
                    fn(value)
            return True
        finally:
            self.clear()
            self.inbox = None


class SocketSubstrate(Host):
    """Consumer endpoint over TCP: a host with no producers and no content
    store, whose FIB routes a name to a server's address and whose faces
    toward the servers are its connections, one per server."""

    def __init__(self, peers: list[tuple[str, int]]):
        super().__init__()
        self.dispatch_lock = threading.Lock()
        self.fib = Fib()                     # prefix -> server address
        self._peers: dict[tuple[str, int], _Peer] = {}
        self._rng = random.Random()
        self._dial_lock = threading.Lock()
        self._closed = False
        try:
            for address in peers:
                self._connect(tuple(address))
        except BaseException:
            self.close()
            raise

    def _connect(self, address: tuple[str, int]) -> _Peer:
        try:
            sock = socket.create_connection(address, timeout=CONNECT_TIMEOUT_S)
        except OSError as exc:
            raise UnreachableError("cannot reach %s:%d: %s"
                                   % (address + (exc,))) from None
        try:
            _no_delay(sock)
            prefixes = []
            while True:
                message = wire.read_frame(sock)
                if message is None:
                    raise ProtocolError("%s:%d closed during the announce "
                                        "handshake" % address)
                if message["type"] != wire.TYPE_ANNOUNCE:
                    raise ProtocolError("expected an announce from %s:%d, got %r"
                                        % (address + (message["type"],)))
                prefixes.append(wire.parse_announce(message))
                if message.get("last"):
                    break
            for prefix in prefixes:
                self.fib.add(prefix, address)
        except OSError as exc:
            _shut(sock)
            raise UnreachableError("lost %s:%d during the announce handshake: %s"
                                   % (address + (exc,))) from None
        except BaseException:
            _shut(sock)
            raise
        sock.settimeout(None)
        peer = self._peers[address] = _Peer(sock, address)
        threading.Thread(target=self._read_loop, args=(peer,),
                         daemon=True).start()
        return peer

    def _read_loop(self, peer: _Peer) -> None:
        try:
            while True:
                message = wire.read_frame(peer.sock)
                if message is None:
                    return
                if message["type"] == wire.TYPE_CONTENT:
                    self.receive_content(wire.parse_content(message), peer)
                elif message["type"] == wire.TYPE_ANNOUNCE:
                    self.fib.add(wire.parse_announce(message), peer.address)
        except (OgbError, OSError):
            pass
        finally:
            self._drop(peer)

    def _drop(self, peer: _Peer) -> None:
        """Close a connection and fail every interest that went out on it."""
        peer.closed = True
        _shut(peer.sock)
        with self.dispatch_lock:
            for face in self.pit.consume_upstream(peer):
                self._deliver(None, face)

    def close(self) -> None:
        with self._dial_lock:
            self._closed = True
        for peer in list(self._peers.values()):
            self._drop(peer)

    def now_ms(self) -> float:
        return _now_ms()

    def _route(self, name: str, face):
        """The server's address; with none, the call fails at once."""
        address = self.fib.lookup(name)
        if address is None:
            self._deliver(None, face)
        return address

    def _forward(self, interest: Interest, address) -> None:
        """Send on the connection to `address`, redialled once first if it
        has closed.  The PIT entry records that connection, so only it
        answers or fails the entry; a failed send drops it."""
        peer = self._peers[address]
        if peer.closed:
            with self._dial_lock:
                peer = self._peers[address]
                if peer.closed and not self._closed:
                    try:
                        peer = self._connect(address)
                    except OgbError as exc:
                        log.debug("redial of %s:%d failed: %s", *address, exc)
        with self.dispatch_lock:
            if not self.pit.forwarded(interest.name, peer):
                return
        nonce = self._rng.getrandbits(63)
        if peer.closed or not peer.send(wire.interest_message(interest, nonce)):
            self._drop(peer)

    def _deliver(self, content: Optional[ContentObject], face) -> None:
        loop, on_content = face
        inbox = loop.inbox
        if inbox is not None:
            inbox.put((on_content, content))

    def _call(self) -> tuple:
        """The express of one call, and its fresh loop."""
        loop = _CallLoop()
        return (lambda interest, on_content:
                self.receive_interest(interest, (loop, on_content))), loop

    def get(self, name: str, **kwargs) -> FetchResult:
        return fetch(*self._call(), name, **kwargs)

    def get_many(self, requests: list[dict], window: int = 8) -> list:
        """Fetch several objects with at most `window` in flight; returns a
        FetchResult or an Exception per request, in order."""
        return fetch_many(*self._call(), requests, window)
