"""Cluster assembly: configuration, key material, certificate distribution,
and the deployments behind the CLI and the test suite.

The `KeyStore` is the one certificate directory.  `CertRepo` answers every
certificate lookup through it, for the network and for the trust stores of
the engines and the Bloom feed alike, so a certificate issued by another
process on the same `keysDir` resolves everywhere as soon as its file exists.

`_Cluster` assembles a deployment once for both transports: the keys and
certificates, the engines, the Bloom filter server and the `FilterFeed` that
keeps it in step with every engine, plus `issue_user`, `flush_caches`,
`snapshot`, `reset_counters`, `status` and `stop`.  A transport adds its
hosts (`_host`), the way a Bloom subscription waits (`_subscribe`) and how
it shuts down (`_close`).  A stopped cluster is freed as soon as its last
user drops it, without waiting for a cyclic garbage collection.  Each
service is a `core.Host` producer: `CertRepo.producer` and the engine
handlers return every segment of the object an interest names, and the
host answers the asked one.  The Bloom filter service is a `BloomService`
behind `engine.RequestService`, the producer of every request channel, and
`FilterFeed` asks for each digest with `engine.send_request`.

A simulated cluster is a star.  Engines, the Bloom filter server, and the
certificate repository hang off one switch over unconstrained links; the
query-handler's access link carries the configured bandwidth, so batched
tile-query traffic serializes exactly where the cost model charges it.  A
socket cluster gives each of them a TCP listener instead.

Key material derives deterministically from (seed, identity), so separate
processes loading the same config materialize identical keys and names.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import bloom, trust
from .engine import Engine, EngineConfig, RequestService, bulk_channel, send_request
from .errors import ConfigError, OgbError, ServiceError, ValidationError
from .geodata import canonical_json, gone_wire, is_gone
from .icn.core import build_segments
from .icn.sim import SimNetwork, SimSubstrate
from .icn.sockets import ContentServer, SocketSubstrate
from .names import SCHEME, SYSTEM_ROOT, Name, is_identifier

log = logging.getLogger(__name__)

SWITCH_ID = "switch"
HANDLER_ID = "handler"
BF_SERVER_ID = "bf-server"
CERT_REPO_ID = "cert-repo"

BF_QUERY_ROOT = bloom.BF_QUERY_ROOT
CERT_ROOT = SCHEME + SYSTEM_ROOT + "/certs"

CERT_FRESHNESS_MS = 3600 * 1000.0


# Keys of values now fixed in code (the signing rules, `engine.TILE_FRESHNESS_MS`,
# `engine.IPRES_FRESHNESS_MS`, the c1 and c2 of `perfmodel`, links without
# latency) or of the unused `defaults` section.  A config that still holds
# one is refused, not silently ignored.
_REFUSED_KEYS = ("trustRules", "defaults")
_REFUSED_ENGINE_KEYS = ("tileFreshnessMs", "ipresFreshnessMs", "procBaseMs",
                        "procPerItemMs")
_REFUSED_TOPOLOGY_KEYS = ("latencyMs",)


def _show(value) -> str:
    return json.dumps(value, default=repr)


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError("%s must be a JSON object, got %s" % (where, _show(value)))
    return value


def _refuse(section: dict, where: str, keys) -> None:
    for key in keys:
        if key in section:
            raise ConfigError("%s%s is no longer a config key" % (where, key))


def _integer(value, where: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or (
            minimum is not None and value < minimum):
        raise ConfigError("%s must be an integer%s, got %s"
                          % (where, "" if minimum is None else " >= %d" % minimum,
                             _show(value)))
    return value


def _number(value, where: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
            value > 0 if positive else value >= 0):
        raise ConfigError("%s must be a %s number, got %s"
                          % (where, "positive" if positive else "non-negative",
                             _show(value)))
    return float(value)


@dataclass
class ClusterConfig:
    """Everything needed to stand a cluster up, parsed from one JSON file."""

    mode: str = "sim"
    seed: Optional[int] = None
    keys_dir: Optional[str] = None
    storage_dir: Optional[str] = None
    engines: list[EngineConfig] = field(default_factory=list)
    bf_enabled: bool = True
    bf_m: int = bloom.DEFAULT_M
    bf_h: int = bloom.DEFAULT_H
    bf_host: str = ""
    bf_port: int = 0
    cert_host: str = ""
    cert_port: int = 0
    handler_bandwidth_mbps: Optional[float] = 200.0

    def validate(self) -> None:
        if self.mode not in ("sim", "socket"):
            raise ConfigError("mode must be sim or socket, got %r" % self.mode)
        if self.mode == "sim" and self.seed is None:
            raise ConfigError("sim mode requires a seed")
        if self.seed is not None:
            _integer(self.seed, "seed")
        for value, where in ((self.keys_dir, "keysDir"),
                             (self.storage_dir, "storageDir")):
            if value is not None and not isinstance(value, (str, os.PathLike)):
                raise ConfigError("%s must be a path string, got %s"
                                  % (where, _show(value)))
        _integer(self.bf_m, "bfServer.m", 1)
        _integer(self.bf_h, "bfServer.h", 1)
        if self.handler_bandwidth_mbps is not None:
            # Zero would divide by zero in the link model.
            self.handler_bandwidth_mbps = _number(
                self.handler_bandwidth_mbps, "topology.handlerLinkMbps",
                positive=True)
        if not self.engines:
            raise ConfigError("no engines configured")
        ids = [e.engine_id for e in self.engines]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate engine ids: %r" % ids)
        owned: list[tuple[tuple[str, ...], int, str]] = []
        for ecfg in self.engines:
            if not ecfg.served_prefixes:
                raise ConfigError("engine %s serves no prefixes" % ecfg.engine_id)
            for prefix in ecfg.served_prefixes:
                owned.append((Name.from_text(prefix).components, len(owned),
                              ecfg.engine_id))
        # Sorted by components, every tuple between a prefix and one of its
        # extensions also starts with that prefix, so neighbours suffice.
        owned.sort()
        for first, second in zip(owned, owned[1:]):
            if second[0][:len(first[0])] == first[0]:
                (a, _, eid_a), (b, _, eid_b) = sorted((first, second),
                                                      key=lambda o: o[1])
                raise ConfigError(
                    "served prefixes overlap: %s:%s vs %s:%s"
                    % (eid_a, "/".join(a), eid_b, "/".join(b)))
        if self.mode == "socket":
            for ecfg in self.engines:
                if not ecfg.port:
                    raise ConfigError("socket mode: engine %s needs a port"
                                      % ecfg.engine_id)
            if self.bf_enabled and not self.bf_port:
                raise ConfigError("socket mode: bfServer needs a port")
            if not self.cert_port:
                raise ConfigError("socket mode: certRepo needs a port")

    def addresses(self) -> list[tuple[str, int]]:
        """Where socket mode listens: each engine, the certificate repo,
        then the Bloom filter server; the host defaults to loopback."""
        peers = [(e.host, e.port) for e in self.engines]
        peers.append((self.cert_host, self.cert_port))
        if self.bf_enabled:
            peers.append((self.bf_host, self.bf_port))
        return [(host or "127.0.0.1", port) for host, port in peers]

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterConfig":
        data = _object(data, "config")
        _refuse(data, "", _REFUSED_KEYS)
        bf = data.get("bfServer")
        if bf is not None:
            _object(bf, "bfServer")
        bf_m = bf.get("m", bloom.DEFAULT_M) if bf else bloom.DEFAULT_M
        bf_h = bf.get("h", bloom.DEFAULT_H) if bf else bloom.DEFAULT_H
        entries = data.get("engines", [])
        if not isinstance(entries, list):
            raise ConfigError("engines must be a list, got %s" % _show(entries))
        engines = [cls._engine(e, "engines[%d]" % i, bf_m, bf_h)
                   for i, e in enumerate(entries)]
        topology = _object(data.get("topology", {}), "topology")
        _refuse(topology, "topology.", _REFUSED_TOPOLOGY_KEYS)
        config = cls(
            mode=data.get("mode", "sim"),
            seed=data.get("seed"),
            keys_dir=data.get("keysDir"),
            storage_dir=data.get("storageDir"),
            engines=engines,
            bf_enabled=bf is not None,
            bf_m=bf_m,
            bf_h=bf_h,
            handler_bandwidth_mbps=topology.get("handlerLinkMbps", 200.0),
        )
        if bf:
            config.bf_host, config.bf_port = cls._address(bf, "bfServer")
        config.cert_host, config.cert_port = cls._address(
            _object(data.get("certRepo", {}), "certRepo"), "certRepo")
        config.validate()
        return config

    @classmethod
    def _engine(cls, data, where: str, bf_m: int, bf_h: int) -> EngineConfig:
        data = _object(data, where)
        _refuse(data, where + ".", _REFUSED_ENGINE_KEYS)
        prefixes = data.get("servedPrefixes")
        if not isinstance(data.get("id"), str) or not isinstance(prefixes, list) \
                or not all(isinstance(p, str) for p in prefixes):
            raise ConfigError("%s needs a string id and a list of servedPrefixes"
                              % where)
        host, port = cls._address(data, where)
        capacity = data.get("cacheCapacity", EngineConfig.cache_capacity)
        return EngineConfig(data["id"], list(prefixes), host, port,
                            _integer(capacity, where + ".cacheCapacity", 0), bf_m, bf_h)

    @staticmethod
    def _address(section: dict, where: str) -> tuple[str, int]:
        address = _object(section.get("address", {}), where + ".address")
        host = address.get("host", "")
        if not isinstance(host, str):
            raise ConfigError("%s.address.host must be a string" % where)
        port = _integer(address.get("port", 0), where + ".address.port", 0)
        if port > 65535:
            raise ConfigError("%s.address.port must be at most 65535, got %d"
                              % (where, port))
        return host, port

    @classmethod
    def load(cls, path) -> "ClusterConfig":
        """Parse a config file; relative keys/storage paths anchor at it."""
        path = Path(path)
        config = cls.from_dict(json.loads(path.read_text(encoding="utf-8")))
        base = path.resolve().parent
        if config.keys_dir is not None:
            config.keys_dir = str((base / config.keys_dir).resolve())
        if config.storage_dir is not None:
            config.storage_dir = str((base / config.storage_dir).resolve())
        return config


def _seed_bytes(master_seed: int, identity: str) -> bytes:
    return hashlib.sha256(("%d|%s" % (master_seed, identity)).encode("utf-8")).digest()


class KeyStore:
    """Keypairs and certificates by identity, optionally persisted on disk,
    one file per identity under `root`.

    With a master seed every keypair is a pure function of (seed, identity);
    without one, fresh random keys are generated and must be persisted to
    survive the process.
    """

    def __init__(self, root=None, seed: Optional[int] = None):
        self.root = Path(root) if root else None
        self.seed = seed
        self._cache: dict[str, tuple[trust.KeyPair, trust.Certificate]] = {}

    def _path(self, identity: str) -> Path:
        parts = [p for p in identity.split("/") if p]
        return self.root.joinpath(*parts).with_suffix(".json")

    def _load(self, identity: str):
        """The identity's pair from memory or from its own file; None if it
        has neither.  ConfigError names a file that is corrupt or holds
        another identity."""
        hit = self._cache.get(identity)
        if hit is not None or self.root is None:
            return hit
        path = self._path(identity)
        if not path.is_file():
            return None
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            pair = (trust.KeyPair.from_dict(data["keypair"]),
                    trust.Certificate.from_dict(data["certificate"]))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError("key file %s is corrupt: %s" % (path, exc)) from None
        if pair[1].identity != identity:
            raise ConfigError("key file %s holds %s, not %s"
                              % (path, pair[1].identity, identity))
        return self._cache.setdefault(identity, pair)

    def certificate(self, name: Name) -> Optional[trust.Certificate]:
        """The certificate a repository name asks for, or None.  Creates no
        key, and refuses a name outside the certificate prefix or with a
        component that is not an identifier, so no name reads a file
        outside `root`."""
        comps = name.components
        if comps[:2] != (SYSTEM_ROOT, trust.CERT_COMPONENT) or len(comps) < 3 \
                or not all(map(is_identifier, comps[2:])):
            return None
        pair = self._load("/" + "/".join(comps[2:]))
        return None if pair is None else pair[1]

    def _get(self, identity: str, make_cert) -> tuple[trust.KeyPair, trust.Certificate]:
        hit = self._load(identity)
        if hit is not None:
            return hit
        if self.seed is not None:
            kp = trust.KeyPair.from_seed(_seed_bytes(self.seed, identity))
        else:
            kp = trust.KeyPair.generate()
        cert = make_cert(kp)
        self._cache[identity] = (kp, cert)
        if self.root is not None:
            path = self._path(identity)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({
                "identity": identity,
                "keypair": kp.to_dict(),
                "certificate": cert.to_dict(),
            }, indent=2, sort_keys=True), encoding="utf-8")
        return self._cache[identity]

    def admin(self) -> tuple[trust.KeyPair, trust.Certificate]:
        return self._get(trust.ADMIN_IDENTITY, trust.make_anchor)

    def _issued(self, identity: str, issuer) -> tuple[trust.KeyPair, trust.Certificate]:
        issuer_kp, issuer_cert = issuer
        return self._get(identity, lambda kp: trust.issue(
            issuer_kp, issuer_cert, identity, kp.public_bytes))

    def engine(self, engine_id: str) -> tuple[trust.KeyPair, trust.Certificate]:
        return self._issued(trust.engine_identity(engine_id), self.admin())

    def tenant(self, tid: str) -> tuple[trust.KeyPair, trust.Certificate]:
        return self._issued(trust.tenant_identity(tid), self.admin())

    def user(self, tid: str, uid: str) -> tuple[trust.KeyPair, trust.Certificate]:
        return self._issued(trust.user_identity(tid, uid), self.tenant(tid))


class CertRepo:
    """A cluster's certificate directory, answering from its key store: the
    fetcher of every trust store the cluster builds, and the producer
    behind the system certificate prefix in either kind of cluster.

    A name the key store cannot answer (never issued, outside the prefix,
    or its key file corrupt) is answered at once with an unsigned "gone"
    reply at freshness 0, so no content store keeps it past the issue.
    Unsigned is safe: a certificate authenticates itself, and a forged
    not-found can only deny service, which dropping the interest can
    already do."""

    def __init__(self, keys: KeyStore):
        self.keys = keys

    def get_wire(self, name: Name) -> Optional[bytes]:
        """The certificate's wire, or None; ConfigError on a corrupt file."""
        cert = self.keys.certificate(name)
        return None if cert is None else cert.to_wire()

    def producer(self, interest, base: Name):
        try:
            wire = self.get_wire(base)
        except ConfigError as exc:
            log.warning("answering %s gone: %s", base.text, exc)
            wire = None
        if wire is None:
            return build_segments(base, gone_wire(base.text)), 0.0
        return build_segments(base, wire, CERT_FRESHNESS_MS), 0.0


class BloomService:
    """Request face of a BloomServer: batch membership tests and stats, as
    the `handle` of a `RequestService`."""

    def __init__(self, server: bloom.BloomServer):
        self.server = server

    def handle(self, request: dict, interest) -> bytes:
        op = request.get("op")
        if op == "bf-query":
            bits = self.server.membership(request["prefixes"])
            return canonical_json({"bits": [bool(b) for b in bits]})
        if op == "bf-stats":
            return canonical_json(self.server.stats())
        raise ServiceError("unknown bf op %r" % (op,))


class FilterFeed:
    """The Bloom server's intake: each engine's signed digest, then its
    publications in seq order, fetched over one substrate.

    Both gets pass a validator that admits only segments signed by the
    engine they came from, and a publication must also carry that engine's
    id and the seq it was asked for.  One that fails either check is counted
    in the server's `rejected` and never applied; the engine's digest is then
    reloaded under a fresh name, which no cached forgery can answer, and the
    subscription follows on from there.
    """

    def __init__(self, server: bloom.BloomServer, trust_store: trust.TrustStore,
                 substrate):
        self.server = server
        self.trust_store = trust_store
        self.substrate = substrate

    def validator(self, engine_id: str):
        """Raises ValidationError on a segment the engine did not sign."""
        def validate(content) -> None:
            ok, reason = self.trust_store.verify_engine_content(
                content.name, content.payload, content.envelope, engine_id)
            if not ok:
                raise ValidationError(reason, "%s is not signed by engine %s"
                                      % (content.name, engine_id))

        return validate

    def recover(self, engine_id: str) -> None:
        """Replace the server's view of an engine with its signed digest."""
        reply = send_request(self.substrate, bulk_channel(engine_id), "digest",
                             canonical_json({"op": "digest"}), validator=self.validator(engine_id))
        self.server.load_digest(engine_id, *bloom.decode_digest(reply))

    def next_publication(self, engine_id: str) -> tuple[int, str]:
        """The seq and the name of the next publication to wait for."""
        seq = self.server.last_seq[engine_id] + 1
        return seq, bloom.publication_name(engine_id, seq)

    def deliver(self, engine_id: str, seq: int, fetched) -> None:
        """Apply the fetched publication `seq`; when `fetched` is the
        ValidationError its get failed with, or its payload fails the
        server's checks, reload the engine's digest instead."""
        if isinstance(fetched, ValidationError):
            self.server.reject(engine_id, seq, str(fetched))
        elif self.server.apply_publication(engine_id, seq, fetched.payload):
            return
        try:
            self.recover(engine_id)
        except OgbError as exc:
            log.warning("digest reload for %s failed: %s", engine_id, exc)


class _Cluster:
    """The deployment both transports share.  `_assemble` puts each engine
    and service on a `core.Host` from the subclass's `_host`; `nodes` holds
    every host by id, with the sim's switch and handler, for `status`."""

    MODE = ""

    def __init__(self, config: ClusterConfig, keystore: Optional[KeyStore]):
        config.validate()
        if config.mode != self.MODE:
            raise ConfigError("%s requires mode=%s, got %r"
                              % (type(self).__name__, self.MODE, config.mode))
        self.config = config
        self.keys = keystore or KeyStore(config.keys_dir, config.seed)
        # Trust stores fetch through the repo, which holds the keys and not
        # this cluster, so they keep no stopped cluster alive.
        self.cert_repo = CertRepo(self.keys)
        _, self.anchor = self.keys.admin()
        self.engines: dict[str, Engine] = {}
        self.servers: dict = {}
        self.hosts: list = []
        self.nodes: dict = {}
        self.bloom_server = None
        self.bf_server = None
        self.bf_feed = None

    def _assemble(self) -> None:
        config = self.config
        for ecfg in config.engines:
            self._add_engine(ecfg)
        if config.bf_enabled:
            self.bloom_server = bloom.BloomServer(config.bf_m, config.bf_h,
                                                  engines=list(self.engines))
            self.bf_server = self._serve(
                BF_SERVER_ID, (config.bf_host, config.bf_port),
                {BF_QUERY_ROOT: RequestService(BloomService(self.bloom_server).handle)})
        self.cert_server = self._serve(
            CERT_REPO_ID, (config.cert_host, config.cert_port),
            {CERT_ROOT: self.cert_repo.producer})

    def _serve(self, host_id: str, address: tuple[str, int], producers: dict,
               cache_capacity: int = 0):
        host = self._host(host_id, address, cache_capacity)
        for prefix, handler in producers.items():
            host.attach_producer(prefix, handler)
        self.hosts.append(host)
        self.nodes[host_id] = host
        return host

    def _add_engine(self, ecfg: EngineConfig) -> None:
        kp, cert = self.keys.engine(ecfg.engine_id)
        store = trust.TrustStore(self.anchor, fetcher=self.cert_repo.get_wire)
        storage = None
        if self.config.storage_dir is not None:
            storage = str(Path(self.config.storage_dir) / ecfg.engine_id)
        engine = Engine(ecfg, kp, cert, store, storage_dir=storage)
        producers = {prefix: engine.handle_named_interest
                     for prefix in ecfg.served_prefixes}
        producers[bulk_channel(ecfg.engine_id)] = engine.handle_service_interest
        producers["%s/%s" % (bloom.BF_TOPIC, ecfg.engine_id)] = \
            engine.handle_bf_interest
        host = self._serve(ecfg.engine_id, (ecfg.host, ecfg.port), producers,
                           ecfg.cache_capacity)
        engine.publish_sink = host.satisfy
        self.engines[ecfg.engine_id] = engine
        self.servers[ecfg.engine_id] = host

    def _start_feed(self, substrate) -> None:
        """Load every engine's digest into the Bloom server over
        `substrate`, then wait for each engine's next publication."""
        self.bf_feed = FilterFeed(
            self.bloom_server,
            trust.TrustStore(self.anchor, fetcher=self.cert_repo.get_wire),
            substrate)
        for engine_id in self.engines:
            self.bf_feed.recover(engine_id)
            self._subscribe(engine_id)

    def _each_engine(self):
        """Every engine, each held while its producers cannot run."""
        for engine_id, engine in self.engines.items():
            with self.servers[engine_id].dispatch_lock:
                yield engine

    def _each_node(self):
        """(id, counters) of every node, each held while it cannot count."""
        for node_id, node in self.nodes.items():
            with node.dispatch_lock:
                yield node_id, node.counters

    # -- lifecycle -----------------------------------------------------------

    def issue_user(self, tid: str, uid: str) -> tuple[trust.KeyPair, trust.Certificate]:
        """A user's credentials, issued in the key store, which the
        repository answers from."""
        return self.keys.user(tid, uid)

    def flush_caches(self) -> None:
        for host in self.hosts:
            host.clear_cache()
        for engine in self._each_engine():
            engine.clear_response_caches()

    def reset_counters(self) -> None:
        for engine in self._each_engine():
            engine.reset_counters()
        for _, counters in self._each_node():
            counters.clear()

    def snapshot(self) -> None:
        for engine in self._each_engine():
            engine.snapshot()

    def status(self) -> dict:
        report = {
            "mode": self.config.mode,
            "engines": {engine.config.engine_id: engine.status()
                        for engine in self._each_engine()},
        }
        if self.bloom_server is not None:
            report["bfServer"] = self.bloom_server.stats()
        report["nodes"] = {node_id: dict(counters)
                           for node_id, counters in self._each_node()}
        return report

    def stop(self) -> None:
        """End the subscriptions and the hosts, and unhook every engine
        from its host."""
        self._close()
        for engine in self.engines.values():
            engine.publish_sink = None


class SimCluster(_Cluster):
    """A full deployment on one event loop, addressed through `substrate`."""

    MODE = "sim"

    def __init__(self, config: ClusterConfig, keystore: Optional[KeyStore] = None):
        super().__init__(config, keystore)
        self.network = SimNetwork()
        # Not hosts: these two cache nothing, so `flush_caches` skips them.
        self.nodes[SWITCH_ID] = self.network.add_node(SWITCH_ID)
        handler = self.nodes[HANDLER_ID] = self.network.add_node(HANDLER_ID)
        self.network.connect(HANDLER_ID, SWITCH_ID,
                             bandwidth_mbps=config.handler_bandwidth_mbps)
        self._assemble()
        # Announce only once every node exists, so each gets a full FIB.
        for node in self.network.nodes.values():
            for prefix in node.producers.prefixes():
                self.network.announce(prefix, node.id)
        self.substrate = SimSubstrate(self.network, handler)
        if self.bloom_server is not None:
            self._start_feed(SimSubstrate(self.network, self.bf_server))

    def _host(self, host_id: str, address, cache_capacity: int):
        node = self.network.add_node(host_id, cache_capacity=cache_capacity)
        self.network.connect(host_id, SWITCH_ID)
        return node

    def _subscribe(self, engine_id: str) -> None:
        """Long-lived pending interest for the engine's next publication."""
        seq, name = self.bf_feed.next_publication(engine_id)
        future = self.bf_feed.substrate.get_async(
            name, validator=self.bf_feed.validator(engine_id), lifetime_ms=None)

        def deliver(fut):
            if fut.error is not None and not isinstance(fut.error, ValidationError):
                log.warning("bf subscription for %s failed: %s",
                            engine_id, fut.error)
                return
            self.bf_feed.deliver(engine_id, seq, fut.error or fut.value)
            self._subscribe(engine_id)

        future.add_done_callback(deliver)

    def _close(self) -> None:
        # The pending subscriptions sit in the PITs, and their callbacks
        # hold this cluster.
        self.network.close()


def network_cert_fetcher(substrate):
    """A TrustStore fetcher that pulls certificate wires off the network;
    None for a certificate the repository answers "gone"."""

    def fetch(name: Name):
        try:
            payload = substrate.get(name.text).payload
        except OgbError:
            return None
        return None if is_gone(payload) else payload

    return fetch


class SocketCluster(_Cluster):
    """The SimCluster deployment hosted on TCP listeners instead.

    `start` binds one server per engine plus the certificate and Bloom
    filter services and wires the filter subscriptions over real sockets;
    `substrate()` hands out a fresh client connected to everything.
    """

    MODE = "socket"

    def __init__(self, config: ClusterConfig, keystore: Optional[KeyStore] = None):
        super().__init__(config, keystore)
        self._stopping = False
        self._threads: list = []
        self._assemble()

    def _host(self, host_id: str, address: tuple[str, int], cache_capacity: int):
        return ContentServer(*address, cache_capacity=cache_capacity)

    def start(self) -> None:
        for server in self.hosts:
            server.start()
        if self.bloom_server is not None:
            self._start_feed(SocketSubstrate(
                [server.address for server in self.servers.values()]))

    def _subscribe(self, engine_id: str) -> None:
        thread = threading.Thread(target=self._subscription_loop,
                                  args=(engine_id,), daemon=True)
        thread.start()
        self._threads.append(thread)

    def _subscription_loop(self, engine_id: str) -> None:
        while not self._stopping:
            seq, name = self.bf_feed.next_publication(engine_id)
            try:
                fetched = self.bf_feed.substrate.get(
                    name, validator=self.bf_feed.validator(engine_id),
                    lifetime_ms=None)
            except ValidationError as exc:
                fetched = exc.with_traceback(None)  # which holds this frame
            except OgbError as exc:
                if not self._stopping:
                    log.warning("bf subscription for %s ended: %s",
                                engine_id, exc)
                return
            self.bf_feed.deliver(engine_id, seq, fetched)

    def _close(self) -> None:
        """Stop every server; their threads and the subscription threads
        end with them."""
        self._stopping = True
        if self.bf_feed is not None:
            self.bf_feed.substrate.close()
        for thread in self._threads:
            thread.join(timeout=2.0)
        for server in self.hosts:
            server.stop()

    def substrate(self) -> SocketSubstrate:
        return SocketSubstrate(self.config.addresses())
