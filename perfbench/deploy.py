"""The cluster under test, through the public API only: a `SimCluster` or an
in-process `SocketCluster` over loopback, plus one insert and one query
handler per user, each with its own trust store."""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path

from ogb import trust
from ogb.cluster import (ClusterConfig, SimCluster, SocketCluster,
                         network_cert_fetcher)
from ogb.frontend import Credentials, InsertHandler, QueryHandler

BF_SYNC_DEADLINE_S = 10.0


def _free_ports(count: int) -> list[int]:
    socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(count)]
    try:
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def cluster_dict(root: Path, config: str, mode: str, seed: int,
                 storage: Path) -> dict:
    """The repo config, with keys derived from the seed in memory and the
    storage under the benchmark's work directory."""
    data = json.loads((root / config).read_text(encoding="utf-8"))
    data.pop("keysDir", None)
    data["mode"] = mode
    data["seed"] = seed
    data["storageDir"] = str(storage)
    return data


class Deployment:
    """One running cluster and its clients."""

    def __init__(self, data: dict, users: list[tuple[str, str]]):
        self.mode = data["mode"]
        self.storage = Path(data["storageDir"])
        t0, c0 = time.perf_counter(), time.process_time()
        if self.mode == "sim":
            self.cluster = SimCluster(ClusterConfig.from_dict(data))
            self.substrate = self.cluster.substrate
            fetcher = self.cluster.cert_repo.get_wire
        else:
            data = dict(data)
            ports = _free_ports(2 + len(data["engines"]))
            data["engines"] = [dict(e, address={"host": "127.0.0.1", "port": p})
                               for e, p in zip(data["engines"], ports)]
            data["bfServer"] = dict(data["bfServer"],
                                    address={"host": "127.0.0.1", "port": ports[-2]})
            data["certRepo"] = {"address": {"host": "127.0.0.1", "port": ports[-1]}}
            self.cluster = SocketCluster(ClusterConfig.from_dict(data))
            self.cluster.start()
            self.substrate = self.cluster.substrate()
            fetcher = network_cert_fetcher(self.substrate)
        self.start_s = time.perf_counter() - t0
        self.start_cpu_s = time.process_time() - c0
        self.clients: dict[tuple[str, str], tuple[InsertHandler, QueryHandler]] = {}
        for tid, uid in users:
            kp, cert = self.cluster.issue_user(tid, uid)
            creds = Credentials(tid, uid, kp, cert)
            store = trust.TrustStore(self.cluster.anchor, fetcher=fetcher)
            self.clients[(tid, uid)] = (InsertHandler(self.substrate, store, creds),
                                        QueryHandler(self.substrate, store, creds))

    @property
    def engines(self):
        return self.cluster.engines

    def settle(self) -> None:
        """Deliver pending Bloom publications to the filter server."""
        if self.mode == "sim":
            self.cluster.network.loop.run_until_idle()
            return
        deadline = time.monotonic() + BF_SYNC_DEADLINE_S
        server = self.cluster.bloom_server
        while time.monotonic() < deadline:
            if all(server.last_seq[eid] == engine.cbf.seq - 1
                   for eid, engine in self.engines.items()):
                return
            time.sleep(0.01)
        raise RuntimeError("the Bloom filter server never caught up")

    def flush(self) -> None:
        """Empty every content store and engine response cache."""
        if self.mode == "sim":
            self.cluster.flush_caches()
            return
        servers = list(self.cluster.servers.values()) + [self.cluster.cert_server]
        if self.cluster.bf_server is not None:
            servers.append(self.cluster.bf_server)
        for server in servers:
            server.cs.clear()
        for engine in self.engines.values():
            engine.clear_response_caches()

    def snapshot(self) -> None:
        for engine in self.engines.values():
            engine.snapshot()

    def disk_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(d, f))
                   for d, _, files in os.walk(self.storage) for f in files)

    def transport_counters(self) -> dict:
        """Cumulative counters the traced run takes per-operation deltas of."""
        processed = sum(e.status()["processedQueries"] for e in self.engines.values())
        if self.mode != "sim":
            return {"processed": processed}
        nodes = self.cluster.network.nodes
        return {
            "processed": processed,
            "interests": nodes["handler"].counters["interestsIn"],
            "interests_all": sum(n.counters["interestsIn"] for n in nodes.values()),
            "cache_hits": sum(n.counters["cacheHits"] for n in nodes.values()),
            "bytes": sum(link.bytes_sent for n in nodes.values()
                         for link in n.links.values()),
            "virtual_ms": self.substrate.now_ms(),
        }

    def close(self) -> None:
        if self.mode == "socket":
            self.substrate.close()
            self.cluster.stop()
