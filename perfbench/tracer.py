"""Spans and counts at the layer boundaries, recorded from the benchmark's
own files by wrapping the functions each layer's caller looks up.

A wrapper is installed on the name the caller resolves (`ogb.engine.parse`
as well as `ogb.names.parse`, `ogb.frontend.post_filter` rather than only
`ogb.geodata.post_filter`), and before any cluster is built, because
producers such as `Engine.handle_named_interest` are bound when the cluster
is assembled.  Outside a traced operation a wrapper only calls through.

Each span has a name, a start, an end, its parent and the id of the
operation it belongs to.  Spans stay in memory until `write`.  Work that
server threads do during an operation belongs to that operation: the
client is a single closed loop, so nothing else is in flight.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter

from ogb import bloom, cluster, engine, frontend, geodata, gtfs, names, tessellation, trust
from ogb.icn import sim, sockets, wire


class Op:
    __slots__ = ("id", "kind", "span", "counts", "t0")

    def __init__(self, op_id: int, kind: str, span: int):
        self.id = op_id
        self.kind = kind
        self.span = span
        self.counts: Counter = Counter()
        self.t0 = perf_counter()


def _frame_bytes(counts, args, result, ms):
    counts["wire.frames"] += 1
    counts["wire.bytes"] += 4 + len(json.dumps(args[1], separators=(",", ":")))


def _post_filter(counts, args, result, ms):
    counts["post_filter.in"] += len(args[0])
    counts["post_filter.kept"] += len(result)


def _data_set(counts, args, result, ms):
    counts["data_set.items"] += len(result)


def _bf_reduce(counts, args, result, ms):
    counts["bf.tiles_in"] += len(args[1])
    counts["bf.tiles_out"] += len(result)


def _deref(counts, args, result, ms):
    counts["deref.fetches"] += result[1]


def _cbf_change(counts, args, result, ms):
    counts["bloom.publications"] += len(result)


class Tracer:
    """Installs the wrappers and keeps spans and per-operation counts."""

    def __init__(self, mode: str):
        self.mode = mode
        self.op: Op | None = None
        self.ops: list[Op] = []
        self.spans: list[tuple] = []
        self.tile_samples: list[tuple[int, float, float]] = []   # (items, ms, time)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    # -- wrapping ---------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, group, observer, client thread only)."""
        encode = "geodata.encode"
        return [
            (tessellation, "constrained", "tessellation.constrained", "tessellation", None, False),
            (names, "parse", "names.parse", "names.parse", None, False),
            (engine, "parse", "names.parse", "names.parse", None, False),
            (geodata.OgbTile, "from_wire", "geodata.OgbTile.from_wire", "geodata.decode", None, False),
            (geodata.OgbData, "from_wire", "geodata.OgbData.from_wire", "geodata.decode", None, False),
            (frontend, "post_filter", "geodata.post_filter", "geodata.post_filter", _post_filter, False),
            (frontend, "make_ogb_data_set", "geodata.make_ogb_data_set", "geodata.data_set", _data_set, False),
            (geodata.OgbData, "to_dict", "geodata.OgbData.to_dict", encode, None, False),
            (geodata.OgbData, "to_wire", "geodata.OgbData.to_wire", encode, None, False),
            (geodata.OgbData, "signed_payload", "geodata.OgbData.signed_payload", encode, None, False),
            (geodata.OgbTile, "to_wire", "geodata.OgbTile.to_wire", encode, None, False),
            (geodata, "canonical_json", "geodata.canonical_json", encode, None, False),
            (frontend, "canonical_json", "geodata.canonical_json", encode, None, False),
            (engine, "canonical_json", "geodata.canonical_json", encode, None, False),
            (cluster, "canonical_json", "geodata.canonical_json", encode, None, False),
            (trust.TrustStore, "verify", "trust.verify", "trust.verify", None, False),
            (trust.KeyPair, "sign", "trust.sign", "trust.sign", None, False),
            (engine.Engine, "tile_query", "engine.tile_query", "engine.tile_query", self._tile_query, False),
            (engine.Engine, "handle_named_interest", "engine.handle_named_interest",
             "engine.named", self._named_interest, False),
            (engine.Engine, "bulk_insert", "engine.bulk_insert", "engine.bulk_insert", None, False),
            (engine.Engine, "_load", "engine.load", "engine.load", None, False),
            (bloom.CountingBloomFilter, "insert", "bloom.cbf.insert", "bloom.cbf", _cbf_change, False),
            (bloom.CountingBloomFilter, "remove", "bloom.cbf.remove", "bloom.cbf", _cbf_change, False),
            (bloom.CountingBloomFilter, "bitmap", "bloom.bitmap", "bloom.bitmap", None, False),
            (bloom.BloomServer, "membership", "bloom.membership", "bloom.membership", None, False),
            (frontend.QueryHandler, "_bf_reduce", "frontend.bf_reduce", "bloom.query", _bf_reduce, False),
            (frontend.QueryHandler, "_resolve_bodies", "frontend.resolve_bodies", "frontend.deref",
             _deref, False),
            (sim.SimSubstrate, "get", "icn.sim.get", "icn.sim.get", None, False),
            (sim.SimSubstrate, "get_many", "icn.sim.get_many", "icn.sim.get", None, False),
            (sockets.SocketSubstrate, "get", "icn.sockets.get", "icn.sockets.get", None, True),
            (sockets.SocketSubstrate, "get_many", "icn.sockets.get_many", "icn.sockets.get", None, True),
            (wire, "write_frame", "icn.wire.write_frame", "icn.wire.write", _frame_bytes, False),
            (wire, "read_frame", "icn.wire.read_frame", "icn.wire.read", None, False),
            (cluster.SimCluster, "__init__", "cluster.SimCluster", "cluster.start", None, False),
            (cluster.SocketCluster, "__init__", "cluster.SocketCluster", "cluster.start", None, False),
            (cluster.SocketCluster, "start", "cluster.SocketCluster.start", "cluster.start", None, False),
            (gtfs.GtfsFeed, "load", "gtfs.GtfsFeed.load", "gtfs", None, False),
            (gtfs, "ingest_gtfs", "gtfs.ingest_gtfs", "gtfs", None, False),
        ]

    def install(self) -> None:
        for owner, attr, name, group, observe, client_only in self._targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = staticmethod(self._wrap(getattr(owner, attr), name, group,
                                                  observe, client_only))
            else:
                wrapped = self._wrap(raw, name, group, observe, client_only)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, fn, name, group, observe, client_only):
        tracer = self
        local = self._local
        ids = self._ids
        spans = self.spans
        lock = self._lock
        calls_key = group + ".calls"
        ms_key = group + ".ms"
        client = threading.get_ident()

        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
                depth = local.depth
            except AttributeError:
                stack = local.stack = []
                depth = local.depth = Counter()
            parent = stack[-1] if stack else op.span
            sid = next(ids)
            outer = depth[group] == 0
            depth[group] += 1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[group] -= 1
                spans.append((sid, name, t0, t1, parent, op.id))
            ms = (t1 - t0) * 1000.0
            with lock:
                counts = op.counts
                counts[calls_key] += 1
                if outer and (not client_only or threading.get_ident() == client):
                    counts[ms_key] += ms
                if observe is not None:
                    observe(counts, args, result, ms)
            return result

        return traced

    # -- observers that need the engine's state --------------------------------

    def _tile_query(self, counts, args, result, ms):
        eng, tile_name = args
        tile = tile_name.tile
        prefix = names.tile_prefix(tile).text
        counts["engine.rows"] += len(eng.tile_tables[tile.level].get(prefix, ()))
        counts["engine.items"] += len(result.items)
        self.tile_samples.append((len(result.items), ms, perf_counter()))

    def _named_interest(self, counts, args, result, ms):
        if "/TILE/" in args[1].name:
            counts["engine.tile_interests"] += 1
        if result is not None and self.mode == "socket":
            counts["sockets.modeled_sleep_ms"] += result[1]

    # -- operations -------------------------------------------------------------

    def begin(self, kind: str) -> Op:
        op = Op(len(self.ops) + 1, kind, next(self._ids))
        self.ops.append(op)
        self.op = op
        return op

    def end(self) -> None:
        op = self.op
        self.op = None
        self.spans.append((op.span, "op." + op.kind, op.t0, perf_counter(), 0, op.id))

    # -- output -----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, ms: each span minus the part of its
        interval that its children cover."""
        children = defaultdict(list)
        for sid, _, t0, t1, parent, _ in self.spans:
            children[parent].append((t0, t1))
        totals: Counter = Counter()
        for sid, name, t0, t1, _, _ in self.spans:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            totals[name] += (t1 - t0 - covered) * 1000.0
        return dict(totals)

    def write(self, path) -> None:
        """One JSON line per operation, then one per span:
        [id, name, start_us, end_us, parent, op], times from the first span."""
        base = min((span[2] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for op in self.ops:
                fh.write(json.dumps({"op": op.id, "kind": op.kind, "span": op.span,
                                     "counts": op.counts}) + "\n")
            for sid, name, t0, t1, parent, op_id in self.spans:
                fh.write(json.dumps([sid, name, round((t0 - base) * 1e6),
                                     round((t1 - base) * 1e6), parent, op_id]) + "\n")
