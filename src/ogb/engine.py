"""The database engine: durable object store, per-level tile indexes, and
the interest handlers for tile queries, data fetches, and IP resolution.

Storage is an in-memory CO-table (full data name to wire bytes) plus one
tile-table per grid level mapping tile-prefix to the names stored under it.
Durability comes from an append log replayed over the latest snapshot, so a
restarted engine answers queries byte-identically.  A counting Bloom filter
tracks per-bucket liveness of the engine's tile-prefixes; bucket transitions
become publications for the global filter server.

Tile queries are authorized per interest (a bad signature is dropped without
a response), filtered by tenant and client id, and answered as signed
segments.  In simulated mode each fresh tile computation reports a
processing delay of c1 + c2 * items, the engine-side share of the query
cost model.
"""

from __future__ import annotations

import json
import logging
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from . import bloom, names, trust
from .errors import StorageError
from .geodata import OgbData, OgbTile, canonical_json
from .icn.core import ContentObject, Interest, build_segments
from .names import (
    DataName,
    IpResName,
    Name,
    SegmentName,
    TileName,
    parse,
    routing_prefix,
    tile_prefix,
)

log = logging.getLogger(__name__)

ACCEPTED = "accepted"
REJECTED = "rejected"
NOT_FOUND = "not-found"

BULK_ROOT = names.SCHEME + names.SYSTEM_ROOT + "/bulk"


def bulk_channel(engine_id: str) -> str:
    return "%s/%s" % (BULK_ROOT, engine_id)


@dataclass
class EngineConfig:
    engine_id: str
    served_prefixes: list[str]
    host: str = ""
    port: int = 0
    cache_capacity: int = 4096
    tile_freshness_ms: float = 60000.0
    ipres_freshness_ms: float = 5000.0
    proc_base_ms: float = 3.0
    proc_per_item_ms: float = 0.008
    bf_m: int = bloom.DEFAULT_M
    bf_h: int = bloom.DEFAULT_H

    def to_dict(self) -> dict:
        return {
            "id": self.engine_id,
            "servedPrefixes": list(self.served_prefixes),
            "address": {"host": self.host, "port": self.port},
            "cacheCapacity": self.cache_capacity,
            "tileFreshnessMs": self.tile_freshness_ms,
            "ipresFreshnessMs": self.ipres_freshness_ms,
            "procBaseMs": self.proc_base_ms,
            "procPerItemMs": self.proc_per_item_ms,
        }

    @classmethod
    def from_dict(cls, data: dict, bf_m: int = bloom.DEFAULT_M,
                  bf_h: int = bloom.DEFAULT_H) -> "EngineConfig":
        address = data.get("address", {})
        return cls(
            engine_id=data["id"],
            served_prefixes=list(data["servedPrefixes"]),
            host=address.get("host", ""),
            port=int(address.get("port", 0)),
            cache_capacity=int(data.get("cacheCapacity", 4096)),
            tile_freshness_ms=float(data.get("tileFreshnessMs", 60000.0)),
            ipres_freshness_ms=float(data.get("ipresFreshnessMs", 5000.0)),
            proc_base_ms=float(data.get("procBaseMs", 3.0)),
            proc_per_item_ms=float(data.get("procPerItemMs", 0.008)),
            bf_m=bf_m,
            bf_h=bf_h,
        )


@dataclass
class ItemStatus:
    name: str
    status: str
    reason: Optional[str] = None

    def to_dict(self) -> dict:
        d = {"name": self.name, "status": self.status}
        if self.reason is not None:
            d["reason"] = self.reason
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ItemStatus":
        return cls(data["name"], data["status"], data.get("reason"))


class LruCache:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: OrderedDict = OrderedDict()

    def get(self, key):
        value = self._items.get(key)
        if value is not None:
            self._items.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._items[key] = value
        self._items.move_to_end(key)
        while len(self._items) > self.capacity:
            self._items.popitem(last=False)

    def clear(self) -> None:
        self._items.clear()


class Engine:
    """One shard: stores OgbData under its served prefixes and answers
    tile/data/address interests for them."""

    def __init__(self, config: EngineConfig, keypair: trust.KeyPair,
                 certificate: trust.Certificate, trust_store: trust.TrustStore,
                 storage_dir: Optional[str] = None):
        self.config = config
        self.keypair = keypair
        self.certificate = certificate
        self.trust_store = trust_store
        self.storage_dir = Path(storage_dir) if storage_dir else None

        self.co_table: dict[str, bytes] = {}
        self.tile_tables: list[dict[str, set[str]]] = [{} for _ in range(3)]
        self.table_access = [0, 0, 0]
        self.cbf = bloom.CountingBloomFilter(config.bf_m, config.bf_h,
                                             engine_id=config.engine_id)
        self.processed_queries = 0
        self.rejected_interests = 0
        self.publish_sink: Optional[Callable[[bloom.BfPublication], None]] = None
        self.bf_log: dict[int, ContentObject] = {}

        self._served = [Name.from_text(p).components for p in config.served_prefixes]
        self._tile_cache = LruCache(128)
        self._service_cache = LruCache(32)
        if self.storage_dir is not None:
            self.storage_dir.mkdir(parents=True, exist_ok=True)
            self._load()

    # -- partitioning ------------------------------------------------------

    def serves(self, tile) -> bool:
        comps = routing_prefix(tile).components
        return any(comps[:len(served)] == served for served in self._served)

    # -- storage -----------------------------------------------------------

    @property
    def item_count(self) -> int:
        return len(self.co_table)

    def _sign(self, name_text: str, payload: bytes) -> trust.TrustEnvelope:
        return trust.sign_envelope(self.keypair, self.certificate, name_text, payload)

    def _prefix_of(self, data_name: DataName) -> tuple[str, int]:
        tile = data_name.tile
        return tile_prefix(tile).text, tile.level

    def _apply_insert(self, item: OgbData, record: bool = True,
                      ) -> list[bloom.BfPublication]:
        name_text = item.name.name.text
        prefix, level = self._prefix_of(item.name)
        pubs: list[bloom.BfPublication] = []
        if name_text in self.co_table:
            # Upsert: replace content, liveness counters unchanged.
            self.co_table[name_text] = item.to_wire()
        else:
            self.co_table[name_text] = item.to_wire()
            self.tile_tables[level].setdefault(prefix, set()).add(name_text)
            pubs = self.cbf.insert(prefix)
        if record:
            self._append_log({"op": "insert", "item": item.to_dict()})
        return pubs

    def _apply_delete(self, name_text: str, record: bool = True,
                      ) -> list[bloom.BfPublication]:
        wire = self.co_table.pop(name_text)
        item = OgbData.from_wire(wire)
        prefix, level = self._prefix_of(item.name)
        rows = self.tile_tables[level].get(prefix)
        if rows is not None:
            rows.discard(name_text)
            if not rows:
                del self.tile_tables[level][prefix]
        pubs = self.cbf.remove(prefix)
        if record:
            self._append_log({"op": "delete", "name": name_text})
        return pubs

    def bulk_insert(self, items: list[OgbData]) -> list[ItemStatus]:
        statuses = []
        pubs: list[bloom.BfPublication] = []
        for item in items:
            name_text = item.name.name.text
            if not self.serves(item.name.tile):
                statuses.append(ItemStatus(name_text, REJECTED, "unserved-prefix"))
                continue
            ok, reason = self.trust_store.verify_data_content(
                name_text, item.signed_payload(), item.signature,
                tid=item.name.tid, uid=item.name.uid)
            if not ok:
                statuses.append(ItemStatus(name_text, REJECTED, reason))
                continue
            pubs += self._apply_insert(item)
            statuses.append(ItemStatus(name_text, ACCEPTED))
        self._tile_cache.clear()
        self._emit(pubs)
        return statuses

    def bulk_delete(self, name_texts: list[str],
                    signer_identity: Optional[str]) -> list[ItemStatus]:
        statuses = []
        pubs: list[bloom.BfPublication] = []
        for name_text in name_texts:
            try:
                parsed = parse(name_text)
            except Exception:
                statuses.append(ItemStatus(name_text, REJECTED, "bad-name"))
                continue
            if not isinstance(parsed, DataName):
                statuses.append(ItemStatus(name_text, REJECTED, "bad-name"))
                continue
            rule = self.trust_store.rules.data_content_signer
            if signer_identity is None or not trust.identity_matches(
                    rule, signer_identity, {"tid": parsed.tid, "uid": parsed.uid}):
                statuses.append(ItemStatus(name_text, REJECTED,
                                           trust.REASON_IDENTITY_RULE))
                continue
            if name_text not in self.co_table:
                statuses.append(ItemStatus(name_text, NOT_FOUND))
                continue
            pubs += self._apply_delete(name_text)
            statuses.append(ItemStatus(name_text, ACCEPTED))
        self._tile_cache.clear()
        self._emit(pubs)
        return statuses

    def _emit(self, pubs: list[bloom.BfPublication]) -> None:
        for pub in pubs:
            content = self.make_publication_content(pub)
            self.bf_log[pub.seq] = content
            if self.publish_sink is not None:
                self.publish_sink(pub)

    # -- bloom publications ------------------------------------------------

    def make_publication_content(self, pub: bloom.BfPublication) -> ContentObject:
        base = bloom.publication_name(pub.engine_id, pub.seq)
        payload = canonical_json(pub.to_dict())
        return build_segments(base, payload, freshness_ms=3600 * 1000.0,
                              sign=self._sign)[0]

    def handle_bf_interest(self, interest: Interest):
        """Serve a published transition by sequence number, or hold the PIT
        for one not yet published."""
        comps = Name.from_text(interest.name).components
        try:
            seq = int(comps[-2])
        except (ValueError, IndexError):
            return None
        content = self.bf_log.get(seq)
        if content is None:
            return None
        return content, 0.0

    def digest_payload(self) -> bytes:
        return bloom.encode_digest(self.cbf.seq, self.cbf.bitmap())

    # -- query path --------------------------------------------------------

    def tile_query(self, tile_name: TileName) -> OgbTile:
        """All stored items under the tile-prefix with the query's tenant and
        client id; reads exactly one level's table."""
        tile = tile_name.tile
        prefix = tile_prefix(tile).text
        self.table_access[tile.level] += 1
        rows = self.tile_tables[tile.level].get(prefix, ())
        items = []
        for name_text in sorted(rows):
            item = OgbData.from_wire(self.co_table[name_text])
            if item.name.tid == tile_name.tid and item.name.cid == tile_name.cid:
                items.append(item)
        return OgbTile(tile_name, items, int(self.config.tile_freshness_ms))

    def _tile_response(self, interest: Interest, tile_name: TileName,
                       seg_index: int):
        base_text = tile_name.name.text
        ok, _reason = self.trust_store.verify_tile_interest(
            interest.name, interest.payload, interest.envelope, tid=tile_name.tid)
        if not ok:
            self.rejected_interests += 1
            return None                          # silent drop
        cached = self._tile_cache.get(base_text)
        if cached is not None:
            if seg_index >= len(cached):
                return None
            return cached[seg_index], 0.0
        if not self.serves(tile_name.tile):
            return None
        tile = self.tile_query(tile_name)
        self.processed_queries += 1
        delay = self.config.proc_base_ms + self.config.proc_per_item_ms * len(tile.items)
        contents = build_segments(tile_name.name, tile.to_wire(),
                                  self.config.tile_freshness_ms, self._sign)
        self._tile_cache.put(base_text, contents)
        if seg_index >= len(contents):
            return None
        return contents[seg_index], delay

    def _data_response(self, data_name: DataName, seg_index: int):
        wire = self.co_table.get(data_name.name.text)
        if wire is None:
            return None
        item = OgbData.from_wire(wire)
        contents = build_segments(data_name.name, wire,
                                  float(item.freshness_ms), self._sign)
        if seg_index >= len(contents):
            return None
        return contents[seg_index], 0.0

    def _ipres_response(self, ipres: IpResName, seg_index: int):
        comps = routing_prefix(ipres.tile).components
        served = next((s for s in self._served if comps[:len(s)] == s), None)
        if served is None:
            return None
        payload = canonical_json({"engineId": self.config.engine_id,
                                  "host": self.config.host,
                                  "port": self.config.port,
                                  "prefix": Name(served).text})
        contents = build_segments(ipres.name, payload,
                                  self.config.ipres_freshness_ms, self._sign)
        if seg_index >= len(contents):
            return None
        return contents[seg_index], 0.0

    def handle_named_interest(self, interest: Interest):
        """Producer for the engine's served prefixes: tile queries, stored
        data fetches, and address resolution."""
        try:
            parsed = parse(interest.name)
        except Exception:
            return None
        if not isinstance(parsed, SegmentName):
            return None
        inner, seg_index = parsed.base, parsed.index
        if isinstance(inner, TileName):
            return self._tile_response(interest, inner, seg_index)
        if isinstance(inner, DataName):
            return self._data_response(inner, seg_index)
        if isinstance(inner, IpResName):
            return self._ipres_response(inner, seg_index)
        return None

    # -- bulk service channel ----------------------------------------------

    def handle_service_interest(self, interest: Interest):
        """Producer for the engine's bulk channel: insert, delete, digest."""
        base, seg_index = names.split_segment(Name.from_text(interest.name))
        base_text = base.text
        cached = self._service_cache.get(base_text)
        if cached is None:
            try:
                reply = self._service_reply(interest, base_text)
            except Exception as exc:
                log.warning("service request failed: %s", exc)
                reply = canonical_json({"error": str(exc)})
            cached = build_segments(base, reply, 0.0, self._sign)
            self._service_cache.put(base_text, cached)
        if seg_index is None or seg_index >= len(cached):
            return None
        return cached[seg_index], 0.0

    def _service_reply(self, interest: Interest, base_text: str) -> bytes:
        request = json.loads(interest.payload.decode("utf-8"))
        op = request.get("op")
        if op == "insert":
            items = [OgbData.from_dict(d) for d in request["items"]]
            statuses = self.bulk_insert(items)
            return canonical_json({"statuses": [s.to_dict() for s in statuses]})
        if op == "delete":
            identity = self._request_identity(interest)
            statuses = self.bulk_delete(request["names"], identity)
            return canonical_json({"statuses": [s.to_dict() for s in statuses]})
        if op == "digest":
            return self.digest_payload()
        if op == "status":
            return canonical_json(self.status())
        raise StorageError("unknown service op %r" % (op,))

    def _request_identity(self, interest: Interest) -> Optional[str]:
        """Verified identity of the service request's signer, if any."""
        ok, _reason = self.trust_store.verify(interest.name, interest.payload,
                                              interest.envelope)
        if not ok or interest.envelope is None:
            return None
        cert = self.trust_store.get_certificate(interest.envelope.key_locator)
        return cert.identity if cert else None

    # -- status ------------------------------------------------------------

    def status(self) -> dict:
        return {
            "engineId": self.config.engine_id,
            "items": self.item_count,
            "processedQueries": self.processed_queries,
            "rejectedInterests": self.rejected_interests,
            "tableAccess": list(self.table_access),
            "cbfSeq": self.cbf.seq,
            "servedPrefixes": list(self.config.served_prefixes),
        }

    def reset_counters(self) -> None:
        self.processed_queries = 0
        self.rejected_interests = 0
        self.table_access = [0, 0, 0]

    def clear_response_caches(self) -> None:
        self._tile_cache.clear()
        self._service_cache.clear()

    # -- persistence ---------------------------------------------------------

    def _log_path(self) -> Path:
        return self.storage_dir / "log.jsonl"

    def _snapshot_path(self) -> Path:
        return self.storage_dir / "snapshot.json"

    def _append_log(self, entry: dict) -> None:
        if self.storage_dir is None:
            return
        with self._log_path().open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")

    def snapshot(self) -> None:
        """Fold the log into a snapshot; the log restarts empty."""
        if self.storage_dir is None:
            return
        items = [json.loads(self.co_table[name].decode("utf-8"))
                 for name in sorted(self.co_table)]
        tmp = self._snapshot_path().with_suffix(".tmp")
        tmp.write_text(json.dumps({"items": items}), encoding="utf-8")
        tmp.replace(self._snapshot_path())
        self._log_path().write_text("", encoding="utf-8")

    def _load(self) -> None:
        snapshot = self._snapshot_path()
        if snapshot.exists():
            data = json.loads(snapshot.read_text(encoding="utf-8"))
            for item_dict in data.get("items", []):
                self._apply_insert(OgbData.from_dict(item_dict), record=False)
        log_path = self._log_path()
        if not log_path.exists():
            return
        raw = log_path.read_bytes()
        lines = raw.split(b"\n")
        if lines[-1]:
            # A record is committed by its newline; an unterminated last line
            # is a torn append.  Cut it so the next append starts a new line.
            with log_path.open("r+b") as fh:
                fh.truncate(len(raw) - len(lines[-1]))
        for number, line in enumerate(lines[:-1], 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError as exc:
                raise StorageError("%s line %d is corrupt: %s"
                                   % (log_path, number, exc)) from exc
            if entry["op"] == "insert":
                self._apply_insert(OgbData.from_dict(entry["item"]), record=False)
            elif entry["op"] == "delete" and entry["name"] in self.co_table:
                # A missing name was already folded out by a snapshot that
                # crashed before it could empty the log.
                self._apply_delete(entry["name"], record=False)
