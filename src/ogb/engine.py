"""The database engine: durable object store, per-level tile indexes, and
the interest handlers for tile queries, data fetches, and IP resolution.

Storage is an in-memory CO-table (full data name to the item's signed wire
bytes, as the owner's client encoded them) plus one tile-table per grid
level, mapping tile-prefix to the names stored under it grouped by (tid,
cid).  A tile query reads only the asked tenant's group and splices the
stored bytes into its listing, so the engine never decodes an item on the
query path; a data fetch serves the stored bytes at the item's freshness.

Durability is a write-ahead log of framed records: a length, a log sequence
number and two CRC32s (of the header and of the body), then the body.  One
record holds one bulk request's accepted items (their wire bytes, each with
the offset of its name inside them) or its deleted names.  A snapshot is one
record of the same framing holding every item; its sequence number is the
last log record it folded, and replay skips any log record at or below it,
so a crash between writing the snapshot and emptying the log loses and
repeats nothing.  A second record keeps the Bloom filter's seq: the
transitions the snapshot folded away, which a restart adds to those it
replays.  A snapshot without it still loads, its seq counted from its
items.  A torn last record is cut on restart; a corrupt complete record
raises `StorageError`, and so does a store in the old line-per-item format
(`log.jsonl`, `snapshot.json`), which this engine does not read.
Restart indexes the stored bytes without decoding them, so a restarted
engine answers queries byte-identically.

A counting Bloom filter tracks per-bucket liveness of the engine's
tile-prefixes; the bucket transitions of each bulk request become one signed
publication (or a few, see `bloom.PUBLICATION_MAX`) for the global filter
server.  A restart does not rebuild the filter item by item: replay records
each stored and dropped item's tile-prefix in order, and the filter applies
that history once (`CountingBloomFilter.replay`), hashing each distinct
prefix once and building no publication.  Its counters end exactly where
one insert or remove per replayed item would leave them, and its sequence
number where the live engine left it.

Each `handle_*_interest` is a producer in the sense of `core.Host`: given
an interest and its name less the `seg=<i>` component, it returns every
signed segment of the named object, and the host answers the asked one.
Tile queries are authorized per interest (a bad signature is dropped without
a response) and answered as signed segments.  A listing's build is kept in
the tile cache with the table version it was read at: a write advances the
version, so the next segment-0 interest gets a fresh build, while a later
segment always comes from the build its segment 0 came from.  A data name
the engine serves but does not hold (a Reference named by a listing cached
before a remove) gets a signed "gone" reply that no content store keeps.
In simulated mode each fresh tile computation reports a processing delay of
c1 + c2 * items, the engine-side share of the query cost model, with the
constants of `perfmodel`.

A client's large range query asks many sibling tiles at once, most of them
empty, so an engine signs listings by group.  A segment-0 tile interest
whose batch path has at least GROUP_MIN_PATH steps (a client batch of more
than 8 tiles) is answered from its listing group: the same-level siblings
of the asked tile (the children of its parent, or a level-0 tile's aligned
block of GROUP_BLOCK x GROUP_BLOCK degrees) that this engine serves, for
the interest's tenant and client id at the current table version.  Each
member's one-segment listing is a Merkle leaf (`trust.batch_leaf`); the
root is signed once, and each listing is served with a batch envelope, so
a client verifies one signature per group.  The group keeps only its tree
and signature, in a bounded LRU of GROUP_CACHE_SIZE groups that a write
invalidates; a listing's bytes are read from its rows again when it is
served.  A listing longer than one segment, and every listing of a smaller
batch, is signed on its own.  Prebuilding a group charges nothing:
`processedQueries`, `tableAccess` and the modeled delay are charged when a
listing is served, as for a listing signed on its own.  Both builds read
rows through `Engine.rows`.

The request-reply protocol of both request channels, the engine's bulk
channel and the Bloom filter service, is written once, here.
`send_request` names every request with a fresh random token, so a name
repeats only when a request is retransmitted, and decodes every reply,
raising `ServiceError` for one that does not decode or that carries
`error`.  `RequestService` is the producer of either channel: it runs a
request at most once, turns a failure into an `error` reply, and replays a
repeated name from its own bounded cache.
"""

from __future__ import annotations

import bisect
import json
import logging
import secrets
import struct
import time
import weakref
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import bloom, grid, names, trust
from .errors import ServiceError, StorageError
from .geodata import OgbData, WireTile, canonical_json, gone_wire, listing_wire
from .grid import TileId
from .icn.core import SEGMENT_SIZE, ContentObject, Interest, build_segments
from .names import (
    DataName,
    IpResName,
    Name,
    TileName,
    parse,
    routing_prefix,
    tile_prefix,
)
from .perfmodel import DEFAULT_C1_MS, DEFAULT_C2_MS

log = logging.getLogger(__name__)

ACCEPTED = "accepted"
REJECTED = "rejected"
NOT_FOUND = "not-found"

BULK_ROOT = names.SCHEME + names.SYSTEM_ROOT + "/bulk"
REPLAY_CAPACITY = 32        # replies a request channel keeps, for retransmissions
TILE_FRESHNESS_MS = 60000.0  # how long a content store keeps a tile listing
IPRES_FRESHNESS_MS = 5000.0  # how long a client keeps a resolved address
# A segment-0 tile interest whose batch path has at least this many steps
# (a batch of more than 8 interests) is answered from its listing group.
GROUP_MIN_PATH = 4
GROUP_BLOCK = 10             # a level-0 group: an aligned block of degrees per axis
GROUP_CACHE_SIZE = 64        # listing groups an engine keeps signed


def bulk_channel(engine_id: str) -> str:
    return "%s/%s" % (BULK_ROOT, engine_id)


def send_request(substrate, root: str, tag: str, payload: bytes, **get_args) -> dict:
    """Send a request under a fresh name, `<root>/<tag>-<token>`, which only
    its retransmissions repeat and nothing parses; its decoded reply, or
    ServiceError for one that is not a JSON object or carries an error."""
    name = "%s/%s-%s" % (root, tag, secrets.token_hex(8))
    try:
        reply = json.loads(substrate.get(name, payload=payload, **get_args).payload)
    except ValueError as exc:
        raise ServiceError("reply to %s does not decode: %s" % (name, exc)) from None
    if not isinstance(reply, dict):
        raise ServiceError("reply to %s is not a JSON object" % name)
    if "error" in reply:
        raise ServiceError(reply["error"])
    return reply


# -- framed records ------------------------------------------------------------

LOG_FILE = "wal.log"
SNAPSHOT_FILE = "snapshot.wal"
OLD_FORMAT_FILES = ("log.jsonl", "snapshot.json")

# A record's head: body length, log sequence number, CRC32 of the body.
# The CRC32 of the head follows it, so a damaged length is not taken for a
# torn tail.
_HEAD = struct.Struct("<IQI")
_CRC = struct.Struct("<I")
_HEADER_SIZE = _HEAD.size + _CRC.size
# Per item of an insert record: wire length, offset of the name in the wire.
_ITEM = struct.Struct("<II")
_INSERT = b"I"
_DELETE = b"D"
# A snapshot's second record: how many Bloom filter transitions it folded
# away, the filter's seq less the buckets its items hold.
_FOLDED = struct.Struct("<cQ")
_SEQ = b"S"
_NAME_KEY = b',"name":"'
_MARKER = "/" + names.GRID_MARKER
_ROW_SPLIT = "%s/%s/" % (_MARKER, names.DATA_MARKER)
_CHILDREN = ["/%d%d%s" % (dx, dy, _MARKER) for dx in range(grid.SIDE)
             for dy in range(grid.SIDE)]


def _frame(seq: int, body: bytes) -> bytes:
    head = _HEAD.pack(len(body), seq, zlib.crc32(body))
    return head + _CRC.pack(zlib.crc32(head)) + body


def read_frames(data: bytes, path) -> tuple[list[tuple[int, memoryview]], int]:
    """The complete records of `data` as (seq, body), and where they end.

    Bytes past that end are a torn last record: its header or its body was
    cut short.  A complete record whose CRC fails raises StorageError.
    Bodies are views into `data`, not copies.
    """
    records = []
    data = memoryview(data)
    pos, size = 0, len(data)
    while size - pos >= _HEADER_SIZE:
        head = data[pos:pos + _HEAD.size]
        length, seq, body_crc = _HEAD.unpack(head)
        if zlib.crc32(head) != _CRC.unpack_from(data, pos + _HEAD.size)[0]:
            raise StorageError("%s: corrupt record header at byte %d" % (path, pos))
        start = pos + _HEADER_SIZE
        if start + length > size:
            break
        body = data[start:start + length]
        if zlib.crc32(body) != body_crc:
            raise StorageError("%s: corrupt record %d at byte %d" % (path, seq, pos))
        records.append((seq, body))
        pos = start + length
    return records, pos


def _name_offset(wire: bytes, name_text: str) -> int:
    """Where an item's own name starts in its canonical wire bytes: after
    the last `,"name":"<name>"`, since the keys are sorted (body, bodyType,
    freshnessMs, name, signature) and the signature holds no name key."""
    return wire.rindex(_NAME_KEY + name_text.encode("ascii") + b'"') + len(_NAME_KEY)


def _freshness_of(wire: bytes, name_text: str) -> int:
    """An item's freshnessMs, read off its wire bytes: the number just
    before its name."""
    end = _name_offset(wire, name_text) - len(_NAME_KEY)
    return int(wire[wire.rindex(b":", 0, end) + 1:end])


def _insert_body(entries) -> bytes:
    """An insert record: each (name, wire) as its wire bytes plus the offset
    of the name inside them, so the name is not stored twice."""
    parts = [_INSERT]
    for name_text, wire in entries:
        parts += (_ITEM.pack(len(wire), _name_offset(wire, name_text)), wire)
    return b"".join(parts)


def _insert_entries(body: memoryview):
    """(name, wire) of each item of an insert record, without decoding the
    wire: the name runs from its offset to the next quote."""
    pos, size = 1, len(body)
    while pos < size:
        length, offset = _ITEM.unpack_from(body, pos)
        pos += _ITEM.size
        wire = bytes(body[pos:pos + length])
        pos += length
        yield wire[offset:wire.index(b'"', offset)].decode("ascii"), wire


def _row_of(name_text: str) -> tuple[str, int, str]:
    """Tile-prefix, level and "tid/cid" of a data name, by its text."""
    cut = name_text.index(_ROW_SPLIT)
    start = cut + len(_ROW_SPLIT)
    end = name_text.index("/", name_text.index("/", start) + 1)
    return (name_text[:cut + len(_MARKER)], name_text.count("/", 0, cut) - 3,
            name_text[start:end])


def _listing_group(tile: TileId) -> tuple[str, list[str]]:
    """What names a tile's listing group, and the tile-prefixes of its
    members: the children of the tile's parent, or for a level-0 tile its
    aligned block of GROUP_BLOCK x GROUP_BLOCK degrees."""
    if tile.digits:
        parent = "%s%s/%d/%d%s" % (names.SCHEME, names.ROOT, tile.lng0, tile.lat0,
                                   "".join("/%d%d" % pair for pair in tile.digits[:-1]))
        return parent, [parent + child for child in _CHILDREN]
    lng, lat = tile.lng0 - tile.lng0 % GROUP_BLOCK, tile.lat0 - tile.lat0 % GROUP_BLOCK
    return "%d/%d" % (lng, lat), [
        "%s%s/%d/%d%s" % (names.SCHEME, names.ROOT, x, y, _MARKER)
        for x in range(lng, lng + GROUP_BLOCK) for y in range(lat, lat + GROUP_BLOCK)]


@dataclass
class EngineConfig:
    engine_id: str
    served_prefixes: list[str]
    host: str = ""
    port: int = 0
    cache_capacity: int = 4096
    bf_m: int = bloom.DEFAULT_M
    bf_h: int = bloom.DEFAULT_H


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


class RequestService:
    """The producer of a request channel: `handle(request, interest)` turns
    a decoded request into its reply, and what it raises into an `error`
    reply.  Replies are segmented, signed by `sign` if given, and kept by
    name, so a retransmission never runs a request twice."""

    def __init__(self, handle: Callable[[dict, Interest], bytes], sign=None):
        self.handle = handle
        self.sign = sign
        self._replies = LruCache(REPLAY_CAPACITY)

    def __call__(self, interest: Interest, base: Name):
        base_text = base.text
        segments = self._replies.get(base_text)
        if segments is None:
            try:
                reply = self.handle(json.loads(interest.payload), interest)
            except Exception as exc:
                log.warning("request %s failed: %s", base_text, exc)
                reply = canonical_json({"error": str(exc)})
            segments = build_segments(base, reply, 0.0, self.sign)
            self._replies.put(base_text, segments)
        return segments, 0.0


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
        # Per level: tile-prefix -> "tid/cid" -> sorted names.
        self.tile_tables: list[dict[str, dict[str, list[str]]]] = [{} for _ in range(3)]
        self.table_access = [0, 0, 0]
        self.cbf = bloom.CountingBloomFilter(config.bf_m, config.bf_h,
                                             engine_id=config.engine_id)
        self.processed_queries = 0
        self.rejected_interests = 0
        # Called with segment 0 of each new publication.
        self.publish_sink: Optional[Callable[[ContentObject], None]] = None
        self.bf_log: dict[int, list[ContentObject]] = {}   # by first seq

        self._served = [Name.from_text(p).text for p in config.served_prefixes]
        # Tile name -> (table version it was built at, its segments).
        self._tile_cache = LruCache(128)
        # (level, parent, "tid/cid") -> (table version it was signed at, its
        # signature, its Merkle tree's levels, leaf index by member prefix).
        self._groups = LruCache(GROUP_CACHE_SIZE)
        self._version = 0            # advanced by every write
        me = weakref.proxy(self)     # no cycle: a dropped engine is freed at once
        self.handle_service_interest = RequestService(partial(Engine._request, me),
                                                      partial(Engine._sign, me))
        self._log_seq = 0            # last log record written or folded
        self.log_records = 0         # replayed at the last start
        self.load_ms = 0.0
        if self.storage_dir is not None:
            self.storage_dir.mkdir(parents=True, exist_ok=True)
            t0 = time.perf_counter()
            self._load()
            self.load_ms = (time.perf_counter() - t0) * 1000.0

    # -- partitioning ------------------------------------------------------

    def serves(self, tile) -> bool:
        return self._served_prefix(routing_prefix(tile).text) is not None

    def _served_prefix(self, routing: str) -> Optional[str]:
        """The served prefix a routing prefix falls under, by its text."""
        return next((served for served in self._served
                     if routing == served or routing.startswith(served + "/")), None)

    # -- storage -----------------------------------------------------------

    @property
    def item_count(self) -> int:
        return len(self.co_table)

    def _sign(self, name_text: str, payload: bytes) -> trust.TrustEnvelope:
        return trust.sign_envelope(self.keypair, self.certificate, name_text, payload)

    def _put(self, name_text: str, wire: bytes) -> Optional[str]:
        """Store an item; its tile-prefix if the name is new, None on an
        upsert, which leaves the liveness counters unchanged."""
        if name_text in self.co_table:
            self.co_table[name_text] = wire
            return None
        self.co_table[name_text] = wire
        prefix, level, key = _row_of(name_text)
        bisect.insort(self.tile_tables[level].setdefault(prefix, {}).setdefault(key, []),
                      name_text)
        return prefix

    def _drop(self, name_text: str) -> str:
        """Remove a stored item; its tile-prefix."""
        del self.co_table[name_text]
        prefix, level, key = _row_of(name_text)
        rows = self.tile_tables[level][prefix]
        group = rows[key]
        group.remove(name_text)
        if not group:
            del rows[key]
            if not rows:
                del self.tile_tables[level][prefix]
        return prefix

    def bulk_insert(self, items: list[OgbData]) -> list[ItemStatus]:
        statuses = []
        pubs: list[bloom.BfPublication] = []
        accepted: list[tuple[str, bytes]] = []
        for item in items:
            name_text = item.name.name.text
            if not self.serves(item.name.tile):
                statuses.append(ItemStatus(name_text, REJECTED, "unserved-prefix"))
                continue
            ok, reason = item.verify(self.trust_store)
            if not ok:
                statuses.append(ItemStatus(name_text, REJECTED, reason))
                continue
            wire = item.to_wire()
            prefix = self._put(name_text, wire)
            if prefix is not None:
                pubs += self.cbf.insert(prefix)
            accepted.append((name_text, wire))
            statuses.append(ItemStatus(name_text, ACCEPTED))
        if accepted:
            self._append_log(_insert_body(accepted))
        self._version += 1
        self._emit(pubs)
        return statuses

    def bulk_delete(self, name_texts: list[str],
                    signer_identity: Optional[str]) -> list[ItemStatus]:
        statuses = []
        pubs: list[bloom.BfPublication] = []
        deleted: list[str] = []
        for name_text in name_texts:
            try:
                parsed = parse(name_text)
            except Exception:
                statuses.append(ItemStatus(name_text, REJECTED, "bad-name"))
                continue
            if not isinstance(parsed, DataName):
                statuses.append(ItemStatus(name_text, REJECTED, "bad-name"))
                continue
            if signer_identity != trust.user_identity(parsed.tid, parsed.uid):
                statuses.append(ItemStatus(name_text, REJECTED,
                                           trust.REASON_IDENTITY_RULE))
                continue
            if name_text not in self.co_table:
                statuses.append(ItemStatus(name_text, NOT_FOUND))
                continue
            pubs += self.cbf.remove(self._drop(name_text))
            deleted.append(name_text)
            statuses.append(ItemStatus(name_text, ACCEPTED))
        if deleted:
            self._append_log(_DELETE + "\n".join(deleted).encode("ascii"))
        self._version += 1
        self._emit(pubs)
        return statuses

    def _emit(self, pubs: list[bloom.BfPublication]) -> None:
        for chunk in bloom.publication_chunks(pubs):
            contents = self.make_publication_content(chunk)
            self.bf_log[chunk[0].seq] = contents
            if self.publish_sink is not None:
                self.publish_sink(contents[0])

    # -- bloom publications ------------------------------------------------

    def make_publication_content(self, pubs: Sequence[bloom.BfPublication],
                                 ) -> list[ContentObject]:
        """The signed segments of one publication of consecutive transitions."""
        base = bloom.publication_name(self.config.engine_id, pubs[0].seq)
        return build_segments(base, bloom.encode_publication(pubs),
                              freshness_ms=3600 * 1000.0, sign=self._sign)

    def handle_bf_interest(self, interest: Interest, base: Name):
        """Serve a publication by its first sequence number, or hold the PIT
        for one not yet published."""
        try:
            contents = self.bf_log.get(int(base.components[-1]))
        except ValueError:
            return None
        return None if contents is None else (contents, 0.0)

    def digest_payload(self) -> bytes:
        return bloom.encode_digest(self.cbf.seq, self.cbf.bitmap())

    # -- query path --------------------------------------------------------

    def rows(self, level: int, prefix: str, key: str) -> list[bytes]:
        """The stored wire bytes of the "tid/cid" group `key` under a
        tile-prefix, by name: the one row reader of every listing build."""
        rows = self.tile_tables[level].get(prefix)
        group = rows.get(key, ()) if rows else ()
        return [self.co_table[name] for name in group]

    def tile_query(self, tile_name: TileName) -> WireTile:
        """The stored wire bytes of every item under the tile-prefix with the
        query's tenant and client id, by name; reads exactly one level's
        table and only that tenant's rows."""
        tile = tile_name.tile
        self.table_access[tile.level] += 1
        return WireTile(tile_name, self.rows(tile.level, tile_prefix(tile).text,
                                             tile_name.tid + "/" + tile_name.cid),
                        int(TILE_FRESHNESS_MS))

    def _tile_response(self, interest: Interest, tile_name: TileName):
        base_text = tile_name.name.text
        ok, _reason = self.trust_store.verify_tile_interest(
            interest.name, interest.payload, interest.envelope, tid=tile_name.tid)
        if not ok:
            self.rejected_interests += 1
            return None                          # silent drop
        first = interest.name.endswith("/seg=0")
        cached = self._tile_cache.get(base_text)
        # A later segment comes from the build its segment 0 came from.
        if cached is not None and (cached[0] == self._version or not first):
            return cached[1], 0.0
        if not self.serves(tile_name.tile):
            return None
        path = interest.envelope.path
        grouped = None
        if first and path is not None and len(path) >= GROUP_MIN_PATH:
            grouped = self._grouped_listing(tile_name)
        if grouped is None:
            tile = self.tile_query(tile_name)
            contents = build_segments(tile_name.name, tile.to_wire(), TILE_FRESHNESS_MS,
                                      self._sign)
            items = len(tile.items)
        else:
            contents, items = grouped
        self.processed_queries += 1
        delay = DEFAULT_C1_MS + DEFAULT_C2_MS * items
        self._tile_cache.put(base_text, (self._version, contents))
        return contents, delay

    def _grouped_listing(self, tile_name: TileName):
        """The listing of `tile_name` as one member of its listing group:
        ([its one segment, under the group's batch envelope], its item
        count), or None for a listing longer than one segment.  Prebuilding
        the group charges nothing; this listing is charged as `tile_query`
        charges it."""
        tile = tile_name.tile
        key = tile_name.tid + "/" + tile_name.cid
        parent, members = _listing_group(tile)
        entry = self._groups.get((tile.level, parent, key))
        if entry is None or entry[0] != self._version:
            entry = self._sign_group(tile.level, parent, members, key)
            self._groups.put((tile.level, parent, key), entry)
        _version, signature, levels, leaves = entry
        prefix = tile_prefix(tile).text
        leaf = leaves.get(prefix)
        if leaf is None:
            return None
        self.table_access[tile.level] += 1
        items = self.rows(tile.level, prefix, key)
        payload = listing_wire(tile_name.name.text, items, int(TILE_FRESHNESS_MS))
        envelope = trust.TrustEnvelope(self.certificate.name.text, signature,
                                       trust.merkle_path(levels, leaf))
        return [ContentObject(tile_name.name.text + "/seg=0", payload, TILE_FRESHNESS_MS,
                              envelope, 0)], len(items)

    def _sign_group(self, level: int, parent: str, members: list[str], key: str):
        """Sign, as one Merkle batch, the segment 0 of each one-segment
        listing for `key` of the `members` this engine serves; built from
        prefix text and stored bytes alone, as `WireTile.to_wire` splices
        them.  (table version, signature, tree levels, leaf by prefix)."""
        leaves: list[bytes] = []
        index: dict[str, int] = {}
        tail = "/%s/%s" % (names.TILE_MARKER, key)
        # A served parent serves all its children; a level-0 block is checked
        # tile by tile.
        all_served = level > 0 and self._served_prefix(parent) is not None
        for prefix in members:
            if not all_served and self._served_prefix(prefix[:-len(_MARKER)]) is None:
                continue
            name_text = prefix + tail
            payload = listing_wire(name_text, self.rows(level, prefix, key),
                                   int(TILE_FRESHNESS_MS))
            if len(payload) > SEGMENT_SIZE:
                continue                 # keeps its own signature
            index[prefix] = len(leaves)
            leaves.append(trust.batch_leaf(name_text + "/seg=0", payload))
        levels = trust.merkle_levels(leaves)
        signature = trust.sign_root(self.keypair, levels[-1][0]) if leaves else b""
        return self._version, signature, levels, index

    def _data_response(self, data_name: DataName):
        name_text = data_name.name.text
        wire = self.co_table.get(name_text)
        if wire is not None:
            payload, freshness = wire, float(_freshness_of(wire, name_text))
        elif self.serves(data_name.tile):
            # Freshness 0: no content store keeps it, so a later insert
            # of the name is seen at once.
            payload, freshness = gone_wire(name_text), 0.0
        else:
            return None
        return build_segments(data_name.name, payload, freshness, self._sign), 0.0

    def _ipres_response(self, ipres: IpResName):
        served = self._served_prefix(routing_prefix(ipres.tile).text)
        if served is None:
            return None
        payload = canonical_json({"engineId": self.config.engine_id,
                                  "host": self.config.host,
                                  "port": self.config.port,
                                  "prefix": served})
        return build_segments(ipres.name, payload, IPRES_FRESHNESS_MS, self._sign), 0.0

    def handle_named_interest(self, interest: Interest, base: Name):
        """Producer for the engine's served prefixes: tile queries, stored
        data fetches, and address resolution."""
        try:
            parsed = parse(base)
        except Exception:
            return None
        if isinstance(parsed, TileName):
            return self._tile_response(interest, parsed)
        if isinstance(parsed, DataName):
            return self._data_response(parsed)
        if isinstance(parsed, IpResName):
            return self._ipres_response(parsed)
        return None

    # -- bulk service channel ----------------------------------------------

    def _request(self, request: dict, interest: Interest) -> bytes:
        """The bulk channel's reply to an insert, delete, digest or status."""
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
        raise ServiceError("unknown service op %r" % (op,))

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
            "loadMs": self.load_ms,
            "logRecords": self.log_records,
        }

    def reset_counters(self) -> None:
        self.processed_queries = 0
        self.rejected_interests = 0
        self.table_access = [0, 0, 0]

    def clear_response_caches(self) -> None:
        """Empty the tile and listing-group caches; request replies stay,
        for retransmissions."""
        self._tile_cache.clear()
        self._groups.clear()

    # -- persistence ---------------------------------------------------------

    def _log_path(self) -> Path:
        return self.storage_dir / LOG_FILE

    def _snapshot_path(self) -> Path:
        return self.storage_dir / SNAPSHOT_FILE

    def _append_log(self, body: bytes) -> None:
        if self.storage_dir is None:
            return
        self._log_seq += 1
        with self._log_path().open("ab") as fh:
            fh.write(_frame(self._log_seq, body))

    def snapshot(self) -> None:
        """Fold the log into a snapshot that records the last sequence it
        folded; the log restarts empty."""
        if self.storage_dir is None:
            return
        body = _insert_body((name, self.co_table[name]) for name in sorted(self.co_table))
        seq = _FOLDED.pack(_SEQ, self.cbf.seq - self.cbf.live_buckets())
        tmp = self._snapshot_path().with_suffix(".tmp")
        tmp.write_bytes(_frame(self._log_seq, body) + _frame(self._log_seq, seq))
        tmp.replace(self._snapshot_path())
        self._log_path().write_bytes(b"")

    def _replay(self, path: Path, seq: int, body: bytes,
                changes: list[tuple[str, int]]) -> None:
        """Apply one record to the tables; append its Bloom filter changes
        to `changes` as (tile-prefix, +1 stored | -1 dropped)."""
        try:
            if body[:1] == _INSERT:
                for name_text, wire in _insert_entries(body):
                    prefix = self._put(name_text, wire)
                    if prefix is not None:
                        changes.append((prefix, 1))
            elif body[:1] == _DELETE:
                for name_text in bytes(body[1:]).decode("ascii").split("\n"):
                    changes.append((self._drop(name_text), -1))
            else:
                raise ValueError("unknown record kind %r" % body[:1])
        except (ValueError, IndexError, KeyError, struct.error) as exc:
            raise StorageError("%s: record %d is malformed: %s"
                               % (path, seq, exc)) from exc

    def _load(self) -> None:
        for old in OLD_FORMAT_FILES:
            if (self.storage_dir / old).exists():
                raise StorageError("%s is an engine store in the old line "
                                   "format, which is no longer read"
                                   % (self.storage_dir / old))
        changes: list[tuple[str, int]] = []
        folded = folded_away = 0
        snapshot = self._snapshot_path()
        if snapshot.exists():
            data = snapshot.read_bytes()
            records, end = read_frames(data, snapshot)
            if len(records) not in (1, 2) or end != len(data):
                raise StorageError("%s is not one complete snapshot" % snapshot)
            folded, body = records[0]
            self._replay(snapshot, folded, body, changes)
            if len(records) == 2:
                tail = bytes(records[1][1])
                if len(tail) != _FOLDED.size or tail[:1] != _SEQ:
                    raise StorageError("%s: its second record is not a filter "
                                       "seq" % snapshot)
                folded_away = _FOLDED.unpack(tail)[1]
        self._log_seq = folded
        log_path = self._log_path()
        data = log_path.read_bytes() if log_path.exists() else b""
        records, end = read_frames(data, log_path)
        if end < len(data):
            # A torn append: cut it so the next record starts cleanly.
            with log_path.open("r+b") as fh:
                fh.truncate(end)
        for seq, body in records:
            if seq <= folded:
                continue                 # folded by the snapshot already
            if seq != self._log_seq + 1:
                raise StorageError("%s: record %d follows record %d"
                                   % (log_path, seq, self._log_seq))
            self._replay(log_path, seq, body, changes)
            self._log_seq = seq
            self.log_records += 1
        self.cbf.replay(changes)
        # Replaying the snapshot's items counts one transition per bucket
        # they hold; the filter goes on from the seq it had.
        self.cbf.seq += folded_away
