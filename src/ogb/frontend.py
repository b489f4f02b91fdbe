"""Client-side orchestration: the query-handler and the insert-handler.

A range query runs in phases: tessellate the box under the tile-count
constraint, optionally drop void tiles via the Bloom filter service, issue
one signed tile-query per remaining tile with a bounded window, validate
every returned item, dereference stored-once bodies (each canonical object
fetched at most once per query), then dedupe and post-filter.  A listing
speaks only for the tile name it was asked for: a listing under another
name, and a listed item of another tile or tenant, are dropped and counted
as rejected before any signature is checked.  The segment-0 interests of
one query are signed as one batch (`trust.sign_batch`): one Ed25519
signature for the query, which an engine checks once, while the
certificate, chain and tenant checks still run on every interest.  A later
segment's interest is signed on its own.  Ed25519 signatures are
deterministic, so a repeated query over the same tiles sends the same bytes.

The write path mirrors the read path's routing: each item's responsible
engine is found with an address-resolution GET, cached per served prefix, and
items travel in one bulk request per engine over its service channel.

Both request channels, an engine's bulk channel and the Bloom filter
service, are asked through `engine.send_request`: a fresh name per request,
so two handlers of one user are independent sessions, and one decoder for
every reply, which raises `ServiceError` for an error reply.  Nothing that
does not decode escapes raw: a listing marks its tile failed, a
dereferenced body counts as rejected, and an address, Bloom or bulk reply
that does not answer what was sent raises `ServiceError`.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Union

from . import tessellation, trust
from .bloom import BF_QUERY_ROOT
from .engine import ACCEPTED, ItemStatus, bulk_channel, send_request
from .errors import (
    AuthorizationError,
    ConfigError,
    OgbError,
    PartialResultError,
    ServiceError,
    ValidationError,
)
from .geodata import (
    INLINE,
    QUERY_MODES,
    GeoFeature,
    OgbData,
    OgbTile,
    canonical_json,
    dedupe_features,
    is_gone,
    make_ogb_data_set,
    parse_feature,
    post_filter,
)
from .grid import BoundingBox
from .names import IpResName, Name, TileName, routing_prefix, segment_name, tile_prefix

log = logging.getLogger(__name__)

DEFAULT_K = 50
DEFAULT_WINDOW = 8
DEFAULT_FRESHNESS_MS = 60000


@dataclass
class Credentials:
    """A user keypair plus its certificate; signs interests and items."""

    tid: str
    uid: str
    keypair: trust.KeyPair
    certificate: trust.Certificate

    @property
    def identity(self) -> str:
        return self.certificate.identity

    def sign(self, name_text: str, payload: bytes) -> trust.TrustEnvelope:
        return trust.sign_envelope(self.keypair, self.certificate,
                                   name_text, payload)


@dataclass
class RangeQuery:
    bbox: BoundingBox
    mode: str
    tid: str
    cid: str
    k: int = DEFAULT_K
    use_bf: bool = False
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        if self.mode not in QUERY_MODES:
            raise ConfigError("unknown query mode %r" % (self.mode,))
        if self.k < 1:
            raise ConfigError("k must be >= 1, got %d" % self.k)
        if self.window < 1:
            raise ConfigError("window must be >= 1, got %d" % self.window)


@dataclass
class QueryReport:
    features: list[GeoFeature]
    timing: dict[str, float]
    counts: dict[str, int]
    constraint_violated: bool

    def to_dict(self) -> dict:
        return {
            "features": [f.to_geojson() for f in self.features],
            "timing": dict(self.timing),
            "counts": dict(self.counts),
            "constraintViolated": self.constraint_violated,
        }


@dataclass
class InsertReport:
    """Per-item outcomes of one bulk write, in input item order."""

    statuses: list[ItemStatus]
    engines: list[str]
    resolutions: int

    @property
    def all_accepted(self) -> bool:
        return all(s.status == ACCEPTED for s in self.statuses)

    def to_dict(self) -> dict:
        return {
            "statuses": [s.to_dict() for s in self.statuses],
            "engines": list(self.engines),
            "resolutions": self.resolutions,
        }


def _decoded(cls, result):
    """`cls.from_wire` of a fetched payload; None for a failed fetch or for
    a payload that does not decode."""
    if isinstance(result, Exception):
        return None
    try:
        return cls.from_wire(result.payload)
    except (OgbError, ValueError, KeyError, TypeError, AttributeError):
        return None


class _SubstrateClient:
    """Shared plumbing: per-segment response and per-item validation."""

    def __init__(self, substrate, trust_store: trust.TrustStore,
                 credentials: Credentials):
        self.substrate = substrate
        self.trust_store = trust_store
        self.credentials = credentials

    def _validate_segment(self, content) -> None:
        """Accept an engine's segment: a listing, a body, an address or a
        bulk reply, which only an engine may sign."""
        ok, reason = self.trust_store.verify(content.name, content.payload,
                                             content.envelope, signer=trust.is_engine)
        if not ok:
            raise ValidationError(reason or "integrity",
                                  "bad response segment %s" % content.name)

    def _validate_item(self, item: OgbData) -> bool:
        ok, reason = item.verify(self.trust_store)
        if not ok:
            log.debug("dropping %s: %s", item.name.name.text, reason)
        return ok


class QueryHandler(_SubstrateClient):
    """Resolves range queries in two phases: tile-querying and post-filtering."""

    def range_query(self, query: RangeQuery) -> QueryReport:
        if not trust.is_user_of(self.credentials.identity, query.tid):
            raise AuthorizationError(
                "identity %s may not query tenant %s"
                % (self.credentials.identity, query.tid))

        now = self.substrate.now_ms
        t0 = now()
        tess = tessellation.constrained(query.bbox, query.k)
        t1 = now()
        tiles = tess.tiles
        if query.use_bf:
            tiles = self._bf_reduce(tiles)
        t2 = now()

        items, rejected, failed = self._query_tiles(tiles, query)
        features, ref_fetches, ref_rejected, ref_failed = self._resolve_bodies(items, query)
        rejected += ref_rejected
        failed += ref_failed
        t3 = now()

        kept = post_filter(dedupe_features(features), query.bbox, query.mode)
        t4 = now()

        report = QueryReport(
            features=kept,
            timing={
                "tessellationMs": t1 - t0,
                "bfMs": t2 - t1,
                "tileQueryBatchMs": t3 - t2,
                "postFilterMs": t4 - t3,
            },
            counts={
                "tilesTessellated": len(tess.tiles),
                "tilesQueried": len(tiles),
                "itemsFetched": len(items) + ref_fetches,
                "itemsRejected": rejected,
                "itemsAfterFilter": len(kept),
            },
            constraint_violated=tess.constraint_violated,
        )
        if failed:
            raise PartialResultError(failed, report)
        return report

    def _bf_reduce(self, tiles: list) -> list:
        bits = send_request(self.substrate, BF_QUERY_ROOT, "q", canonical_json(
            {"op": "bf-query", "prefixes": [tile_prefix(t).text for t in tiles]})).get("bits")
        if not isinstance(bits, list) or len(bits) != len(tiles):
            raise ServiceError("the Bloom service answered %d prefixes with %r"
                               % (len(tiles), bits))
        return [tile for tile, bit in zip(tiles, bits) if bit]

    def _query_tiles(self, tiles: list, query: RangeQuery):
        tile_names = [TileName(tile, query.tid, query.cid) for tile in tiles]
        creds = self.credentials
        firsts = [segment_name(tile_name.name, 0).text for tile_name in tile_names]
        batch = dict(zip(firsts, trust.sign_batch(
            creds.keypair, creds.certificate, [(name, b"") for name in firsts])))

        def sign(name_text: str, payload: bytes) -> trust.TrustEnvelope:
            return batch.get(name_text) or creds.sign(name_text, payload)

        requests = [{
            "name": tile_name.name.text,
            "sign": sign,
            "validator": self._validate_segment,
        } for tile_name in tile_names]
        results = self.substrate.get_many(requests, window=query.window)

        items: list[OgbData] = []
        rejected = 0
        failed: list[str] = []
        for tile_name, result in zip(tile_names, results):
            listing = _decoded(OgbTile, result)
            if listing is None:
                failed.append(tile_name.name.text)
                continue
            if listing.name != tile_name:
                log.debug("dropping listing %s: asked for %s",
                          listing.name.name.text, tile_name.name.text)
                rejected += len(listing.items)
                continue
            for item in listing.items:
                # A listing speaks only for its own tile and tenant.
                name = item.name
                if (name.tile, name.tid, name.cid) != (tile_name.tile, tile_name.tid,
                                                       tile_name.cid):
                    log.debug("dropping %s: not of listing %s",
                              name.name.text, tile_name.name.text)
                    rejected += 1
                elif self._validate_item(item):
                    items.append(item)
                else:
                    rejected += 1
        return items, rejected, failed

    def _resolve_bodies(self, items: list[OgbData], query: RangeQuery):
        """Inline bodies directly; References through a per-query memo so each
        canonical object travels at most once."""
        memo: dict[str, GeoFeature] = {}
        order: list[str] = []
        for item in items:
            name_text = item.name.name.text
            if item.body_type == INLINE:
                memo[name_text] = item.body
                order.append(name_text)
            else:
                order.append(item.body.name.text)

        missing = sorted({name for name in order if name not in memo})
        rejected = 0
        failed: list[str] = []
        if missing:
            requests = [{"name": name, "validator": self._validate_segment}
                        for name in missing]
            results = self.substrate.get_many(requests, window=query.window)
            for name, result in zip(missing, results):
                if isinstance(result, Exception):
                    failed.append(name)
                    continue
                # Gone: removed after the listing naming it was cached.
                item = None if is_gone(result.payload) else _decoded(OgbData, result)
                if item is None or item.body_type != INLINE \
                        or item.name.name.text != name or not self._validate_item(item):
                    rejected += 1
                    continue
                memo[name] = item.body
        features = [memo[name] for name in order if name in memo]
        return features, len(missing) - len(failed), rejected, failed


class InsertHandler(_SubstrateClient):
    """The write path: resolve responsible engines, then push per-engine
    bulk requests over their service channels."""

    def __init__(self, substrate, trust_store, credentials: Credentials):
        super().__init__(substrate, trust_store, credentials)
        # Served prefix -> (engine address, expiry); one entry per prefix.
        self._addresses: dict[tuple[str, ...], tuple[dict, float]] = {}
        self.resolutions = 0                 # IP-RES gets made

    def insert(self, feature: Union[GeoFeature, dict, bytes],
               freshness_ms: int = DEFAULT_FRESHNESS_MS) -> InsertReport:
        f = self._own_feature(feature)
        items = make_ogb_data_set(f, freshness_ms)
        for item in items:
            item.signature = self.credentials.sign(item.name.name.text,
                                                   item.signed_payload())
        return self._push(items, op="insert")

    def remove(self, feature: Union[GeoFeature, dict, bytes]) -> InsertReport:
        f = self._own_feature(feature)
        items = make_ogb_data_set(f, DEFAULT_FRESHNESS_MS)
        return self._push(items, op="delete")

    def _own_feature(self, feature) -> GeoFeature:
        f = feature if isinstance(feature, GeoFeature) else parse_feature(feature)
        if f.tid != self.credentials.tid or f.uid != self.credentials.uid:
            raise AuthorizationError(
                "feature owner %s/%s does not match credentials %s/%s"
                % (f.tid, f.uid, self.credentials.tid, self.credentials.uid))
        return f

    def resolve(self, tile) -> dict:
        """The engine behind a tile, via one IP-RES GET per served prefix."""
        comps = routing_prefix(tile).components
        now = self.substrate.now_ms()
        for prefix_comps, (info, expiry) in self._addresses.items():
            if comps[:len(prefix_comps)] == prefix_comps and now < expiry:
                return info
        result = self.substrate.get(IpResName(tile).name.text,
                                    validator=self._validate_segment)
        self.resolutions += 1
        try:
            info = json.loads(result.payload)
            prefix = Name.from_text(info["prefix"]).components
            if not isinstance(info["engineId"], str):
                raise TypeError("engineId is not a string")
        except (ValueError, KeyError, TypeError, AttributeError, OgbError) as exc:
            raise ServiceError("address reply for %s does not decode: %r"
                               % (result.name, exc)) from None
        self._addresses[prefix] = (info, now + result.segments[0].freshness_ms)
        return info

    def _push(self, items: list[OgbData], op: str) -> InsertReport:
        groups: dict[str, list[OgbData]] = {}
        resolutions_before = self.resolutions
        for item in items:
            info = self.resolve(item.name.tile)
            groups.setdefault(info["engineId"], []).append(item)

        replies = []
        for engine_id in sorted(groups):
            group = groups[engine_id]
            if op == "insert":
                # canonical_json({"op": "insert", "items": [...]}), spliced
                # from each item's wire form with no copy of its feature.
                payload = b'{"items":[%s],"op":"insert"}' % b",".join(
                    item.to_wire() for item in group)
            else:
                payload = canonical_json({"op": "delete",
                                          "names": [item.name.name.text for item in group]})
            replies.append(send_request(self.substrate, bulk_channel(engine_id), op,
                                        payload, sign=self.credentials.sign,
                                        validator=self._validate_segment))
        try:
            by_name = {status["name"]: ItemStatus.from_dict(status)
                       for reply in replies for status in reply["statuses"]}
            statuses = [by_name[item.name.name.text] for item in items]
        except (KeyError, TypeError) as exc:
            raise ServiceError("the replies lack a status: %r" % exc) from None
        return InsertReport(
            statuses=statuses,
            engines=sorted(groups),
            resolutions=self.resolutions - resolutions_before,
        )
