"""Brute-force oracle: what a range query must return, from the benchmark's
own record of every feature it wrote.

Results are compared on the full (tid, cid, uid, oid) identity and on the
feature body.  A mismatch is classified, never dropped: `KNOWN_DEFECT` marks
a result whose only fault is the documented oid-only dedupe (every missing
feature has a twin, another user's feature with the same tenant, collection
and oid, lying in a tile the query fetched); every other mismatch is
`WRONG`.  Both count as failed.  `STALE_REFERENCE` marks a query that
failed only because a cached tile listing still named a feature removed since
(see `World.all_removed`); it counts as failed too.
"""

from __future__ import annotations

import json

OK = "ok"
KNOWN_DEFECT = "known-defect"
STALE_REFERENCE = "stale-reference"
WRONG = "wrong"


def identity(feature_dict: dict) -> tuple:
    p = feature_dict["properties"]
    return (str(p["tid"]), str(p["cid"]), str(p["uid"]), str(p["oid"]))


def canonical(feature_dict: dict) -> str:
    return json.dumps(feature_dict, sort_keys=True, separators=(",", ":"))


def _positions(feature_dict: dict) -> list:
    geometry = feature_dict["geometry"]
    coords = geometry["coordinates"]
    return [coords] if geometry["type"] == "Point" else coords


def matches(feature_dict: dict, box, mode: str) -> bool:
    min_lng, min_lat, max_lng, max_lat = box
    inside = [min_lng <= lng <= max_lng and min_lat <= lat <= max_lat
              for lng, lat in _positions(feature_dict)]
    return any(inside) if mode == "intersect" else all(inside)


class World:
    """Every feature the benchmark has written, with its liveness."""

    def __init__(self):
        self.bodies: dict[tuple, str] = {}
        self.features: dict[tuple, dict] = {}
        self.live: set[tuple] = set()
        self.settled: set[tuple] = set()    # live and untouched since `settle`
        self.twins: dict[tuple, list] = {}   # (tid, cid, oid) -> identities

    def insert(self, feature_dict: dict) -> None:
        ident = identity(feature_dict)
        if ident not in self.features:
            self.twins.setdefault((ident[0], ident[1], ident[3]), []).append(ident)
        self.features[ident] = feature_dict
        self.bodies[ident] = canonical(feature_dict)
        self.live.add(ident)
        self.settled.discard(ident)

    def remove(self, feature_dict: dict) -> None:
        ident = identity(feature_dict)
        self.live.discard(ident)
        self.settled.discard(ident)

    def all_removed(self, names) -> bool:
        """Whether every name is the data name of a feature written and
        since removed, as in `ndn:/OGB/<tile>/GPS-ID/DATA/<tid>/<cid>/<uid>/<oid>`."""
        def removed(name):
            _, sep, tail = name.rpartition("/DATA/")
            ident = tuple(tail.split("/"))
            return bool(sep) and ident in self.features and ident not in self.live
        return bool(names) and all(removed(n) for n in names)

    def settle(self) -> None:
        """Mark the current live set as old enough to be required."""
        self.settled = set(self.live)

    def _select(self, idents, tid: str, cid: str, box, mode: str) -> set:
        return {i for i in idents
                if i[0] == tid and i[1] == cid
                and matches(self.features[i], box, mode)}

    def check(self, got: list[dict], tid: str, cid: str, box, mode: str,
              exact: bool, cover=lambda: ()) -> tuple[str, str]:
        """Classify one result; returns (verdict, detail).

        Exact: the result equals the live features of the box.  Otherwise
        the bounded staleness the design permits is allowed: every settled
        feature of the box must be there, and nothing the tenant never wrote
        there may be.  `cover` returns the half-open boxes of the tiles the
        query fetched; it is only called to classify a missing feature."""
        got_ids = [identity(f) for f in got]
        if len(set(got_ids)) != len(got_ids):
            return WRONG, "duplicate features"
        for f, ident in zip(got, got_ids):
            body = self.bodies.get(ident)
            if body is not None and body != canonical(f):
                return WRONG, "body differs for %r" % (ident,)
        got_set = set(got_ids)
        if exact:
            required = allowed = self._select(self.live, tid, cid, box, mode)
        else:
            required = self._select(self.settled, tid, cid, box, mode)
            allowed = self._select(self.features, tid, cid, box, mode)
        extra = got_set - allowed
        missing = required - got_set
        if extra:
            return WRONG, "unexpected %r" % sorted(extra)[:3]
        if not missing:
            return OK, ""
        tiles = cover()

        def fetched(ident):
            return any(x0 <= lng < x1 and y0 <= lat < y1
                       for lng, lat in _positions(self.features[ident])
                       for x0, y0, x1, y1 in tiles)

        def has_fetched_twin(m):
            return any(i[2] != m[2] and fetched(i)
                       for i in self.twins[(m[0], m[1], m[3])])

        if all(has_fetched_twin(m) for m in missing):
            return KNOWN_DEFECT, "missing same-oid twins %r" % sorted(missing)[:3]
        return WRONG, "missing %r" % sorted(missing)[:3]
