"""Seeded inputs of the three workloads: the preloaded world, the snapshot
tail and the closed-loop operation stream.

Generation never looks at what the program returns, so one seed always
yields the same operations, byte for byte (see `plan_bytes`).  Sampling is
stratified rather than independent: feature positions, cluster centres and
box centres come from jittered grids over the region, feature kinds come in
shuffled blocks of fixed shares, and every block of twelve queries covers
the twelve strata of the log-uniform side range and the twelve (k, mode,
Bloom) combinations once each, paired by a cyclic Latin square.  Two seeds
therefore differ in where things fall, not in how many large boxes or how
dense a corner they happen to draw; that keeps the run-to-run spread of the
latency percentiles small.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass

CID = "poi"
KS = (10, 50, 200)
MODES = ("intersect", "include")
# The two modes of each (k, Bloom) pair sit six places apart, so the Latin
# design in `Plan._query_block` gives each pair one box from the lower and one
# from the upper half of the side range in every block.
QUERY_COMBOS = tuple((k, mode, bf) for mode, k, bf
                     in itertools.product(MODES, KS, (False, True)))
LATIN_STEP = 5              # coprime with 12: 12 blocks give each combo every stratum
CLUSTER_SHARE = 4           # one position in four falls in a dense cluster
CLUSTER_SIGMA = 0.02        # degrees
CROSSING_PER_BLOCK = 2      # boxes per query block centred on a 1-degree corner
TAIL_FRAC = 0.2             # share of the world inserted after the snapshot
FEED_STOPS = (50, 200)      # stop-count range of transit feeds


@dataclass(frozen=True)
class Spec:
    """One workload.  Every size here is fixed by the workload, never by the
    seed or by how fast the program runs."""

    name: str
    mode: str                 # "sim" or "socket"
    config: str               # repo config the cluster is built from
    tenants: int
    users_per_tenant: int
    region: tuple             # (min_lng, min_lat, max_lng, max_lat)
    crossing: tuple           # a 1-degree grid corner inside the region
    preload: int              # features of the world
    remove_frac: float        # share of the world removed after the snapshot
    kinds: tuple              # world feature kinds, one shuffled block at a time
    clusters: int             # dense cluster centres
    side_range: tuple         # query box side range, degrees, log-uniform
    hot_blocks: int           # the hot set holds 12 boxes per block
    block: tuple              # op kinds of one block of the timed stream
    shuffle_block: bool
    ops_per_s: float          # timed-loop operations per requested second
    setups: int               # set-ups per run; setup_s is their median
    restarts: int             # restarts after each set-up; restart_s is their median
    sweep_hot: int            # hot boxes in the post-run exact sweep
    sweep_cold: int           # cold boxes in the post-run exact sweep


SPECS = {
    "sim-read": Spec(
        name="sim-read", mode="sim", config="configs/quickstart.json",
        tenants=3, users_per_tenant=2,
        region=(12.0, 41.0, 14.0, 43.0), crossing=(13.0, 42.0),
        preload=480, remove_frac=0.15,
        kinds=("insert-point",) * 6 + ("insert-multi",) * 4, clusters=6,
        side_range=(0.01, 1.0), hot_blocks=4,
        # Half the queries repeat a hot box; the pattern keeps hot and cold
        # queries balanced between the traced and the untraced operations.
        block=("query-hot", "query-cold", "query-cold", "query-hot"),
        shuffle_block=False,
        ops_per_s=36.0,
        setups=3, restarts=4, sweep_hot=12, sweep_cold=12),
    "sim-write": Spec(
        name="sim-write", mode="sim", config="configs/four-zones.json",
        tenants=2, users_per_tenant=2,
        region=(-1.0, 51.0, 1.0, 53.0), crossing=(0.0, 52.0),
        preload=120, remove_frac=0.05,
        kinds=("insert-point",) * 5 + ("insert-multi",) * 3 + ("insert-straddle",) * 2,
        clusters=4, side_range=(0.01, 0.05), hot_blocks=1,
        block=(("insert-point",) * 6 + ("insert-multi",) * 5
               + ("insert-straddle",) * 3 + ("insert-feed",) * 2
               + ("remove",) * 2 + ("query-near",) * 2),
        shuffle_block=True,
        ops_per_s=72.0,
        setups=3, restarts=3, sweep_hot=12, sweep_cold=12),
    "socket-mixed": Spec(
        name="socket-mixed", mode="socket", config="configs/quickstart.json",
        tenants=2, users_per_tenant=2,
        region=(12.4, 41.8, 12.7, 42.1), crossing=(12.5, 41.9),
        preload=150, remove_frac=0.2,
        kinds=("insert-point",) * 6 + ("insert-multi",) * 4, clusters=3,
        side_range=(0.01, 0.1), hot_blocks=2,
        block=(("query-hot",) * 4 + ("query-cold",) * 4
               + ("insert-point", "insert-multi")),
        shuffle_block=True,
        ops_per_s=20.0,
        setups=3, restarts=5, sweep_hot=12, sweep_cold=12),
}


def users(spec: Spec) -> list[tuple[str, str]]:
    return [("T%d" % t, "U%d" % u)
            for t in range(spec.tenants) for u in range(spec.users_per_tenant)]


def feature(tid: str, uid: str, oid: int, positions: list) -> dict:
    if len(positions) == 1:
        geometry = {"type": "Point", "coordinates": list(positions[0])}
    else:
        geometry = {"type": "MultiPoint",
                    "coordinates": [list(p) for p in positions]}
    return {"type": "Feature", "geometry": geometry,
            "properties": {"oid": oid, "tid": tid, "uid": uid, "cid": CID}}


def feed_feature(tid: str, uid: str, oid: int, url: str, stops: list) -> dict:
    """What `gtfs.ingest_gtfs` must return for these stops, built here
    independently so the oracle also checks the ingest."""
    return {"type": "Feature",
            "geometry": {"type": "MultiPoint",
                         "coordinates": [[lng, lat] for lng, lat in stops]},
            "properties": {"oid": oid, "tid": tid, "cid": CID, "uid": uid,
                           "URL": url}}


def stops_text(stops: list) -> str:
    lines = ["stop_id,stop_name,stop_lat,stop_lon"]
    for i, (lng, lat) in enumerate(stops):
        lines.append("s%d,Stop %d,%r,%r" % (i, i, lat, lng))
    return "\n".join(lines) + "\n"


def _identity(feature_dict: dict) -> tuple:
    p = feature_dict["properties"]
    return (p["tid"], p["cid"], p["uid"], str(p["oid"]))


def _jittered(rng: random.Random, n: int, box: tuple) -> list[tuple]:
    """n points over the box, each in its own cell of a near-square grid."""
    lo_lng, lo_lat, hi_lng, hi_lat = box
    cols = max(1, math.ceil(math.sqrt(n)))
    rows = max(1, math.ceil(n / cols))
    cells = rng.sample(range(cols * rows), n)
    w, h = (hi_lng - lo_lng) / cols, (hi_lat - lo_lat) / rows
    return [(lo_lng + (c % cols + rng.random()) * w,
             lo_lat + (c // cols + rng.random()) * h) for c in cells]


class Plan:
    """The world and the operation stream of one (workload, seed)."""

    def __init__(self, spec: Spec, seed: int):
        self.spec = spec
        self.seed = seed
        self.users = users(spec)
        self._rng = rng = random.Random("%s:%d" % (spec.name, seed))
        self.centres = _jittered(rng, spec.clusters, spec.region)
        self._next_oid = {u: 0 for u in self.users}
        self._live: dict[tuple, dict] = {}     # identity -> op that wrote it
        self._recent: list[tuple] = []         # positions of recent non-feed writes
        self._user_turn = itertools.cycle(self.users)
        self._position_pool: list[tuple] = []
        self._feed_starts: list[tuple] = []
        self._kind_pool: list[str] = []
        self._cold: list[dict] = []
        self._blocks = 0
        self.hot = [q for _ in range(spec.hot_blocks) for q in self._query_block(hot=True)]
        self._hot_order: list[dict] = []

        world = [self._insert(self._world_kind()) for _ in range(spec.preload)]
        split = int(round(spec.preload * (1.0 - TAIL_FRAC)))
        self.before_snapshot = world[:split]
        tail = world[split:]
        # Tail removes take features the snapshot already holds, Points and
        # MultiPoints in the world's shares.
        tail_ids = {_identity(op["feature"]) for op in tail}
        removes = [self._remove(exclude=tail_ids, geometry=self._geometry(self._world_kind()))
                   for _ in range(int(round(spec.preload * spec.remove_frac)))]
        # Interleave the tail removes evenly among the tail inserts.
        step = max(1, len(tail) // max(1, len(removes)))
        self.tail = []
        for i, op in enumerate(tail):
            self.tail.append(op)
            if removes and (i + 1) % step == 0:
                self.tail.append(removes.pop(0))
        self.tail += removes
        self.sweep = (self.hot[:spec.sweep_hot]
                      + self._query_block(hot=False)[:spec.sweep_cold])

    # -- world ----------------------------------------------------------------

    def _world_kind(self) -> str:
        if not self._kind_pool:
            self._kind_pool = list(self.spec.kinds)
            self._rng.shuffle(self._kind_pool)
        return self._kind_pool.pop()

    def _position(self) -> tuple:
        """Next position from a shuffled batch: three in four on a jittered
        grid over the region, one in four around a cluster centre."""
        if not self._position_pool:
            rng = self._rng
            lo_lng, lo_lat, hi_lng, hi_lat = self.spec.region
            batch = _jittered(rng, 48, self.spec.region)
            for i in range(48 // (CLUSTER_SHARE - 1)):
                c_lng, c_lat = self.centres[i % len(self.centres)]
                batch.append((min(max(rng.gauss(c_lng, CLUSTER_SIGMA), lo_lng), hi_lng - 1e-9),
                              min(max(rng.gauss(c_lat, CLUSTER_SIGMA), lo_lat), hi_lat - 1e-9)))
            rng.shuffle(batch)
            self._position_pool = batch
        return self._position_pool.pop()

    def _positions(self, kind: str) -> list:
        rng = self._rng
        if kind == "insert-point":
            return [self._position()]
        if kind == "insert-multi":
            first = self._position()
            rest = [(first[0] + rng.uniform(-0.05, 0.05),
                     first[1] + rng.uniform(-0.05, 0.05))
                    for _ in range(rng.randint(1, 3))]
            return [first] + rest
        # Straddles the region's grid corner in longitude, so on the
        # four-zone cluster the feature fans out to two engines.
        lng0, _ = self.spec.crossing
        lat = rng.uniform(self.spec.region[1], self.spec.region[3])
        west = (lng0 - rng.uniform(0.001, 0.05), lat)
        east = (lng0 + rng.uniform(0.001, 0.05), lat + rng.uniform(-0.02, 0.02))
        return [west, east] + ([self._position()] if rng.random() < 0.5 else [])

    def _insert(self, kind: str) -> dict:
        user = next(self._user_turn)
        tid, uid = user
        oid = self._next_oid[user]
        self._next_oid[user] += 1
        if kind == "insert-feed":
            rng = self._rng
            # Routes start on their own jittered grid, never in a dense
            # cluster, so no seed stacks a feed's stops onto a cluster.
            if not self._feed_starts:
                self._feed_starts = _jittered(rng, 16, self.spec.region)
            lng, lat = self._feed_starts.pop()
            stops = []
            for _ in range(rng.randint(*FEED_STOPS)):
                lng += rng.gauss(0.0, 0.004)
                lat += rng.gauss(0.0, 0.004)
                stops.append((lng, lat))
            url = "https://feeds.example/%s/%s/%d.zip" % (tid, uid, oid)
            op = {"op": "feed", "user": [tid, uid], "oid": oid, "url": url,
                  "stops": [list(s) for s in stops],
                  "feature": feed_feature(tid, uid, oid, url, stops)}
        else:
            positions = self._positions(kind)
            op = {"op": "insert", "user": [tid, uid],
                  "feature": feature(tid, uid, oid, positions)}
            self._recent = (self._recent + [tuple(positions[0])])[-16:]
        self._live[_identity(op["feature"])] = op
        return op

    @staticmethod
    def _geometry(kind: str) -> str:
        return "Point" if kind == "insert-point" else "MultiPoint"

    def _remove(self, exclude=frozenset(), geometry=None) -> dict:
        candidates = [i for i in sorted(set(self._live) - exclude)
                      if geometry is None
                      or self._live[i]["feature"]["geometry"]["type"] == geometry]
        ident = self._rng.choice(candidates)
        written = self._live.pop(ident)
        return {"op": "remove", "user": written["user"],
                "feature": written["feature"]}

    # -- queries --------------------------------------------------------------

    def _query_block(self, hot: bool, near: bool = False) -> list[dict]:
        rng = self._rng
        lo, hi = self.spec.side_range
        n = len(QUERY_COMBOS)
        shift = LATIN_STEP * self._blocks
        self._blocks += 1
        sides = [lo * (hi / lo) ** (((i + shift) % n + rng.random()) / n) for i in range(n)]
        combos = list(QUERY_COMBOS)
        if near and self._recent:
            # Centred on recent Point and MultiPoint writes; a box centred in
            # a transit feed's dense stops would make a few runs' tails.
            centres = [rng.choice(self._recent) for _ in range(n)]
        else:
            # Some boxes cross the 1-degree cell boundaries.
            centres = _jittered(rng, len(combos) - CROSSING_PER_BLOCK, self.spec.region)
            centres += [self.spec.crossing] * CROSSING_PER_BLOCK
            rng.shuffle(centres)
        queries = []
        for side, centre, (k, mode, bf) in zip(sides, centres, combos):
            tid, uid = next(self._user_turn)
            c_lng = centre[0] + rng.uniform(-side / 4, side / 4)
            c_lat = centre[1] + rng.uniform(-side / 4, side / 4)
            box = [c_lng - side / 2, c_lat - side / 2, c_lng + side / 2, c_lat + side / 2]
            queries.append({"op": "query", "user": [tid, uid], "box": box, "k": k,
                            "mode": mode, "bf": bf, "hot": hot})
        rng.shuffle(queries)
        return queries

    def _query(self, kind: str) -> dict:
        if kind == "query-hot":
            if not self._hot_order:
                self._hot_order = list(self.hot)
                self._rng.shuffle(self._hot_order)
            return self._hot_order.pop()
        if not self._cold:
            self._cold = self._query_block(hot=False, near=kind == "query-near")
        return self._cold.pop()

    # -- the timed stream -----------------------------------------------------

    def ops(self):
        """The endless closed-loop operation stream."""
        while True:
            block = list(self.spec.block)
            if self.spec.shuffle_block:
                self._rng.shuffle(block)
            for kind in block:
                if kind.startswith("query"):
                    yield self._query(kind)
                elif kind == "remove":
                    yield self._remove()
                else:
                    yield self._insert(kind)


def plan_bytes(workload: str, seed: int, timed_ops: int) -> bytes:
    """Canonical bytes of everything the benchmark feeds the program for a
    seed: the world, the tail, the sweep and the first `timed_ops` ops."""
    plan = Plan(SPECS[workload], seed)
    data = {"before": plan.before_snapshot, "tail": plan.tail,
            "sweep": plan.sweep,
            "ops": list(itertools.islice(plan.ops(), timed_ops))}
    return json.dumps(data, sort_keys=True).encode("utf-8")
