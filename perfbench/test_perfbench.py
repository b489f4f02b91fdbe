"""Tests of the benchmark itself; run by hand, not by the repo's test suite:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import io
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle                                   # noqa: E402
import run                                      # noqa: E402  (puts src/ on the path)
from ogb.errors import PartialResultError       # noqa: E402
from workloads import CID, SPECS, feature, plan_bytes  # noqa: E402

SOCKET_ONLY = ("icn.sockets.", "icn.wire.")
SIM_ONLY = ("icn.sim.",)
# Metrics whose layer only one workload exercises with the tiny run below.
HOME = {
    "gtfs.load_ms_per_feed": "sim-write",
    "engine.tile_cache_hit_frac": "sim-read",
}


def tiny(workload: str):
    # sim-read keeps its full world: only then do 1-degree tile listings
    # span several segments, the only tile-cache hits a short run can see.
    preload = SPECS[workload].preload if workload == "sim-read" else 40
    return dataclasses.replace(SPECS[workload], preload=preload, setups=1,
                               restarts=1, sweep_hot=2, sweep_cold=2)


def tiny_run(workload: str, trace: bool, ops: int = 40, seed: int = 3) -> dict:
    return run.run(workload, seed, seconds=120.0, trace=trace, max_ops=ops,
                   spec=tiny(workload), out=io.StringIO())


def test_every_per_layer_metric_is_measured_where_its_layer_runs():
    results = {w: tiny_run(w, trace=True, ops=60) for w in SPECS}
    names = set(results["sim-read"]["metrics"])
    for workload, result in results.items():
        assert set(result["metrics"]) == names, workload
        assert result["correct"], workload
    for name in sorted(names):
        values = {w: r["metrics"][name]["value"] for w, r in results.items()}
        home = "socket-mixed" if name.startswith(SOCKET_ONLY) else HOME.get(name, "sim-read")
        assert values[home] != 0, (name, home, values)
        if name.startswith(SOCKET_ONLY):
            assert values["sim-read"] == values["sim-write"] == 0, name
        if name.startswith(SIM_ONLY):
            assert values["socket-mixed"] == 0, name


def test_same_seed_gives_identical_inputs():
    for workload in SPECS:
        first = plan_bytes(workload, 11, timed_ops=300)
        assert first == plan_bytes(workload, 11, timed_ops=300)
        assert first != plan_bytes(workload, 12, timed_ops=300)


def test_same_seed_gives_identical_counts_on_sim_workloads():
    counts = ("geodata.items_per_insert", "tessellation.tiles_per_query",
              "trust.sign_calls_per_insert", "icn.sim.virtual_ms_per_query")
    for workload in ("sim-read", "sim-write"):
        a = tiny_run(workload, trace=True)
        b = tiny_run(workload, trace=True)
        assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"]), workload
        for name in counts:
            assert a["metrics"][name] == b["metrics"][name], (workload, name)


class _FakeQueries:
    def __init__(self, features):
        self.features = features

    def range_query(self, query):
        return SimpleNamespace(features=[SimpleNamespace(raw=f) for f in self.features])


def _query_op(user):
    return {"op": "query", "user": list(user), "box": [0.0, 0.0, 1.0, 1.0],
            "k": 10, "mode": "intersect", "bf": False, "hot": False}


def test_oracle_counts_a_dropped_and_a_foreign_feature_as_failures():
    runner = run.Runner(Path("."), None)
    mine = [feature("T0", "U0", i, [(0.1 * i + 0.05, 0.5)]) for i in range(3)]
    foreign = feature("T1", "U0", 0, [(0.5, 0.5)])
    for f in mine + [foreign]:
        runner.world.insert(f)

    for result in (mine[:2], mine + [foreign]):
        dep = SimpleNamespace(clients={("T0", "U0"): (None, _FakeQueries(result))})
        runner.execute(dep, _query_op(("T0", "U0")), exact=True, timed=True, traced=False)
    assert runner.verdicts[oracle.WRONG] == 2
    assert runner.failed == 2 and runner.attempted == 2


class _StaleQueries:
    def __init__(self, name, kept):
        self.name, self.kept = name, kept

    def range_query(self, query):
        report = SimpleNamespace(features=[SimpleNamespace(raw=f) for f in self.kept])
        raise PartialResultError([self.name], report)


def test_a_removed_features_stale_reference_fails_but_is_not_wrong():
    runner = run.Runner(Path("."), None)
    kept, gone = (feature("T0", "U0", oid, [(0.5, 0.5)]) for oid in (0, 1))
    for f in (kept, gone):
        runner.world.insert(f)
    runner.world.settle()
    runner.world.remove(gone)

    def query(oid, exact):
        name = "ndn:/OGB/0/0/0/0/GPS-ID/DATA/T0/%s/U0/%d" % (CID, oid)
        dep = SimpleNamespace(clients={("T0", "U0"): (None, _StaleQueries(name, [kept]))})
        runner.execute(dep, _query_op(("T0", "U0")), exact=exact, timed=True, traced=False)

    query(1, exact=False)
    assert runner.verdicts[oracle.STALE_REFERENCE] == 1 and not runner.errors
    query(1, exact=True)                # the exact check allows no stale listing
    query(0, exact=False)               # the body of a live feature must be there
    assert runner.errors["PartialResultError"] == 2
    assert runner.failed == 3


def test_oid_collision_is_classified_but_still_failed():
    world = oracle.World()
    alice = feature("T0", "U0", 7, [(0.5, 0.5)])
    bob = feature("T0", "U1", 7, [(0.52, 0.5)])
    world.insert(alice)
    world.insert(bob)
    box = [0.4, 0.4, 0.6, 0.6]
    verdict, _ = world.check([alice], "T0", CID, box, "intersect", exact=True,
                             cover=lambda: [(0.0, 0.0, 1.0, 1.0)])
    assert verdict == oracle.KNOWN_DEFECT
    verdict, _ = world.check([alice], "T0", CID, box, "intersect", exact=True,
                             cover=lambda: [(0.51, 0.0, 1.0, 1.0)])
    assert verdict == oracle.WRONG      # alice, bob's twin, was never fetched
    assert world.check([alice, bob], "T0", CID, box, "intersect", exact=True)[0] == oracle.OK


def test_staleness_allows_fresh_writes_only():
    world = oracle.World()
    old = feature("T0", "U0", 1, [(0.5, 0.5)])
    world.insert(old)
    world.settle()
    fresh = feature("T0", "U0", 2, [(0.55, 0.5)])
    world.insert(fresh)
    box = [0.4, 0.4, 0.6, 0.6]
    assert world.check([old], "T0", CID, box, "intersect", exact=False)[0] == oracle.OK
    assert world.check([old], "T0", CID, box, "intersect", exact=True)[0] == oracle.WRONG
    assert world.check([fresh], "T0", CID, box, "intersect", exact=False)[0] == oracle.WRONG


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-read", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
