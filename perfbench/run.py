#!/usr/bin/env python3
"""Seeded wall-clock benchmark of OGB's insert, range query and restart.

    python3 perfbench/run.py --workload sim-read --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  One
closed-loop client drives the public API (`SimCluster`/`SocketCluster`,
`InsertHandler`, `QueryHandler`, `ogb.gtfs`); every operation is checked
against a brute-force oracle outside its timed region.  The timed loop is a
fixed number of operations, `--seconds` times the workload's nominal rate, so
a seed fixes the operations and the correctness tally.  With `--trace 0` the
last line of stdout is a JSON object holding the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a separate traced run.  The
lines before it print each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"


def _use_checkout_source() -> None:
    """Import the program from this checkout's `src/`, never from elsewhere."""
    package = SRC / "ogb"
    if not (package / "__init__.py").is_file():
        raise SystemExit("perfbench: no program source under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import ogb
    if Path(ogb.__file__).resolve().parent != package.resolve():
        raise SystemExit("perfbench: imported ogb from %s, not %s"
                         % (ogb.__file__, package))


_use_checkout_source()

from ogb import gtfs, perfmodel, tessellation                      # noqa: E402
from ogb.errors import CalibrationError, PartialResultError      # noqa: E402
from ogb.frontend import RangeQuery                              # noqa: E402
from ogb.grid import BoundingBox, tile_bbox                      # noqa: E402

import oracle                                                    # noqa: E402
from deploy import Deployment, cluster_dict                      # noqa: E402
from speed import REFERENCE_SLICE_MS, SpeedReference             # noqa: E402
from tracer import Tracer                                        # noqa: E402
from workloads import CID, SPECS, Plan, stops_text               # noqa: E402

TILE_CACHE_ENTRIES = 128      # Engine._tile_cache
CONTENT_STORE_ENTRIES = 4096  # EngineConfig.cache_capacity default


def _pct(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between closest ranks."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    """Executes operations, times them, checks them, and keeps the tallies."""

    def __init__(self, workdir: Path, tracer: Tracer | None):
        self.workdir = workdir
        self.tracer = tracer
        self.world = oracle.World()
        self.speed = SpeedReference()
        # (start time, wall ms, process-CPU ms) per timed operation
        self.latency: dict[str, list[tuple[float, float, float]]] = defaultdict(list)
        self.traced_query_ms: list[tuple[float, float, float]] = []
        self.untraced_query_ms: list[tuple[float, float, float]] = []
        self.attempted = 0
        self.verdicts: Counter = Counter()
        self.errors: Counter = Counter()
        self.user_bytes = 0
        self.queries: list[dict] = []

    # -- one operation --------------------------------------------------------

    def execute(self, dep: Deployment, op: dict, *, exact: bool, timed: bool,
                traced: bool) -> None:
        kind = "insert" if op["op"] == "feed" else op["op"]
        self.speed.tick()
        self.attempted += 1
        tracer = self.tracer if traced else None
        before = None
        if tracer is not None:
            before = dep.transport_counters() if kind == "query" else dep.disk_bytes()
            top = tracer.begin(kind)
        started = time.perf_counter()
        try:
            (ms, cpu), outcome = getattr(self, "_" + op["op"])(dep, op)
        except Exception as exc:          # one failed operation, never the run
            if self._stale_reference(op, exc, exact):
                return
            self.errors[type(exc).__name__] += 1
            if sum(self.errors.values()) <= 3:
                traceback.print_exc(file=sys.stderr)
            return
        finally:
            if tracer is not None:
                tracer.end()
        if tracer is not None:
            self._count(dep, top, op, before, outcome)
        if timed:
            self.latency[kind].append((started, ms, cpu))
            if kind == "query" and self.tracer is not None:
                (self.traced_query_ms if traced else self.untraced_query_ms).append(
                    (started, ms, cpu))
        if kind == "query":
            verdict, detail = self.world.check(
                [f.raw for f in outcome.features], op["user"][0], CID,
                op["box"], op["mode"], exact, cover=lambda: _cover(op))
            self.verdicts[verdict] += 1
            if verdict == oracle.WRONG and self.verdicts[verdict] <= 3:
                print("wrong result: %s" % detail, file=sys.stderr)
        elif not outcome.all_accepted:
            self.verdicts["refused"] += 1

    def _stale_reference(self, op: dict, exc: Exception, exact: bool) -> bool:
        """Classify a query that failed only on a removed feature's body.

        A tile listing cached before a remove may still name the removed
        feature for the 60 s tile freshness the design permits; fetching the
        deleted body then makes `range_query` raise with the rest of the
        result attached.  Under the bounded-staleness check that is a failed
        operation, not a wrong result, if the rest passes the check."""
        if (exact or not isinstance(exc, PartialResultError) or exc.report is None
                or not self.world.all_removed(exc.failed_tiles)):
            return False
        verdict, detail = self.world.check(
            [f.raw for f in exc.report.features], op["user"][0], CID,
            op["box"], op["mode"], False, cover=lambda: _cover(op))
        self.verdicts[oracle.STALE_REFERENCE if verdict == oracle.OK else verdict] += 1
        if verdict == oracle.WRONG:
            print("wrong partial result: %s" % detail, file=sys.stderr)
        return True

    def _count(self, dep, top, op, before, outcome) -> None:
        counts = top.counts
        if op["op"] == "query":
            counts["bf"] += int(op["bf"])
            after = dep.transport_counters()
            counts["processed"] += after["processed"] - before["processed"]
            for key in ("interests", "interests_all", "cache_hits", "bytes", "virtual_ms"):
                if key in after:
                    counts["sim." + key] += after[key] - before[key]
            counts["tiles_tess"] += outcome.counts["tilesTessellated"]
            counts["tiles_queried"] += outcome.counts["tilesQueried"]
            counts["items_fetched"] += outcome.counts["itemsFetched"]
            counts["items_after"] += outcome.counts["itemsAfterFilter"]
        elif op["op"] in ("insert", "feed"):
            counts["feed"] += int(op["op"] == "feed")
            counts["log_bytes"] += dep.disk_bytes() - before
            counts["ipres"] += outcome.resolutions

    def _insert(self, dep, op):
        feature = op["feature"]
        handler = dep.clients[tuple(op["user"])][0]
        took, report = _clock(lambda: handler.insert(feature))
        self._inserted(feature, report)
        return took, report

    def _feed(self, dep, op):
        tid, uid = op["user"]
        source = self.workdir / "feeds" / ("%s-%s-%d" % (tid, uid, op["oid"]))
        source.mkdir(parents=True, exist_ok=True)
        (source / gtfs.STOPS_FILE).write_text(stops_text(op["stops"]), encoding="utf-8")
        handler = dep.clients[(tid, uid)][0]

        def load_and_insert():
            feed = gtfs.GtfsFeed.load(source, op["url"])
            feature = gtfs.ingest_gtfs(feed, tid, CID, uid, oid=op["oid"])
            return feature, handler.insert(feature)

        took, (feature, report) = _clock(load_and_insert)
        if feature != op["feature"]:
            self.verdicts[oracle.WRONG] += 1
            print("wrong feed ingest for %s/%s/%d" % (tid, uid, op["oid"]), file=sys.stderr)
        self._inserted(op["feature"], report)
        return took, report

    def _inserted(self, feature, report) -> None:
        if report.all_accepted:
            self.world.insert(feature)
            self.user_bytes += len(oracle.canonical(feature).encode("utf-8"))

    def _remove(self, dep, op):
        handler = dep.clients[tuple(op["user"])][0]
        took, report = _clock(lambda: handler.remove(op["feature"]))
        self.world.remove(op["feature"])
        return took, report

    def _query(self, dep, op):
        tid, uid = op["user"]
        query = RangeQuery(BoundingBox.of(*op["box"]), op["mode"], tid, CID,
                           k=op["k"], use_bf=op["bf"])
        handler = dep.clients[(tid, uid)][1]
        return _clock(lambda: handler.range_query(query))

    @property
    def failed(self) -> int:
        return (sum(self.errors.values()) + self.verdicts["refused"]
                + self.verdicts[oracle.WRONG] + self.verdicts[oracle.KNOWN_DEFECT]
                + self.verdicts[oracle.STALE_REFERENCE])


def _clock(call):
    """((wall ms, process-CPU ms), result) of `call()`.  Process CPU time
    includes the in-process servers' threads of socket mode."""
    w0, c0 = time.perf_counter(), time.process_time()
    result = call()
    return ((time.perf_counter() - w0) * 1000.0, (time.process_time() - c0) * 1000.0), result


def timed_op_count(spec, seconds: float) -> int:
    """Operations of the timed loop: about `seconds` of work on the machine
    the rates were set on (2 vCPUs of a shared x86-64 cloud VM)."""
    return max(1, round(seconds * spec.ops_per_s))


def _tiles(op: dict) -> list:
    """The tiles a query's tessellation names."""
    return tessellation.constrained(BoundingBox.of(*op["box"]), op["k"]).tiles


def _cover(op: dict) -> list[tuple]:
    """Half-open boxes of the tiles a query fetched (before Bloom pruning)."""
    boxes = [tile_bbox(t) for t in _tiles(op)]
    return [(b.min.lng, b.min.lat, b.max.lng, b.max.lat) for b in boxes]


def _distinct_tiles(queries: list[dict]) -> int:
    """Distinct (tenant, tile) listings the run's query covers name."""
    distinct = {(q["user"][0], tuple(q["box"]), q["k"]): q for q in queries}
    return len({(tenant, t) for (tenant, _, _), q in distinct.items() for t in _tiles(q)})


def run(workload: str, seed: int, seconds: float, trace: bool,
        max_ops: int | None = None, spec=None, out=sys.stdout) -> dict:
    """One benchmark run; returns the result object printed last."""
    spec = spec or SPECS[workload]
    plan = Plan(spec, seed)
    workdir = WORK / ("run-%s-%d-%d" % (workload, seed, os.getpid()))
    storage = workdir / "storage"
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = Tracer(spec.mode) if trace else None
    if tracer is not None:
        tracer.install()
    runner = Runner(workdir, tracer)
    speed = runner.speed
    data = cluster_dict(ROOT, spec.config, spec.mode, seed, storage)
    dep = None

    def start(kind: str) -> Deployment:
        if tracer is not None:
            tracer.begin(kind)
        try:
            return Deployment(data, plan.users)
        finally:
            if tracer is not None:
                tracer.end()

    setup_s, restart_s = [], []
    exact = all(kind.startswith("query") for kind in spec.block)
    try:
        # Set-up, several times: fresh storage, the world, a snapshot, then
        # a log tail.  After each, restarts from that snapshot plus log tail,
        # as every CLI command does; spreading them over the set-ups samples
        # more of the run.  The last restarted cluster runs the timed loop.
        for repeat in range(spec.setups):
            last = repeat == spec.setups - 1
            if dep is not None:
                dep.close()
            dep = None
            gc.collect()
            shutil.rmtree(storage, ignore_errors=True)
            runner.world = oracle.World()
            runner.user_bytes = 0
            speed.tick(force=True)
            spent = speed.spent_s
            t0, c0 = time.perf_counter(), time.process_time()
            dep = start("start")
            for op in plan.before_snapshot:
                runner.execute(dep, op, exact=False, timed=True, traced=last)
            dep.settle()
            dep.snapshot()
            for op in plan.tail:
                runner.execute(dep, op, exact=False, timed=True, traced=last)
            dep.settle()
            t1, c1 = time.perf_counter(), time.process_time()
            slices_s = speed.spent_s - spent
            setup_s.append(((t0 + t1) / 2, t1 - t0 - slices_s, c1 - c0 - slices_s))

            for _ in range(spec.restarts):
                dep.close()
                dep = None
                gc.collect()
                speed.tick()
                t0 = time.perf_counter()
                dep = start("restart")
                restart_s.append((t0, dep.start_s, dep.start_cpu_s))
        # The state of a fixed world, before any timed operation.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # The timed closed loop: a fixed number of operations, so one seed
        # gives the same operations and the same correctness tally however
        # fast the machine or the program runs.
        runner.world.settle()
        ops = plan.ops()
        timed_ops = max_ops if max_ops is not None else timed_op_count(spec, seconds)
        loop_t0 = time.perf_counter()
        for i in range(timed_ops):
            op = next(ops)
            runner.execute(dep, op, exact=exact, timed=True,
                           traced=tracer is not None and i % 2 == 1)
            if op["op"] == "query":
                runner.queries.append(op)
        loop_s = time.perf_counter() - loop_t0

        # Exact, untimed sweep over flushed caches.
        dep.settle()
        dep.flush()
        for op in plan.sweep:
            runner.execute(dep, op, exact=True, timed=False, traced=False)
        disk_ratio = dep.disk_bytes() / max(1, runner.user_bytes)
    finally:
        if dep is not None:
            dep.close()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    unscaled = {"peak_rss_mb": (peak_rss_mb, "MB", 1),
                "disk_bytes_per_user_byte": (disk_ratio, "ratio", 1)}
    # Socket mode waits on modeled sleeps and loopback, which a faster
    # machine does not shorten: there only the process-CPU part is scaled.
    cpu_only = spec.mode == "socket"

    def adjust(t, wall, cpu):
        return speed.scaled(t, wall, cpu if cpu_only else None)

    scaled = {**end_to_end(runner, setup_s, restart_s, adjust), **unscaled}
    wall = {**end_to_end(runner, setup_s, restart_s, lambda t, w, c: w), **unscaled}
    failed_frac = runner.failed / max(1, runner.attempted)
    distinct = _distinct_tiles(runner.queries)

    print("workload %s seed %d: %d timed ops in %.1f s, closed loop, 1 client, %s mode"
          % (workload, seed, timed_ops, loop_s, spec.mode), file=out)
    print("world: %d features by %d users of %d tenants; %d distinct tile listings "
          "queried (engine tile cache %d, content store %d)"
          % (spec.preload, len(plan.users), spec.tenants, distinct,
             TILE_CACHE_ENTRIES, CONTENT_STORE_ENTRIES), file=out)
    print("machine speed: reference slice %.2f ms median (%.2f-%.2f), %d slices; "
          "times below are scaled to a %.1f ms slice%s, wall-clock in brackets"
          % (statistics.median(speed.slices), min(speed.slices), max(speed.slices),
             len(speed.slices), REFERENCE_SLICE_MS,
             " (their process-CPU part only)" if cpu_only else ""), file=out)
    for name, (value, unit, n) in scaled.items():
        print("%-26s %14.4f %-6s n=%-5d (%.4f)" % (name, value, unit, n, wall[name][0]),
              file=out)
    print("%-26s %14.4f %-6s n=%d (%s; errors %s)"
          % ("failed_frac", failed_frac, "frac", runner.attempted,
             ", ".join("%s %d" % kv for kv in sorted(runner.verdicts.items())),
             dict(runner.errors) or "none"), file=out)

    if tracer is None:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in scaled.items()}
    else:
        layers = per_layer(tracer, runner, adjust)
        for name, (value, unit) in layers.items():
            print("%-42s %14.4f %s" % (name, value, unit), file=out)
        self_ms = tracer.self_times()
        print("self time by span, ms, whole run:", file=out)
        for name, ms in sorted(self_ms.items(), key=lambda kv: -kv[1])[:20]:
            print("  %-40s %12.1f" % (name, ms), file=out)
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        spans_path = traces / ("%s-seed%d.jsonl" % (workload, seed))
        tracer.write(spans_path)
        print("spans: %d written to %s" % (len(tracer.spans), spans_path), file=out)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
    wrong = runner.verdicts[oracle.WRONG] + sum(runner.errors.values())
    return {"correct": wrong == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def end_to_end(runner: Runner, setup_s, restart_s, adjust) -> dict:
    """name -> (value, unit, samples); each (t, wall, cpu) timing sample
    counts as `adjust(t, wall, cpu)`."""
    def ms(samples):
        return [adjust(*sample) for sample in samples]

    queries, inserts, removes = (ms(runner.latency[k]) for k in ("query", "insert", "remove"))
    return {
        "setup_s": (statistics.median(ms(setup_s)), "s", len(setup_s)),
        "restart_s": (statistics.median(ms(restart_s)), "s", len(restart_s)),
        "query_ms_p50": (_pct(queries, 50), "ms", len(queries)),
        "query_ms_p95": (_pct(queries, 95), "ms", len(queries)),
        "query_per_s": (len(queries) / (sum(queries) / 1000.0) if queries else 0.0,
                        "1/s", len(queries)),
        "insert_ms_p50": (_pct(inserts, 50), "ms", len(inserts)),
        "insert_ms_p95": (_pct(inserts, 95), "ms", len(inserts)),
        "insert_per_s": (len(inserts) / (sum(inserts) / 1000.0) if inserts else 0.0,
                         "1/s", len(inserts)),
        "remove_ms_p50": (_pct(removes, 50), "ms", len(removes)),
    }


def per_layer(tracer: Tracer, runner: Runner, adjust) -> dict:
    """The per-layer metrics, from the traced operations only."""
    def ops(*kinds):
        return [op for op in tracer.ops if op.kind in kinds]

    scale = runner.speed.scale

    def tot(group, key):
        if key.endswith(".ms"):          # a measured time: scale it like the rest
            return sum(op.counts[key] * scale(op.t0) for op in group)
        return sum(op.counts[key] for op in group)

    def per(group, key):
        return tot(group, key) / len(group) if group else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    q, ins = ops("query"), ops("insert")
    restarts, starts = ops("restart"), ops("start", "restart")
    bfq = [op for op in q if op.counts["bf"]]
    tile_interests = tot(q, "engine.tile_interests")
    try:
        fit = perfmodel.calibrate([(n, ms * scale(t)) for n, ms, t in tracer.tile_samples])
        c1, c2, resid = fit.c1_ms, fit.c2_ms, fit.max_abs_residual_ms
    except CalibrationError:
        c1 = c2 = resid = 0.0
    def p50(samples):
        return _pct([adjust(*sample) for sample in samples], 50)

    overhead = (p50(runner.traced_query_ms) - p50(runner.untraced_query_ms)
                if runner.traced_query_ms and runner.untraced_query_ms else 0.0)
    return {
        "tessellation.ms_per_query": (per(q, "tessellation.ms"), "ms"),
        "tessellation.tiles_per_query": (per(q, "tiles_tess"), "count"),
        "bloom.membership_ms_per_query": (per(bfq, "bloom.query.ms"), "ms"),
        "bloom.pruned_frac": (1.0 - ratio(tot(bfq, "bf.tiles_out"), tot(bfq, "bf.tiles_in"))
                              if tot(bfq, "bf.tiles_in") else 0.0, "frac"),
        "bloom.bitmap_ms": (per(restarts, "bloom.bitmap.ms"), "ms"),
        "bloom.publications_per_insert": (per(ins, "bloom.publications"), "count"),
        "names.parse_calls_per_query": (per(q, "names.parse.calls"), "count"),
        "names.parse_ms_per_query": (per(q, "names.parse.ms"), "ms"),
        "names.parse_calls_per_insert": (per(ins, "names.parse.calls"), "count"),
        "geodata.decode_ms_per_query": (per(q, "geodata.decode.ms"), "ms"),
        "geodata.post_filter_ms_per_query": (per(q, "geodata.post_filter.ms"), "ms"),
        "geodata.post_filter_kept_frac": (ratio(tot(q, "post_filter.kept"),
                                                tot(q, "post_filter.in")), "frac"),
        "geodata.items_per_insert": (per(ins, "data_set.items"), "count"),
        "geodata.encode_ms_per_insert": (per(ins, "geodata.encode.ms"), "ms"),
        "trust.verify_calls_per_query": (per(q, "trust.verify.calls"), "count"),
        "trust.verify_ms_per_query": (per(q, "trust.verify.ms"), "ms"),
        "trust.sign_calls_per_insert": (per(ins, "trust.sign.calls"), "count"),
        "trust.sign_ms_per_insert": (per(ins, "trust.sign.ms"), "ms"),
        "trust.verify_calls_per_insert": (per(ins, "trust.verify.calls"), "count"),
        "engine.tile_query_ms_per_call": (ratio(tot(q, "engine.tile_query.ms"),
                                                tot(q, "engine.tile_query.calls")), "ms"),
        "engine.rows_examined_per_item_returned": (ratio(tot(q, "engine.rows"),
                                                         tot(q, "engine.items")), "ratio"),
        "engine.tile_cache_hit_frac": (1.0 - ratio(tot(q, "processed"), tile_interests)
                                       if tile_interests else 0.0, "frac"),
        "engine.bulk_insert_ms_per_insert": (per(ins, "engine.bulk_insert.ms"), "ms"),
        "engine.log_bytes_per_insert": (per(ins, "log_bytes"), "bytes"),
        "engine.load_ms": (per(restarts, "engine.load.ms"), "ms"),
        "icn.sim.interests_per_query": (per(q, "sim.interests"), "count"),
        "icn.sim.cs_hit_frac": (ratio(tot(q, "sim.cache_hits"),
                                      tot(q, "sim.interests_all")), "frac"),
        "icn.sim.bytes_per_query": (per(q, "sim.bytes"), "bytes"),
        "icn.sim.virtual_ms_per_query": (per(q, "sim.virtual_ms"), "virtual_ms"),
        "icn.sockets.get_ms_per_query": (per(q, "icn.sockets.get.ms"), "ms"),
        "icn.sockets.modeled_sleep_ms_per_query": (per(q, "sockets.modeled_sleep_ms"), "ms"),
        "icn.wire.frames_per_query": (per(q, "wire.frames"), "count"),
        "icn.wire.bytes_per_query": (per(q, "wire.bytes"), "bytes"),
        "frontend.deref_fetches_per_query": (per(q, "deref.fetches"), "count"),
        "frontend.deref_ms_per_query": (per(q, "frontend.deref.ms"), "ms"),
        "frontend.items_fetched_per_result": (ratio(tot(q, "items_fetched"),
                                                    tot(q, "items_after")), "ratio"),
        "frontend.ipres_gets_per_insert": (per(ins, "ipres"), "count"),
        "cluster.start_ms": (per(starts, "cluster.start.ms"), "ms"),
        "gtfs.load_ms_per_feed": (ratio(tot(ins, "gtfs.ms"), tot(ins, "feed")), "ms"),
        "perfmodel.fit_c1_ms": (c1, "ms"),
        "perfmodel.fit_c2_ms": (c2, "ms"),
        "perfmodel.fit_max_residual_ms": (resid, "ms"),
        "trace.overhead_query_ms_p50": (overhead, "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
