"""Operator command line.

One JSON config file describes the whole deployment.  In sim mode every
command hosts the cluster in-process on the virtual clock (state persists
through the engines' storage directory); in socket mode `cluster start`
runs the servers and the other commands connect to them over TCP.

Successful commands print JSON (or CSV for `bench`) on stdout and exit 0;
failures print one machine-readable JSON object on stderr and exit
nonzero: 2 for usage problems, 3 for partial query results, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import secrets
import signal
import sys
import threading
from pathlib import Path

from . import gtfs, tessellation, trust
from .cluster import (BF_QUERY_ROOT, ClusterConfig, KeyStore, SimCluster,
                      SocketCluster, network_cert_fetcher)
from .engine import send_request
from .errors import ConfigError, FeatureError, OgbError, PartialResultError
from .frontend import (DEFAULT_FRESHNESS_MS, DEFAULT_K, DEFAULT_WINDOW,
                       Credentials, InsertHandler, QueryHandler, RangeQuery)
from .geodata import canonical_json
from .grid import BoundingBox
from .icn.sockets import SocketSubstrate
from .names import tile_prefix
from .perfmodel import BenchScenario, bench_run, to_csv

BBOX_HELP = "bounding box as minLng,minLat,maxLng,maxLat"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _emit_error(code: str, message: str, **extra) -> None:
    body = {"error": code, "message": message}
    body.update({k: v for k, v in extra.items() if v is not None})
    print(json.dumps(body, sort_keys=True), file=sys.stderr)


def _error_code(exc: Exception) -> str:
    name = type(exc).__name__.rstrip("_")
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def _parse_bbox(text: str) -> BoundingBox:
    parts = text.split(",")
    if len(parts) != 4:
        raise _UsageError("bbox needs four comma-separated numbers "
                          "(minLng,minLat,maxLng,maxLat), got %r" % text)
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise _UsageError("bbox has non-numeric parts: %r" % text) from None
    try:
        return BoundingBox.of(*numbers)
    except OgbError as exc:
        raise _UsageError(str(exc)) from None


def _load_config(args) -> ClusterConfig:
    try:
        return ClusterConfig.load(args.config)
    except FileNotFoundError:
        raise _UsageError("config file not found: %s" % args.config) from None
    except json.JSONDecodeError as exc:
        raise _UsageError("config file %s is not valid JSON: %s"
                          % (args.config, exc)) from None


def _pidfile(args) -> Path:
    return Path(args.config).resolve().with_suffix(".pid")


def _keystore(config: ClusterConfig) -> KeyStore:
    if config.keys_dir is None and config.seed is None:
        raise ConfigError("config needs keysDir or seed for key material")
    return KeyStore(config.keys_dir, config.seed)


def _open_substrate(config: ClusterConfig, keystore=None):
    """The consumer-side substrate plus a certificate fetcher and closer."""
    if config.mode == "sim":
        cluster = SimCluster(config, keystore=keystore)
        return cluster.substrate, cluster.cert_repo.get_wire, cluster.stop
    substrate = SocketSubstrate(config.addresses())
    return substrate, network_cert_fetcher(substrate), substrate.close


def _open_session(config: ClusterConfig, tid: str, uid: str):
    keystore = _keystore(config)
    anchor = keystore.admin()[1]
    keystore.tenant(tid)
    kp, cert = keystore.user(tid, uid)
    credentials = Credentials(tid, uid, kp, cert)
    substrate, fetcher, close = _open_substrate(config, keystore)
    store = trust.TrustStore(anchor, fetcher=fetcher)
    return substrate, store, credentials, close


def _load_features(args) -> tuple[list[dict], dict]:
    """Features from a GeoJSON file or a GTFS feed, plus ingest notes."""
    path = Path(args.file)
    if not path.exists():
        raise _UsageError("input file not found: %s" % path)
    if path.is_dir() or path.suffix == ".zip" or path.name == gtfs.STOPS_FILE:
        if not args.url:
            raise _UsageError("GTFS ingestion needs --url (the feed's "
                              "public URL)")
        if not args.cid:
            raise _UsageError("GTFS ingestion needs --cid")
        feed = gtfs.GtfsFeed.load(path, args.url)
        feature = gtfs.ingest_gtfs(feed, args.tid, args.cid, args.uid,
                                   oid=args.oid)
        notes = {"stops": len(feed.stops), "skippedStops": feed.skipped}
        return [feature], notes

    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise _UsageError("%s is not valid JSON: %s" % (path, exc)) from None
    kind = data.get("type") if isinstance(data, dict) else None
    if kind == "Feature":
        features = [data]
    elif kind == "FeatureCollection":
        features = data.get("features", [])
        if not isinstance(features, list):
            raise FeatureError("%s: \"features\" is not a JSON array" % path)
    else:
        raise _UsageError("%s is neither a Feature nor a FeatureCollection"
                          % path)
    for index, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise FeatureError("%s: feature %d is not a JSON object" % (path, index))
        props = feature.setdefault("properties", {})
        if not isinstance(props, dict):
            raise FeatureError("%s: feature %d has no properties object"
                               % (path, index))
        props.setdefault("tid", args.tid)
        props.setdefault("uid", args.uid)
        if args.cid:
            props.setdefault("cid", args.cid)
        props.setdefault("oid", args.oid or secrets.token_hex(8))
        missing = [key for key in ("tid", "cid", "uid", "oid")
                   if key not in props]
        if missing:
            raise _UsageError("feature lacks %s (set --cid/--tid/--uid)"
                              % ", ".join(missing))
    return features, {}


# -- commands ---------------------------------------------------------------


def _cmd_cluster_start(args) -> int:
    config = _load_config(args)
    if config.mode == "sim":
        _emit({"mode": "sim",
               "note": "sim mode hosts the cluster inside each command; "
                       "nothing to start"})
        return EXIT_OK
    cluster = SocketCluster(config)
    cluster.start()
    pidfile = _pidfile(args)
    pidfile.write_text(str(os.getpid()), encoding="utf-8")
    _emit({
        "status": "running",
        "pid": os.getpid(),
        "engines": {eid: list(server.address)
                    for eid, server in cluster.servers.items()},
        "certRepo": list(cluster.cert_server.address),
        "bfServer": (list(cluster.bf_server.address)
                     if cluster.bf_server else None),
        "pidfile": str(pidfile),
    })
    sys.stdout.flush()
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    stop.wait()
    cluster.stop()
    pidfile.unlink(missing_ok=True)
    return EXIT_OK


def _cmd_cluster_stop(args) -> int:
    pidfile = _pidfile(args)
    if not pidfile.exists():
        raise ConfigError("no pidfile at %s; is the cluster running?" % pidfile)
    try:
        pid = int(pidfile.read_text(encoding="utf-8"))
    except ValueError:
        pid = 0
    if pid <= 0:                # 0 and -1 would signal whole process groups
        raise ConfigError("pidfile %s holds no pid" % pidfile)
    try:
        os.kill(pid, signal.SIGTERM)
    except ProcessLookupError:
        pidfile.unlink(missing_ok=True)
        raise ConfigError("stale pidfile: no process %d" % pid) from None
    _emit({"status": "stopping", "pid": pid})
    return EXIT_OK


def _cmd_keys_init(args) -> int:
    config = _load_config(args)
    if config.keys_dir is None:
        raise ConfigError("config has no keysDir to initialize")
    keystore = _keystore(config)
    _, anchor = keystore.admin()
    engines = []
    for ecfg in config.engines:
        _, cert = keystore.engine(ecfg.engine_id)
        engines.append({"id": ecfg.engine_id, "identity": cert.identity})
    _emit({"keysDir": config.keys_dir,
           "anchor": anchor.identity,
           "engines": engines})
    return EXIT_OK


def _cmd_keys_issue_tenant(args) -> int:
    keystore = _keystore(_load_config(args))
    _, cert = keystore.tenant(args.tid)
    _emit({"identity": cert.identity, "certificate": cert.name.text})
    return EXIT_OK


def _cmd_keys_issue_user(args) -> int:
    keystore = _keystore(_load_config(args))
    _, cert = keystore.user(args.tid, args.uid)
    _emit({"identity": cert.identity, "certificate": cert.name.text})
    return EXIT_OK


def _cmd_insert(args) -> int:
    config = _load_config(args)
    features, notes = _load_features(args)
    substrate, store, credentials, close = _open_session(
        config, args.tid, args.uid)
    try:
        handler = InsertHandler(substrate, store, credentials)
        reports = [handler.insert(feature, freshness_ms=args.freshness_ms)
                   for feature in features]
    finally:
        close()
    accepted = all(report.all_accepted for report in reports)
    _emit({"features": len(features),
           "allAccepted": accepted,
           "reports": [report.to_dict() for report in reports],
           **notes})
    if not accepted:
        _emit_error("rejected-items", "some items were not accepted; see "
                    "the statuses on stdout")
        return EXIT_ERROR
    return EXIT_OK


def _cmd_remove(args) -> int:
    config = _load_config(args)
    features, notes = _load_features(args)
    substrate, store, credentials, close = _open_session(
        config, args.tid, args.uid)
    try:
        handler = InsertHandler(substrate, store, credentials)
        reports = [handler.remove(feature) for feature in features]
    finally:
        close()
    ok = all(status.status in ("accepted", "not-found")
             for report in reports for status in report.statuses)
    _emit({"features": len(features),
           "reports": [report.to_dict() for report in reports],
           **notes})
    if not ok:
        _emit_error("rejected-items", "some removals were rejected; see "
                    "the statuses on stdout")
        return EXIT_ERROR
    return EXIT_OK


def _cmd_query(args) -> int:
    config = _load_config(args)
    query = RangeQuery(bbox=_parse_bbox(args.bbox), mode=args.mode,
                       tid=args.tid, cid=args.cid, k=args.k,
                       use_bf=args.bf, window=args.window)
    substrate, store, credentials, close = _open_session(
        config, args.tid, args.uid)
    try:
        report = QueryHandler(substrate, store, credentials).range_query(query)
    finally:
        close()
    _emit(report.to_dict())
    return EXIT_OK


def _cmd_tessellate(args) -> int:
    cover = tessellation.constrained(_parse_bbox(args.bbox), args.k)
    _emit({
        "tiles": [tile_prefix(tile).text for tile in cover.tiles],
        "count": len(cover.tiles),
        "stretch": cover.stretch,
        "constraintViolated": cover.constraint_violated,
    })
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        scenario = BenchScenario.load(args.scenario)
    except FileNotFoundError:
        raise _UsageError("scenario file not found: %s"
                          % args.scenario) from None
    except json.JSONDecodeError as exc:
        raise _UsageError("scenario %s is not valid JSON: %s"
                          % (args.scenario, exc)) from None
    csv_text = to_csv(bench_run(scenario))
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
        _emit({"scenario": scenario.name, "out": args.out,
               "rows": len(scenario.sweep_values)})
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_bf_stats(args) -> int:
    config = _load_config(args)
    if not config.bf_enabled:
        raise ConfigError("config has no bfServer")
    substrate, _, close = _open_substrate(config)
    try:
        _emit(send_request(substrate, BF_QUERY_ROOT, "stats",
                           canonical_json({"op": "bf-stats"})))
    finally:
        close()
    return EXIT_OK


# -- wiring -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ogb", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config",
                        default=os.environ.get("OGB_CONFIG", "ogb.json"),
                        help="cluster config JSON (default: $OGB_CONFIG or "
                             "./ogb.json)")
    sub = parser.add_subparsers(dest="command", required=True)

    cluster = sub.add_parser("cluster", help="cluster lifecycle")
    csub = cluster.add_subparsers(dest="action", required=True)
    csub.add_parser("start", help="run the socket-mode servers in the "
                    "foreground").set_defaults(func=_cmd_cluster_start)
    csub.add_parser("stop", help="signal a running cluster to shut down"
                    ).set_defaults(func=_cmd_cluster_stop)

    keys = sub.add_parser("keys", help="key and certificate management")
    ksub = keys.add_subparsers(dest="action", required=True)
    ksub.add_parser("init", help="create the anchor and engine keys"
                    ).set_defaults(func=_cmd_keys_init)
    tenant = ksub.add_parser("issue-tenant", help="issue a tenant certificate")
    tenant.add_argument("tid")
    tenant.set_defaults(func=_cmd_keys_issue_tenant)
    user = ksub.add_parser("issue-user", help="issue a user certificate")
    user.add_argument("tid")
    user.add_argument("uid")
    user.set_defaults(func=_cmd_keys_issue_user)

    def add_write_args(p):
        p.add_argument("file", help="GeoJSON Feature/FeatureCollection, or "
                       "a GTFS feed (directory, .zip, or stops.txt)")
        p.add_argument("--tid", required=True, help="tenant id")
        p.add_argument("--uid", required=True, help="user id")
        p.add_argument("--cid", help="collection id (required when the "
                       "features do not carry one)")
        p.add_argument("--oid", help="object id override (default: keep the "
                       "feature's, or a fresh nonce)")
        p.add_argument("--url", help="feed URL (GTFS only; stored as the "
                       "URL property)")

    insert = sub.add_parser("insert", help="insert features")
    add_write_args(insert)
    insert.add_argument("--freshness-ms", type=float,
                        default=DEFAULT_FRESHNESS_MS,
                        help="freshness of the stored items")
    insert.set_defaults(func=_cmd_insert)

    remove = sub.add_parser("remove", help="remove previously inserted "
                            "features")
    add_write_args(remove)
    remove.set_defaults(func=_cmd_remove)

    query = sub.add_parser("query", help="range query")
    query.add_argument("--bbox", required=True, help=BBOX_HELP)
    query.add_argument("--mode", choices=("intersect", "include"),
                       default="intersect")
    query.add_argument("--k", type=int, default=DEFAULT_K,
                       help="tessellation tile budget")
    query.add_argument("--bf", action="store_true",
                       help="prune void tiles via the Bloom filter service")
    query.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                       help="max in-flight tile-queries")
    query.add_argument("--tid", required=True)
    query.add_argument("--uid", required=True)
    query.add_argument("--cid", required=True)
    query.set_defaults(func=_cmd_query)

    tess = sub.add_parser("tessellate", help="show the tile cover of a box")
    tess.add_argument("--bbox", required=True, help=BBOX_HELP)
    tess.add_argument("--k", type=int, default=DEFAULT_K)
    tess.set_defaults(func=_cmd_tessellate)

    bench = sub.add_parser("bench", help="run a model-vs-simulation sweep")
    bench.add_argument("scenario", help="scenario JSON path")
    bench.add_argument("--out", help="write the CSV here instead of stdout")
    bench.set_defaults(func=_cmd_bench)

    sub.add_parser("bf-stats", help="Bloom filter server statistics"
                   ).set_defaults(func=_cmd_bf_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    except PartialResultError as exc:
        _emit_error(_error_code(exc), str(exc),
                    failedTiles=list(exc.failed_tiles),
                    report=exc.report.to_dict() if exc.report else None)
        return EXIT_PARTIAL
    except OgbError as exc:
        _emit_error(_error_code(exc), str(exc))
        return EXIT_ERROR
    except KeyboardInterrupt:
        _emit_error("interrupted", "interrupted")
        return 130


if __name__ == "__main__":
    sys.exit(main())
