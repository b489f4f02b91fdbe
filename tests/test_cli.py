"""End-to-end command line runs against an in-process sim cluster."""

import json
import socket

import pytest

from ogb.cli import main

STARBUCKS = {
    "type": "Feature",
    "geometry": {"type": "Point", "coordinates": [12.51133, 41.8919]},
    "properties": {"tid": "Foo", "cid": "ShopApp", "uid": "alice",
                   "oid": "1234"},
}
ROME_BBOX = "12.50,41.88,12.53,41.90"


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "ogb.json"
    path.write_text(json.dumps({
        "mode": "sim",
        "seed": 7,
        "keysDir": "keys",
        "storageDir": "storage",
        "engines": [{"id": "rome", "servedPrefixes": ["ndn:/OGB"]}],
        "bfServer": {"m": 4096, "h": 5},
        "certRepo": {},
    }), encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err or out
    return json.loads(out)


def write_feature(tmp_path, feature, name="feature.json"):
    path = tmp_path / name
    path.write_text(json.dumps(feature), encoding="utf-8")
    return path


def test_keys_init_lists_anchor_and_engines(capsys, config_path):
    result = run_json(capsys, "--config", config_path, "keys", "init")
    assert result["anchor"] == "/OGB/admin"
    assert result["engines"] == [{"id": "rome",
                                  "identity": "/OGB/engines/rome"}]


def test_keys_issue_tenant_and_user(capsys, config_path):
    tenant = run_json(capsys, "--config", config_path,
                      "keys", "issue-tenant", "Foo")
    assert tenant["identity"] == "/OGB/tenants/Foo"
    user = run_json(capsys, "--config", config_path,
                    "keys", "issue-user", "Foo", "alice")
    assert user["identity"] == "/OGB/tenants/Foo/users/alice"
    assert user["certificate"].startswith("ndn:/OGB-SYS/certs/")


def test_insert_then_query_round_trip(capsys, config_path, tmp_path):
    feature = write_feature(tmp_path, STARBUCKS)
    inserted = run_json(capsys, "--config", config_path, "insert", feature,
                        "--tid", "Foo", "--uid", "alice")
    assert inserted["allAccepted"] is True
    names = [s["name"] for s in inserted["reports"][0]["statuses"]]
    assert names == [
        "ndn:/OGB/12/41/GPS-ID/DATA/Foo/ShopApp/alice/1234",
        "ndn:/OGB/12/41/58/GPS-ID/DATA/Foo/ShopApp/alice/1234",
        "ndn:/OGB/12/41/58/19/GPS-ID/DATA/Foo/ShopApp/alice/1234",
    ]

    report = run_json(capsys, "--config", config_path, "query",
                      "--bbox", ROME_BBOX, "--tid", "Foo", "--uid", "alice",
                      "--cid", "ShopApp")
    assert report["counts"]["itemsAfterFilter"] == 1
    assert report["features"][0]["properties"]["oid"] == "1234"


def test_query_output_is_byte_identical_across_runs(capsys, config_path,
                                                    tmp_path):
    feature = write_feature(tmp_path, STARBUCKS)
    run_json(capsys, "--config", config_path, "insert", feature,
             "--tid", "Foo", "--uid", "alice")
    argv = ["--config", str(config_path), "query", "--bbox", ROME_BBOX,
            "--tid", "Foo", "--uid", "alice", "--cid", "ShopApp"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_remove_clears_previous_insert(capsys, config_path, tmp_path):
    feature = write_feature(tmp_path, STARBUCKS)
    run_json(capsys, "--config", config_path, "insert", feature,
             "--tid", "Foo", "--uid", "alice")
    removed = run_json(capsys, "--config", config_path, "remove", feature,
                       "--tid", "Foo", "--uid", "alice")
    statuses = {s["status"] for s in removed["reports"][0]["statuses"]}
    assert statuses == {"accepted"}
    report = run_json(capsys, "--config", config_path, "query",
                      "--bbox", ROME_BBOX, "--tid", "Foo", "--uid", "alice",
                      "--cid", "ShopApp")
    assert report["features"] == []


def test_collection_insert_fills_in_properties(capsys, config_path, tmp_path):
    collection = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "properties": {},
             "geometry": {"type": "Point", "coordinates": [12.5, 41.9]}},
            {"type": "Feature", "properties": {},
             "geometry": {"type": "Point", "coordinates": [12.6, 41.7]}},
        ],
    }
    path = write_feature(tmp_path, collection, "places.json")
    result = run_json(capsys, "--config", config_path, "insert", path,
                      "--tid", "Foo", "--uid", "alice", "--cid", "Pins")
    assert result["features"] == 2
    assert result["allAccepted"] is True
    oids = {s["name"].rsplit("/", 1)[1]
            for report in result["reports"] for s in report["statuses"]}
    assert len(oids) == 2  # each feature got its own generated oid


def test_gtfs_insert_counts_and_skips(capsys, config_path, tmp_path):
    feed = tmp_path / "feed"
    feed.mkdir()
    (feed / "stops.txt").write_text(
        "stop_id,stop_name,stop_lat,stop_lon\n"
        "S1,Termini,41.9009,12.5018\n"
        "S2,Colosseo,41.8902,12.4922\n"
        "S3,Ghost,,\n",
        encoding="utf-8")
    result = run_json(capsys, "--config", config_path, "insert", feed,
                      "--tid", "Foo", "--uid", "alice", "--cid", "Transit",
                      "--url", "https://transit.example/gtfs.zip",
                      "--oid", "feed-1")
    assert result["stops"] == 2
    assert result["skippedStops"] == 1
    assert result["allAccepted"] is True
    # two stops in different 0.1 deg cells: 1 level-0 + 2 + 2 items
    assert len(result["reports"][0]["statuses"]) == 5

    report = run_json(capsys, "--config", config_path, "query",
                      "--bbox", "12.49,41.88,12.53,41.91",
                      "--tid", "Foo", "--uid", "alice", "--cid", "Transit")
    (feature,) = report["features"]
    assert feature["geometry"]["type"] == "MultiPoint"
    assert feature["properties"]["URL"] == "https://transit.example/gtfs.zip"


def test_gtfs_insert_requires_url(capsys, config_path, tmp_path):
    feed = tmp_path / "feed"
    feed.mkdir()
    (feed / "stops.txt").write_text("stop_id,stop_lat,stop_lon\nS1,1,2\n",
                                    encoding="utf-8")
    code, _, err = run(capsys, "--config", config_path, "insert", feed,
                       "--tid", "Foo", "--uid", "alice", "--cid", "Transit")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_tessellate_is_pure_and_bounded(capsys, tmp_path):
    result = run_json(capsys, "--config", tmp_path / "absent.json",
                      "tessellate", "--bbox", ROME_BBOX, "--k", "19")
    assert result["count"] == len(result["tiles"]) <= 19
    assert result["stretch"] >= 1.0
    assert result["constraintViolated"] is False
    assert all(t.startswith("ndn:/OGB/") and t.endswith("/GPS-ID")
               for t in result["tiles"])


def test_bench_emits_model_grade_csv(capsys, tmp_path):
    scenario = tmp_path / "sweep.json"
    scenario.write_text(json.dumps({
        "name": "mini",
        "engines": 1,
        "params": {"nq": 40, "ni": 100, "ndb": 1},
        "sweep": {"axis": "h", "values": [0.0, 0.5, 1.0]},
    }), encoding="utf-8")
    code, out, err = run(capsys, "bench", scenario)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "sweepValue,measuredMs,predictedMs,relErr"
    assert len(lines) == 4
    for line in lines[1:]:
        assert float(line.split(",")[3]) <= 0.10


def test_bench_rejects_unknown_scenario_keys(capsys, tmp_path):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({
        "sweep": {"axis": "h", "values": [0.0]},
        "base": {"nq": 4},
    }), encoding="utf-8")
    code, _, err = run(capsys, "bench", scenario)
    assert code == 1
    assert json.loads(err)["error"] == "config-error"


def test_bf_stats_reflects_inserts(capsys, config_path, tmp_path):
    feature = write_feature(tmp_path, STARBUCKS)
    run_json(capsys, "--config", config_path, "insert", feature,
             "--tid", "Foo", "--uid", "alice")
    stats = run_json(capsys, "--config", config_path, "bf-stats")
    assert stats["m"] == 4096 and stats["h"] == 5
    assert stats["engines"] == ["rome"]
    assert stats["globalBitsSet"] > 0


def test_unroutable_tiles_exit_with_partial_report(capsys, tmp_path):
    config = tmp_path / "narrow.json"
    config.write_text(json.dumps({
        "mode": "sim",
        "seed": 7,
        "keysDir": "keys",
        "storageDir": "storage",
        "engines": [{"id": "rome", "servedPrefixes": ["ndn:/OGB/12"]}],
        "certRepo": {},
    }), encoding="utf-8")
    code, _, err = run(capsys, "--config", config, "query",
                       "--bbox", "50.0,10.0,50.02,10.02",
                       "--tid", "Foo", "--uid", "alice", "--cid", "ShopApp")
    assert code == 3
    body = json.loads(err)
    assert body["error"] == "partial-result-error"
    assert len(body["failedTiles"]) == body["report"]["counts"]["tilesQueried"]
    assert body["report"]["features"] == []


def test_socket_commands_without_a_cluster_fail_with_one_json_error(capsys, tmp_path):
    listeners = [socket.create_server(("127.0.0.1", 0)) for _ in range(3)]
    ports = [listener.getsockname()[1] for listener in listeners]
    for listener in listeners:
        listener.close()                    # nothing listens there now
    address = lambda port: {"host": "127.0.0.1", "port": port}
    config = tmp_path / "sock.json"
    config.write_text(json.dumps({
        "mode": "socket", "seed": 7, "keysDir": "keys",
        "engines": [{"id": "rome", "servedPrefixes": ["ndn:/OGB"],
                     "address": address(ports[0])}],
        "bfServer": {"m": 4096, "h": 5, "address": address(ports[1])},
        "certRepo": {"address": address(ports[2])},
    }), encoding="utf-8")
    for argv in (["query", "--bbox", ROME_BBOX, "--tid", "Foo", "--uid", "alice",
                  "--cid", "ShopApp"], ["bf-stats"]):
        code, out, err = run(capsys, "--config", config, *argv)
        assert (code, out) == (1, ""), argv
        [line] = err.splitlines()
        assert "127.0.0.1:%d" % ports[0] in json.loads(line)["message"]
        assert "Traceback" not in err


def test_usage_errors_exit_2(capsys, config_path):
    for argv in (
        ["--config", str(config_path), "query", "--bbox", "banana",
         "--tid", "Foo", "--uid", "alice", "--cid", "ShopApp"],
        ["--config", str(config_path), "query", "--bbox", "1,2,3",
         "--tid", "Foo", "--uid", "alice", "--cid", "ShopApp"],
        ["--config", str(config_path), "insert", "nope.json",
         "--tid", "Foo", "--uid", "alice"],
        ["--config", "missing.json", "bf-stats"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert json.loads(err)["error"] == "usage"


def _config_with(**changes):
    data = {"mode": "sim", "seed": 7, "certRepo": {},
            "engines": [{"id": "rome", "servedPrefixes": ["ndn:/OGB"]}],
            "bfServer": {"m": 4096, "h": 5}}
    for path, value in changes.items():
        section, _, key = path.rpartition("__")
        (data.setdefault(section, {}) if section else data)[key] = value
    return data


def _engine_with(**changes):
    data = _config_with()
    data["engines"][0].update(changes)
    return data


@pytest.mark.parametrize("config", [
    ["not", "an", "object"],
    _config_with(engines=["rome"]),
    _config_with(engines=[{"id": "rome"}]),
    _config_with(bfServer__m="big"),
    _config_with(bfServer__m=0),
    _config_with(bfServer__h=-1),
    _config_with(bfServer__m=True),
    _config_with(seed="x"),
    _config_with(topology__handlerLinkMbps=-1),
    _config_with(topology__handlerLinkMbps="fast"),
    _config_with(certRepo__address={"port": "x"}),
    _engine_with(cacheCapacity=True),
    _engine_with(cacheCapacity=2.7),
    _engine_with(cacheCapacity=-1),
    _engine_with(tileFreshnessMs=-5),
    _engine_with(procBaseMs=-1.0),
    _engine_with(ipresFreshnessMs=5000.0),
    _engine_with(procPerItemMs=0.008),
    _config_with(topology__latencyMs=0.0),
    _config_with(defaults={}),
    _engine_with(address={"host": 7}),
    _engine_with(address={"port": -4}),
    _config_with(bfServer__address={"port": 65536}),
    _config_with(certRepo__address={"port": 70000}),
], ids=["array", "engine-string", "engine-without-prefixes", "m-string",
        "m-zero", "h-negative", "m-bool", "seed-string", "bandwidth-negative",
        "bandwidth-string", "port-string", "capacity-bool", "capacity-float",
        "capacity-negative", "tile-freshness-refused", "proc-base-refused",
        "ipres-freshness-refused", "proc-per-item-refused", "latency-refused",
        "defaults-refused", "engine-host-number", "engine-port-negative",
        "bf-port-too-big", "cert-port-too-big"])
def test_bad_config_is_one_json_config_error(capsys, tmp_path, config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run(capsys, "--config", path, "bf-stats")
    assert code == 1 and out == ""
    assert "Traceback" not in err
    body = json.loads(err)
    assert body["error"] == "config-error"


def test_missing_subcommand_arguments_exit_2(capsys, config_path):
    code, _, err = run(capsys, "--config", config_path, "query")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_cluster_start_is_a_noop_in_sim_mode(capsys, config_path):
    result = run_json(capsys, "--config", config_path, "cluster", "start")
    assert result["mode"] == "sim"


def test_cluster_stop_without_pidfile_fails(capsys, config_path):
    code, _, err = run(capsys, "--config", config_path, "cluster", "stop")
    assert code == 1
    assert json.loads(err)["error"] == "config-error"


def test_cluster_stop_with_a_corrupt_pidfile_fails(capsys, config_path):
    config_path.with_suffix(".pid").write_text("garbage", encoding="utf-8")
    code, out, err = run(capsys, "--config", config_path, "cluster", "stop")
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "config-error"


def _with(**changes):
    feature = json.loads(json.dumps(STARBUCKS))
    for path, value in changes.items():
        *parents, leaf = path.split("__")
        node = feature
        for key in parents:
            node = node[key]
        node[leaf] = value
    return feature


@pytest.mark.parametrize("feature", [
    _with(geometry__coordinates=["a", 41.8919]),
    {"type": "FeatureCollection", "features": [1]},
    _with(properties=None),
    {"type": "FeatureCollection", "features": 5},
    _with(geometry={"type": "MultiPoint", "coordinates": 5}),
], ids=["coordinate-string", "feature-not-object", "properties-null",
        "features-not-array", "multipoint-number"])
def test_bad_feature_file_is_one_json_error(capsys, config_path, tmp_path, feature):
    path = write_feature(tmp_path, feature)
    code, out, err = run(capsys, "--config", config_path, "insert", path,
                         "--tid", "Foo", "--uid", "alice")
    assert code == 1 and out == ""
    assert "Traceback" not in err
    body = json.loads(err)
    assert set(body) == {"error", "message"}


def test_store_in_the_old_format_is_one_json_storage_error(capsys, config_path,
                                                           tmp_path):
    old = tmp_path / "storage" / "rome" / "log.jsonl"
    old.parent.mkdir(parents=True)
    old.write_text('{"op": "delete", "name": "x"}\n', encoding="utf-8")
    code, out, err = run(capsys, "--config", config_path, "bf-stats")
    assert code == 1 and out == ""
    body = json.loads(err)
    assert body["error"] == "storage-error"
    assert str(old) in body["message"]


def test_a_corrupt_key_file_fails_only_the_identity_it_holds(capsys, config_path,
                                                             tmp_path):
    feature = write_feature(tmp_path, STARBUCKS)
    run_json(capsys, "--config", config_path, "insert", feature,
             "--tid", "Foo", "--uid", "alice")
    broken = tmp_path / "keys" / "OGB" / "tenants" / "Broken.json"
    broken.write_text("{not json", encoding="utf-8")
    argv = ["--config", config_path, "query", "--bbox", ROME_BBOX,
            "--cid", "ShopApp"]
    report = run_json(capsys, *argv, "--tid", "Foo", "--uid", "alice")
    assert report["counts"]["itemsAfterFilter"] == 1

    code, out, err = run(capsys, *argv, "--tid", "Broken", "--uid", "bob")
    assert code == 1 and out == ""
    assert "Traceback" not in err
    body = json.loads(err)
    assert body["error"] == "config-error"
    assert str(broken) in body["message"]


def test_a_trust_rules_config_is_refused(capsys, tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(_config_with(trustRules={})), encoding="utf-8")
    code, out, err = run(capsys, "--config", path, "bf-stats")
    assert code == 1 and out == ""
    body = json.loads(err)
    assert body["error"] == "config-error"
    assert "trustRules" in body["message"]
