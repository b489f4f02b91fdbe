from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from ogb import bloom, trust
from ogb.engine import (
    ACCEPTED,
    NOT_FOUND,
    REJECTED,
    Engine,
    EngineConfig,
    bulk_channel,
)
from ogb.errors import StorageError
from ogb.geodata import INLINE, REFERENCE, OgbData, OgbTile, make_ogb_data_set, parse_feature
from ogb.grid import TileId
from ogb.icn.core import Interest
from ogb.names import IpResName, TileName, segment_name

from conftest import starbucks_dict

ROME = ["ndn:/OGB/12/41"]
L0 = TileId(12, 41)
L1 = TileId(12, 41, ((5, 8),))
L2 = TileId(12, 41, ((5, 8), (1, 9)))


def make_engine(keyring, prefixes=None, storage_dir=None, **overrides):
    kp, cert = keyring.engine("e1")
    config = EngineConfig("e1", prefixes or ROME, **overrides)
    return Engine(config, kp, cert, keyring.store(),
                  storage_dir=str(storage_dir) if storage_dir else None)


def signed_items(feature_dict, keyring, freshness_ms=60000):
    f = parse_feature(feature_dict)
    items = make_ogb_data_set(f, freshness_ms)
    kp, cert = keyring.user(f.tid, f.uid)
    for item in items:
        item.signature = trust.sign_envelope(kp, cert, item.name.name.text,
                                             item.signed_payload())
    return items


def tile_interest(keyring, tile, tid="Foo", cid="ShopApp", uid="Alice",
                  seg=0, signer=None):
    name = segment_name(TileName(tile, tid, cid).name, seg).text
    kp, cert = signer if signer else keyring.user(tid, uid)
    return Interest(name, b"", trust.sign_envelope(kp, cert, name, b""))


def shop(oid, coords=None, cid="ShopApp"):
    d = starbucks_dict()
    d["properties"]["oid"] = oid
    d["properties"]["cid"] = cid
    if coords is not None:
        d["geometry"]["coordinates"] = coords
    return d


def test_bulk_insert_and_tile_query(keyring, starbucks):
    eng = make_engine(keyring)
    items = signed_items(starbucks, keyring)
    statuses = eng.bulk_insert(items)
    assert [s.status for s in statuses] == [ACCEPTED] * 3
    assert eng.item_count == 3

    inline = eng.tile_query(TileName(L2, "Foo", "ShopApp"))
    assert [it.body_type for it in inline.items] == [INLINE]
    assert inline.items[0].name.oid == "1234"

    for coarse in (L0, L1):
        refs = eng.tile_query(TileName(coarse, "Foo", "ShopApp"))
        assert [it.body_type for it in refs.items] == [REFERENCE]
        assert refs.items[0].body.name.text == inline.items[0].name.name.text


def test_tile_query_filters_cid(keyring, starbucks):
    eng = make_engine(keyring)
    eng.bulk_insert(signed_items(starbucks, keyring))
    eng.bulk_insert(signed_items(shop(99, cid="MapApp"), keyring))

    got = eng.tile_query(TileName(L2, "Foo", "ShopApp"))
    assert [it.name.oid for it in got.items] == ["1234"]
    got = eng.tile_query(TileName(L2, "Foo", "MapApp"))
    assert [it.name.oid for it in got.items] == ["99"]


def test_unserved_prefix_rejected(keyring, starbucks):
    eng = make_engine(keyring, prefixes=["ndn:/OGB/0/0"])
    assert not eng.serves(L2)
    statuses = eng.bulk_insert(signed_items(starbucks, keyring))
    assert all(s.status == REJECTED and s.reason == "unserved-prefix"
               for s in statuses)
    assert eng.item_count == 0


def test_insert_rejects_bad_signatures(keyring, starbucks):
    mallory_kp, mallory_cert = keyring.user("Bar", "Mallory")
    eng = make_engine(keyring)

    unsigned = make_ogb_data_set(parse_feature(starbucks), 60000)
    statuses = eng.bulk_insert(unsigned)
    assert all(s.status == REJECTED and s.reason == "integrity" for s in statuses)

    foreign = make_ogb_data_set(parse_feature(starbucks), 60000)
    for item in foreign:
        item.signature = trust.sign_envelope(mallory_kp, mallory_cert,
                                             item.name.name.text,
                                             item.signed_payload())
    statuses = eng.bulk_insert(foreign)
    assert all(s.status == REJECTED and s.reason == "identity-rule"
               for s in statuses)

    tampered = signed_items(starbucks, keyring)
    for item in tampered:
        item.freshness_ms += 1
    statuses = eng.bulk_insert(tampered)
    assert all(s.status == REJECTED and s.reason == "integrity" for s in statuses)
    assert eng.item_count == 0


def test_upsert_keeps_liveness_counters_stable(keyring, starbucks):
    eng = make_engine(keyring)
    items = signed_items(starbucks, keyring)
    eng.bulk_insert(items)
    seq_before = eng.cbf.seq
    bitmap_before = eng.cbf.bitmap()

    statuses = eng.bulk_insert(signed_items(starbucks, keyring))
    assert [s.status for s in statuses] == [ACCEPTED] * 3
    assert eng.item_count == 3
    assert eng.cbf.seq == seq_before
    assert eng.cbf.bitmap() == bitmap_before


def test_bulk_delete_and_bucket_transitions(keyring, starbucks):
    pubs = []
    eng = make_engine(keyring)
    eng.publish_sink = pubs.append
    items = signed_items(starbucks, keyring)
    eng.bulk_insert(items)
    ups = [p for p in pubs if p.direction == bloom.UP]
    assert ups and all(p.engine_id == "e1" for p in ups)

    alice = trust.user_identity("Foo", "Alice")
    texts = [it.name.name.text for it in items]
    statuses = eng.bulk_delete(texts, alice)
    assert [s.status for s in statuses] == [ACCEPTED] * 3
    assert eng.item_count == 0
    downs = [p for p in pubs if p.direction == bloom.DOWN]
    assert sorted(p.bucket_index for p in downs) == sorted(p.bucket_index for p in ups)
    assert [p.seq for p in pubs] == list(range(len(pubs)))

    statuses = eng.bulk_delete(texts, alice)
    assert all(s.status == NOT_FOUND for s in statuses)

    eng.bulk_insert(signed_items(starbucks, keyring))
    statuses = eng.bulk_delete(texts, trust.user_identity("Foo", "Bob"))
    assert all(s.status == REJECTED and s.reason == "identity-rule"
               for s in statuses)
    statuses = eng.bulk_delete(["ndn:/OGB/12/41/GPS-ID"], alice)
    assert statuses[0].status == REJECTED and statuses[0].reason == "bad-name"


def test_named_interest_tile_roundtrip(keyring, starbucks):
    eng = make_engine(keyring)
    items = signed_items(starbucks, keyring)
    eng.bulk_insert(items)

    interest = tile_interest(keyring, L2)
    content, delay = eng.handle_named_interest(interest)
    assert content.name == interest.name
    assert content.final_segment == 0
    assert delay == pytest.approx(3.0 + 0.008)
    assert eng.processed_queries == 1

    tile = OgbTile.from_wire(content.payload)
    assert [it.name.name.text for it in tile.items] == [items[2].name.name.text]
    assert tile.freshness_ms == 60000

    ok, reason = keyring.store().verify(content.name, content.payload,
                                        content.envelope)
    assert ok, reason


def test_processing_delay_scales_with_item_count(keyring):
    eng = make_engine(keyring)
    rng = random.Random(3)
    for i in range(100):
        coords = [12.51 + rng.random() * 0.0099, 41.89 + rng.random() * 0.0099]
        eng.bulk_insert(signed_items(shop(10000 + i, coords), keyring))
    assert eng.item_count == 300

    content, delay = eng.handle_named_interest(tile_interest(keyring, L2))
    assert delay == pytest.approx(3.0 + 0.008 * 100)
    chunks = [content.payload]
    for seg in range(1, content.final_segment + 1):
        nxt, seg_delay = eng.handle_named_interest(tile_interest(keyring, L2, seg=seg))
        assert seg_delay == 0.0
        chunks.append(nxt.payload)
    assert eng.processed_queries == 1
    assert len(OgbTile.from_wire(b"".join(chunks)).items) == 100


def test_unauthorized_tile_interest_dropped_silently(keyring, starbucks):
    eve = keyring.user("Bar", "Eve")
    eng = make_engine(keyring)
    eng.bulk_insert(signed_items(starbucks, keyring))

    assert eng.handle_named_interest(tile_interest(keyring, L2, signer=eve)) is None
    assert eng.rejected_interests == 1
    assert eng.processed_queries == 0

    unsigned = Interest(segment_name(TileName(L2, "Foo", "ShopApp").name, 0).text)
    assert eng.handle_named_interest(unsigned) is None
    assert eng.rejected_interests == 2


def test_tile_cache_hit_and_write_invalidation(keyring, starbucks):
    eng = make_engine(keyring)
    eng.bulk_insert(signed_items(starbucks, keyring))

    first, d1 = eng.handle_named_interest(tile_interest(keyring, L2))
    again, d2 = eng.handle_named_interest(tile_interest(keyring, L2))
    assert eng.processed_queries == 1
    assert d1 > 0 and d2 == 0.0
    assert again.payload == first.payload

    eng.bulk_insert(signed_items(shop(55), keyring))
    after, d3 = eng.handle_named_interest(tile_interest(keyring, L2))
    assert eng.processed_queries == 2
    assert d3 > 0
    assert after.payload != first.payload


def test_tile_query_touches_one_level_table(keyring, starbucks):
    eng = make_engine(keyring)
    eng.bulk_insert(signed_items(starbucks, keyring))
    eng.tile_query(TileName(L2, "Foo", "ShopApp"))
    assert eng.table_access == [0, 0, 1]
    eng.tile_query(TileName(L0, "Foo", "ShopApp"))
    assert eng.table_access == [1, 0, 1]
    eng.tile_query(TileName(L1, "Foo", "ShopApp"))
    assert eng.table_access == [1, 1, 1]


def test_data_fetch_serves_stored_wire(keyring, starbucks):
    eng = make_engine(keyring)
    items = signed_items(starbucks, keyring)
    eng.bulk_insert(items)

    inline = items[2]
    interest = Interest(segment_name(inline.name.name, 0).text)
    content, delay = eng.handle_named_interest(interest)
    assert delay == 0.0
    assert content.payload == inline.to_wire()
    assert OgbData.from_wire(content.payload).signature == inline.signature
    assert eng.processed_queries == 0

    ghost = segment_name(inline.name.name, 0).text.replace("1234", "777")
    assert eng.handle_named_interest(Interest(ghost)) is None


def test_ipres_reports_engine_address(keyring):
    eng = make_engine(keyring, host="127.0.0.1", port=7001)
    interest = Interest(segment_name(IpResName(L2).name, 0).text)
    content, delay = eng.handle_named_interest(interest)
    assert json.loads(content.payload) == {
        "engineId": "e1", "host": "127.0.0.1", "port": 7001,
        "prefix": "ndn:/OGB/12/41",
    }
    assert delay == 0.0

    elsewhere = Interest(segment_name(IpResName(TileId(50, 50)).name, 0).text)
    assert eng.handle_named_interest(elsewhere) is None


def test_restart_replays_log_byte_identically(keyring, starbucks, tmp_path):
    eng = make_engine(keyring, storage_dir=tmp_path / "e1")
    eng.bulk_insert(signed_items(starbucks, keyring))
    extra = signed_items(shop(77), keyring)
    eng.bulk_insert(extra)
    eng.bulk_delete([extra[0].name.name.text], trust.user_identity("Foo", "Alice"))

    reborn = make_engine(keyring, storage_dir=tmp_path / "e1")
    assert reborn.co_table == eng.co_table
    assert reborn.tile_tables == eng.tile_tables
    assert reborn.cbf.bitmap() == eng.cbf.bitmap()

    old, _ = eng.handle_named_interest(tile_interest(keyring, L2))
    new, _ = reborn.handle_named_interest(tile_interest(keyring, L2))
    assert new.payload == old.payload


def test_snapshot_folds_log(keyring, starbucks, tmp_path):
    eng = make_engine(keyring, storage_dir=tmp_path / "e1")
    eng.bulk_insert(signed_items(starbucks, keyring))
    eng.snapshot()
    assert (tmp_path / "e1" / "log.jsonl").read_text() == ""
    eng.bulk_insert(signed_items(shop(88), keyring))

    reborn = make_engine(keyring, storage_dir=tmp_path / "e1")
    assert reborn.co_table == eng.co_table
    assert reborn.tile_tables == eng.tile_tables


def assert_same_state(a, b):
    assert a.co_table == b.co_table
    assert a.tile_tables == b.tile_tables
    assert a.cbf.counters == b.cbf.counters


def test_torn_log_tail_is_cut_at_every_offset(keyring, starbucks, tmp_path):
    items = signed_items(starbucks, keyring) + signed_items(shop(77), keyring)
    before = make_engine(keyring, bf_m=4096)
    before.bulk_insert(items[:-1])
    after = make_engine(keyring, bf_m=4096)
    after.bulk_insert(items)

    eng = make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=4096)
    eng.bulk_insert(items)
    log_path = tmp_path / "e1" / "log.jsonl"
    full = log_path.read_bytes()
    start = full.rindex(b"\n", 0, len(full) - 1) + 1

    for cut in range(start, len(full)):
        log_path.write_bytes(full[:cut])
        reborn = make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=4096)
        assert_same_state(reborn, before)
        assert log_path.read_bytes() == full[:start], cut
        # The next append starts on a line of its own.
        reborn.bulk_insert(items[-1:])
        again = make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=4096)
        assert_same_state(again, after)


def test_corrupt_log_line_raises_storage_error(keyring, starbucks, tmp_path):
    eng = make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=4096)
    eng.bulk_insert(signed_items(starbucks, keyring))
    log_path = tmp_path / "e1" / "log.jsonl"
    lines = log_path.read_bytes().split(b"\n")
    for index in (0, len(lines) - 2):       # the first and the last record
        broken = list(lines)
        broken[index] = broken[index][:20]
        log_path.write_bytes(b"\n".join(broken))
        with pytest.raises(StorageError):
            make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=4096)


def test_crash_between_snapshot_replace_and_log_truncate(keyring, starbucks,
                                                         tmp_path, monkeypatch):
    eng = make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=4096)
    items = signed_items(starbucks, keyring)
    eng.bulk_insert(items + signed_items(shop(77), keyring))
    eng.snapshot()
    eng.bulk_delete([it.name.name.text for it in items],
                    trust.user_identity("Foo", "Alice"))

    class Crash(Exception):
        pass

    replace = Path.replace

    def replace_then_crash(self, target):
        replace(self, target)
        raise Crash()

    monkeypatch.setattr(Path, "replace", replace_then_crash)
    with pytest.raises(Crash):
        eng.snapshot()
    monkeypatch.undo()
    assert (tmp_path / "e1" / "log.jsonl").read_text().count('"delete"') == 3

    reborn = make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=4096)
    assert_same_state(reborn, eng)


def test_bf_publication_log_serves_by_seq(keyring, starbucks):
    eng = make_engine(keyring)
    pubs = []
    eng.publish_sink = pubs.append
    eng.bulk_insert(signed_items(starbucks, keyring))
    assert pubs

    name = bloom.publication_name("e1", pubs[0].seq) + "/seg=0"
    content, delay = eng.handle_bf_interest(Interest(name))
    assert delay == 0.0
    assert bloom.BfPublication.from_dict(json.loads(content.payload)) == pubs[0]
    ok, reason = keyring.store().verify(content.name, content.payload,
                                        content.envelope)
    assert ok, reason

    unborn = bloom.publication_name("e1", 9999) + "/seg=0"
    assert eng.handle_bf_interest(Interest(unborn)) is None


def service_interest(eng_id, nonce, request, envelope_from=None):
    name = "%s/req-%d/seg=0" % (bulk_channel(eng_id), nonce)
    payload = json.dumps(request).encode("utf-8")
    envelope = None
    if envelope_from is not None:
        kp, cert = envelope_from
        envelope = trust.sign_envelope(kp, cert, name, payload)
    return Interest(name, payload, envelope)


def test_service_channel_insert_digest_status(keyring, starbucks):
    eng = make_engine(keyring)
    items = signed_items(starbucks, keyring)

    req = {"op": "insert", "items": [it.to_dict() for it in items]}
    content, _ = eng.handle_service_interest(service_interest("e1", 1, req))
    reply = json.loads(content.payload)
    assert [s["status"] for s in reply["statuses"]] == [ACCEPTED] * 3
    assert eng.item_count == 3

    content, _ = eng.handle_service_interest(service_interest("e1", 2, {"op": "digest"}))
    seq, bitmap = bloom.decode_digest(content.payload)
    assert seq == eng.cbf.seq
    assert bitmap == eng.cbf.bitmap()

    content, _ = eng.handle_service_interest(service_interest("e1", 3, {"op": "status"}))
    status = json.loads(content.payload)
    assert status["engineId"] == "e1"
    assert status["items"] == 3

    content, _ = eng.handle_service_interest(service_interest("e1", 4, {"op": "nope"}))
    assert "error" in json.loads(content.payload)


def test_service_channel_delete_requires_signer(keyring, starbucks):
    eng = make_engine(keyring)
    items = signed_items(starbucks, keyring)
    eng.bulk_insert(items)
    texts = [it.name.name.text for it in items]

    content, _ = eng.handle_service_interest(
        service_interest("e1", 1, {"op": "delete", "names": texts}))
    reply = json.loads(content.payload)
    assert all(s["status"] == REJECTED and s["reason"] == "identity-rule"
               for s in reply["statuses"])
    assert eng.item_count == 3

    alice = keyring.user("Foo", "Alice")
    content, _ = eng.handle_service_interest(
        service_interest("e1", 2, {"op": "delete", "names": texts}, envelope_from=alice))
    reply = json.loads(content.payload)
    assert [s["status"] for s in reply["statuses"]] == [ACCEPTED] * 3
    assert eng.item_count == 0


def test_service_replies_are_replayed_not_reapplied(keyring, starbucks):
    eng = make_engine(keyring)
    items = signed_items(starbucks, keyring)
    eng.bulk_insert(items)

    alice = keyring.user("Foo", "Alice")
    interest = service_interest("e1", 7, {"op": "delete",
                                          "names": [items[0].name.name.text]},
                                envelope_from=alice)
    first, _ = eng.handle_service_interest(interest)
    assert json.loads(first.payload)["statuses"][0]["status"] == ACCEPTED

    again, _ = eng.handle_service_interest(interest)
    assert again.payload == first.payload
    assert eng.item_count == 2
