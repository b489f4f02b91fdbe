from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import pytest

from ogb import bloom, grid, trust
from ogb import engine as engine_module
from ogb.engine import (
    ACCEPTED,
    GROUP_MIN_PATH,
    LOG_FILE,
    NOT_FOUND,
    REJECTED,
    SNAPSHOT_FILE,
    Engine,
    EngineConfig,
    bulk_channel,
    read_frames,
)
from ogb.errors import StorageError
from ogb.geodata import (
    INLINE,
    REFERENCE,
    OgbData,
    OgbTile,
    is_gone,
    make_ogb_data_set,
    parse_feature,
)
from ogb.grid import TileId, tile_bbox
from ogb.icn.core import SEGMENT_SIZE, Interest
from ogb.names import (DataName, IpResName, Name, TileName, segment_name,
                       split_segment, tile_prefix)

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


def ask(producer, interest):
    """The segment `interest` names, from what `producer` returns for its
    object as a host calls it, and the delay the producer reported."""
    base, index = split_segment(Name.from_text(interest.name))
    result = producer(interest, base)
    if result is None:
        return None
    segments, delay = result
    return segments[index], delay


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


def listing(eng, tile_name):
    """The engine's tile-query result, decoded."""
    return OgbTile.from_wire(eng.tile_query(tile_name).to_wire())


def test_bulk_insert_and_tile_query(keyring, starbucks):
    eng = make_engine(keyring)
    items = signed_items(starbucks, keyring)
    statuses = eng.bulk_insert(items)
    assert [s.status for s in statuses] == [ACCEPTED] * 3
    assert eng.item_count == 3

    inline = listing(eng, TileName(L2, "Foo", "ShopApp"))
    assert [it.body_type for it in inline.items] == [INLINE]
    assert inline.items[0].name.oid == "1234"

    for coarse in (L0, L1):
        refs = listing(eng, TileName(coarse, "Foo", "ShopApp"))
        assert [it.body_type for it in refs.items] == [REFERENCE]
        assert refs.items[0].body.name.text == inline.items[0].name.name.text


def test_tile_query_filters_cid(keyring, starbucks):
    eng = make_engine(keyring)
    eng.bulk_insert(signed_items(starbucks, keyring))
    eng.bulk_insert(signed_items(shop(99, cid="MapApp"), keyring))

    got = listing(eng, TileName(L2, "Foo", "ShopApp"))
    assert [it.name.oid for it in got.items] == ["1234"]
    got = listing(eng, TileName(L2, "Foo", "MapApp"))
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
    published = []
    eng = make_engine(keyring)
    eng.publish_sink = published.append
    items = signed_items(starbucks, keyring)
    eng.bulk_insert(items)
    assert len(published) == 1                    # one per bulk request
    ups = bloom.decode_publication(published[0].payload)
    assert ups and all(p.engine_id == "e1" and p.direction == bloom.UP
                       for p in ups)

    alice = trust.user_identity("Foo", "Alice")
    texts = [it.name.name.text for it in items]
    statuses = eng.bulk_delete(texts, alice)
    assert [s.status for s in statuses] == [ACCEPTED] * 3
    assert eng.item_count == 0
    assert len(published) == 2
    downs = bloom.decode_publication(published[1].payload)
    assert all(p.engine_id == "e1" and p.direction == bloom.DOWN for p in downs)
    assert sorted(p.bucket_index for p in downs) == sorted(p.bucket_index for p in ups)
    # Every transition exactly once, in seq order, across the publications.
    assert [p.seq for p in ups + downs] == list(range(eng.cbf.seq))

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
    content, delay = ask(eng.handle_named_interest, interest)
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

    content, delay = ask(eng.handle_named_interest, tile_interest(keyring, L2))
    assert delay == pytest.approx(3.0 + 0.008 * 100)
    chunks = [content.payload]
    for seg in range(1, content.final_segment + 1):
        nxt, seg_delay = ask(eng.handle_named_interest,
                             tile_interest(keyring, L2, seg=seg))
        assert seg_delay == 0.0
        chunks.append(nxt.payload)
    assert eng.processed_queries == 1
    assert len(OgbTile.from_wire(b"".join(chunks)).items) == 100


def test_unauthorized_tile_interest_dropped_silently(keyring, starbucks):
    eve = keyring.user("Bar", "Eve")
    eng = make_engine(keyring)
    eng.bulk_insert(signed_items(starbucks, keyring))

    assert ask(eng.handle_named_interest,
               tile_interest(keyring, L2, signer=eve)) is None
    assert eng.rejected_interests == 1
    assert eng.processed_queries == 0

    unsigned = Interest(segment_name(TileName(L2, "Foo", "ShopApp").name, 0).text)
    assert ask(eng.handle_named_interest, unsigned) is None
    assert eng.rejected_interests == 2


def test_tile_cache_hit_and_write_invalidation(keyring, starbucks):
    eng = make_engine(keyring)
    eng.bulk_insert(signed_items(starbucks, keyring))

    first, d1 = ask(eng.handle_named_interest, tile_interest(keyring, L2))
    again, d2 = ask(eng.handle_named_interest, tile_interest(keyring, L2))
    assert eng.processed_queries == 1
    assert d1 > 0 and d2 == 0.0
    assert again.payload == first.payload

    eng.bulk_insert(signed_items(shop(55), keyring))
    after, d3 = ask(eng.handle_named_interest, tile_interest(keyring, L2))
    assert eng.processed_queries == 2
    assert d3 > 0
    assert after.payload != first.payload


def test_spliced_listing_equals_ogbtile_wire(keyring):
    """Tenants and client ids sharing tiles at every level: each listing is
    byte-identical to OgbTile.to_wire() of the same items in name order."""
    owners = [("Foo", "Alice", "ShopApp"), ("Foo", "Bob", "ShopApp"),
              ("Foo", "Alice", "MapApp"), ("Bar", "Carol", "ShopApp")]
    for tid, uid, _ in owners:
        keyring.user(tid, uid)
    eng = make_engine(keyring)
    stored = []
    rng = random.Random(11)
    for i in range(24):
        tid, uid, cid = owners[i % 4]
        d = shop(500 + i // 4, [12.51 + rng.random() * 0.02, 41.89 + rng.random() * 0.005],
                 cid=cid)
        d["properties"].update(tid=tid, uid=uid, note="say \"hi\" \u00e9 %d" % i)
        items = signed_items(d, keyring)
        assert [s.reason for s in eng.bulk_insert(items)] == [None] * len(items)
        stored += items
    assert len({it.name.tile for it in stored}) < len(stored)
    for tile in {it.name.tile for it in stored}:
        for tid, cid in (("Foo", "ShopApp"), ("Foo", "MapApp"), ("Bar", "ShopApp"),
                         ("Bar", "MapApp")):
            tile_name = TileName(tile, tid, cid)
            want = sorted((it for it in stored if it.name.tile == tile
                           and it.name.tid == tid and it.name.cid == cid),
                          key=lambda it: it.name.name.text)
            got = eng.tile_query(tile_name)
            assert got.to_wire() == OgbTile(tile_name, want, 60000).to_wire()
            assert len(got.items) == len(want)


def test_tile_query_touches_one_level_table(keyring, starbucks):
    eng = make_engine(keyring)
    eng.bulk_insert(signed_items(starbucks, keyring))
    eng.tile_query(TileName(L2, "Foo", "ShopApp"))
    assert eng.table_access == [0, 0, 1]
    eng.tile_query(TileName(L0, "Foo", "ShopApp"))
    assert eng.table_access == [1, 0, 1]
    eng.tile_query(TileName(L1, "Foo", "ShopApp"))
    assert eng.table_access == [1, 1, 1]


def test_data_fetch_serves_stored_wire(keyring, starbucks, tmp_path):
    eng = make_engine(keyring, storage_dir=tmp_path / "e1")
    items = signed_items(starbucks, keyring, freshness_ms=1234)
    eng.bulk_insert(items)

    inline = items[2]
    interest = Interest(segment_name(inline.name.name, 0).text)
    content, delay = ask(eng.handle_named_interest, interest)
    assert delay == 0.0
    assert content.payload == inline.to_wire()
    assert content.freshness_ms == 1234.0
    reborn_engine = make_engine(keyring, storage_dir=tmp_path / "e1")
    reborn, _ = ask(reborn_engine.handle_named_interest, interest)
    assert (reborn.payload, reborn.freshness_ms) == (content.payload, 1234.0)
    assert OgbData.from_wire(content.payload).signature == inline.signature
    assert eng.processed_queries == 0

    # A name it serves but does not hold: a signed "gone" reply that no
    # content store keeps.  A name it does not serve: no reply.
    ghost = segment_name(inline.name.name, 0).text.replace("1234", "777")
    gone, delay = ask(eng.handle_named_interest, Interest(ghost))
    assert delay == 0.0 and gone.freshness_ms == 0.0
    assert is_gone(gone.payload)
    assert json.loads(gone.payload) == {"gone": ghost[:-len("/seg=0")]}
    ok, reason = keyring.store().verify(gone.name, gone.payload, gone.envelope)
    assert ok, reason
    elsewhere = segment_name(DataName(TileId(50, 50), "Foo", "ShopApp", "Alice", "1"
                                      ).name, 0).text
    assert ask(eng.handle_named_interest, Interest(elsewhere)) is None


def test_ipres_reports_engine_address(keyring):
    eng = make_engine(keyring, host="127.0.0.1", port=7001)
    interest = Interest(segment_name(IpResName(L2).name, 0).text)
    content, delay = ask(eng.handle_named_interest, interest)
    assert json.loads(content.payload) == {
        "engineId": "e1", "host": "127.0.0.1", "port": 7001,
        "prefix": "ndn:/OGB/12/41",
    }
    assert delay == 0.0

    elsewhere = Interest(segment_name(IpResName(TileId(50, 50)).name, 0).text)
    assert ask(eng.handle_named_interest, elsewhere) is None


def test_restart_replays_log_byte_identically(keyring, starbucks, tmp_path):
    eng = make_engine(keyring, storage_dir=tmp_path / "e1")
    eng.bulk_insert(signed_items(starbucks, keyring))
    extra = signed_items(shop(77), keyring)
    eng.bulk_insert(extra)
    eng.bulk_delete([extra[0].name.name.text], trust.user_identity("Foo", "Alice"))

    reborn = make_engine(keyring, storage_dir=tmp_path / "e1")
    assert_same_state(reborn, eng)
    assert reborn.cbf.seq == eng.cbf.seq
    assert reborn.log_records == 3

    old, _ = ask(eng.handle_named_interest, tile_interest(keyring, L2))
    new, _ = ask(reborn.handle_named_interest, tile_interest(keyring, L2))
    assert new.payload == old.payload


def log_records(path):
    records, end = read_frames(path.read_bytes(), path)
    assert end == path.stat().st_size
    return [(seq, bytes(body)) for seq, body in records]


def test_snapshot_folds_log(keyring, starbucks, tmp_path):
    eng = make_engine(keyring, storage_dir=tmp_path / "e1")
    eng.bulk_insert(signed_items(starbucks, keyring))
    eng.snapshot()
    assert (tmp_path / "e1" / LOG_FILE).read_bytes() == b""
    # The items, then the Bloom filter's seq, both under the folded seq.
    (folded, _), (also, _) = log_records(tmp_path / "e1" / SNAPSHOT_FILE)
    assert folded == also == 1
    eng.bulk_insert(signed_items(shop(88), keyring))
    assert [seq for seq, _ in log_records(tmp_path / "e1" / LOG_FILE)] == [2]

    reborn = make_engine(keyring, storage_dir=tmp_path / "e1")
    assert_same_state(reborn, eng)
    assert reborn.log_records == 1


def assert_same_state(a, b):
    assert a.co_table == b.co_table
    assert a.tile_tables == b.tile_tables
    assert a.cbf.counters == b.cbf.counters


ALICE = trust.user_identity("Foo", "Alice")


def seeded_history(eng, keyring, rng):
    """Bulk inserts at a few shared spots, upserts, removes that empty
    prefixes, re-inserts, and a snapshot midway."""
    spots = [[12.501 + 0.02 * i, 41.891 + 0.01 * (i % 2)] for i in range(4)]
    stored, removed = {}, {}
    for step in range(24):
        if step == 12:
            eng.snapshot()
        roll = rng.random()
        if roll < 0.4 or not stored:
            oid = 100 * step
            batch = {oid + i: shop(oid + i, rng.choice(spots))
                     for i in range(rng.randint(1, 3))}
        elif roll < 0.5:
            batch = {oid: stored[oid] for oid in rng.sample(sorted(stored), 1)}
        elif roll < 0.6 and removed:
            batch = {oid: removed.pop(oid) for oid in rng.sample(sorted(removed), 1)}
        else:
            spot = rng.choice([f["geometry"]["coordinates"] for f in stored.values()])
            gone = [oid for oid, f in stored.items()
                    if f["geometry"]["coordinates"] == spot]
            names = [it.name.name.text for oid in gone
                     for it in signed_items(stored[oid], keyring)]
            assert all(s.status == ACCEPTED for s in eng.bulk_delete(names, ALICE))
            removed.update((oid, stored.pop(oid)) for oid in gone)
            continue
        items = [it for f in batch.values() for it in signed_items(f, keyring)]
        assert all(s.status == ACCEPTED for s in eng.bulk_insert(items))
        stored.update(batch)
    stored[9999] = shop(9999, spots[0])
    eng.bulk_insert(signed_items(stored[9999], keyring))
    return stored


def per_item_replay(cbf, changes):
    """The reference restart: one counting-filter insert or remove per
    replayed item."""
    for prefix, delta in changes:
        if delta > 0:
            cbf.insert(prefix)
        else:
            cbf.remove(prefix)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_restart_rebuilds_the_filter_as_the_per_item_replay(keyring, tmp_path,
                                                            monkeypatch, seed):
    live = make_engine(keyring, storage_dir=tmp_path / "live", bf_m=61)
    stored = seeded_history(live, keyring, random.Random(seed))
    for copy in ("batched", "reference"):
        shutil.copytree(tmp_path / "live", tmp_path / copy)
    batched = make_engine(keyring, storage_dir=tmp_path / "batched", bf_m=61)
    with monkeypatch.context() as patch:
        patch.setattr(bloom.CountingBloomFilter, "replay", per_item_replay)
        reference = make_engine(keyring, storage_dir=tmp_path / "reference",
                                bf_m=61)
    assert reference.log_records > 0 and (tmp_path / "live" / SNAPSHOT_FILE).exists()

    # The counts and the seq are those of the live engine: the snapshot
    # keeps the seq of the transitions it folded.
    assert_same_state(live, reference)
    assert_same_state(batched, reference)
    assert batched.cbf.seq == reference.cbf.seq == live.cbf.seq
    assert batched.cbf.bitmap() == reference.cbf.bitmap() == live.cbf.bitmap()
    assert batched.digest_payload() == reference.digest_payload()

    names = [it.name.name.text for f in stored.values()
             for it in signed_items(f, keyring)]
    publications = []
    for eng in (reference, batched):
        # The next live publication: every stored item removed.
        first = eng.cbf.seq
        eng.bulk_delete(names, ALICE)
        publications.append([c.payload for seq in sorted(eng.bf_log)
                             if seq >= first for c in eng.bf_log[seq]])
    assert publications[0] and publications[1] == publications[0]


def test_a_snapshot_without_the_filter_seq_loads_as_before(keyring, tmp_path,
                                                           monkeypatch):
    live = make_engine(keyring, storage_dir=tmp_path / "live", bf_m=61)
    seeded_history(live, keyring, random.Random(1))
    path = tmp_path / "live" / SNAPSHOT_FILE
    data = path.read_bytes()
    # The earlier format: the items record alone.
    _, first_end = read_frames(data[:-1], path)
    path.write_bytes(data[:first_end])
    shutil.copytree(tmp_path / "live", tmp_path / "reference")
    reborn = make_engine(keyring, storage_dir=tmp_path / "live", bf_m=61)
    with monkeypatch.context() as patch:
        patch.setattr(bloom.CountingBloomFilter, "replay", per_item_replay)
        reference = make_engine(keyring, storage_dir=tmp_path / "reference",
                                bf_m=61)
    assert reborn.log_records > 0
    assert_same_state(reborn, live)
    # Its seq is counted from the surviving items and the log, as before.
    assert reborn.cbf.seq == reference.cbf.seq < live.cbf.seq


def test_restart_hashes_each_distinct_prefix_once(keyring, tmp_path, monkeypatch):
    live = make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=61)
    seeded_history(live, keyring, random.Random(4))
    built, hashed, per_key = [], [], []
    publication = bloom.BfPublication
    batch_hash = bloom.bucket_index_matrix
    fnv1a = bloom._fnv1a
    monkeypatch.setattr(bloom, "BfPublication",
                        lambda *a: built.append(a) or publication(*a))
    monkeypatch.setattr(bloom, "bucket_index_matrix",
                        lambda keys, m, h: hashed.extend(keys) or batch_hash(keys, m, h))
    monkeypatch.setattr(bloom, "_fnv1a",
                        lambda data, seed: per_key.append(data) or fnv1a(data, seed))
    reborn = make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=61)
    assert_same_state(reborn, live)
    assert built == [] and per_key == []
    assert len(hashed) == len(set(hashed))
    held = {prefix for table in live.tile_tables for prefix in table}
    assert held and held <= set(hashed)


def test_one_log_record_per_bulk_request(keyring, starbucks, tmp_path):
    eng = make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=4096)
    items = signed_items(starbucks, keyring)
    eng.bulk_insert(items)
    eng.bulk_delete([it.name.name.text for it in items[:2]],
                    trust.user_identity("Foo", "Alice"))
    eng.bulk_delete([items[0].name.name.text], trust.user_identity("Foo", "Alice"))
    (s1, insert), (s2, delete) = log_records(tmp_path / "e1" / LOG_FILE)
    assert (s1, s2) == (1, 2)
    # Each name is stored once, inside its wire bytes: the record is those
    # bytes plus a kind byte and eight bytes of lengths per item.
    assert all(item.to_wire() in insert for item in items)
    assert len(insert) == 1 + sum(8 + len(item.to_wire()) for item in items)
    assert delete == b"D" + "\n".join(it.name.name.text for it in items[:2]).encode()


def test_torn_log_tail_is_cut_at_every_offset(keyring, starbucks, tmp_path):
    items = signed_items(starbucks, keyring) + signed_items(shop(77), keyring)
    before = make_engine(keyring, bf_m=4096)
    before.bulk_insert(items[:-1])
    after = make_engine(keyring, bf_m=4096)
    after.bulk_insert(items)

    eng = make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=4096)
    eng.bulk_insert(items[:-1])
    log_path = tmp_path / "e1" / LOG_FILE
    start = log_path.stat().st_size
    eng.bulk_insert(items[-1:])
    full = log_path.read_bytes()

    for cut in range(start, len(full)):
        log_path.write_bytes(full[:cut])
        reborn = make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=4096)
        assert_same_state(reborn, before)
        assert log_path.read_bytes() == full[:start], cut
        # The next append lands as a whole record right after the last one.
        reborn.bulk_insert(items[-1:])
        assert log_path.read_bytes() == full, cut
        again = make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=4096)
        assert_same_state(again, after)


def test_flipped_bit_in_a_complete_record_raises_storage_error(keyring, starbucks,
                                                               tmp_path):
    eng = make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=4096)
    items = signed_items(starbucks, keyring)
    eng.bulk_insert(items[:2])
    eng.snapshot()
    eng.bulk_insert(items[2:])
    eng.bulk_delete([items[0].name.name.text], trust.user_identity("Foo", "Alice"))
    for path in (tmp_path / "e1" / LOG_FILE, tmp_path / "e1" / SNAPSHOT_FILE):
        good = path.read_bytes()
        for offset in range(len(good)):
            broken = bytearray(good)
            broken[offset] ^= 1 << (offset % 8)
            path.write_bytes(bytes(broken))
            with pytest.raises(StorageError, match=path.name):
                make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=4096)
        path.write_bytes(good)
    assert_same_state(make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=4096), eng)


class Crash(Exception):
    pass


@pytest.mark.parametrize("step", ["tmp-written", "replaced", "log-reset"])
def test_crash_at_each_snapshot_step(keyring, starbucks, tmp_path, monkeypatch, step):
    eng = make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=4096)
    items = signed_items(starbucks, keyring)
    eng.bulk_insert(items + signed_items(shop(77), keyring))
    eng.snapshot()
    eng.bulk_delete([it.name.name.text for it in items],
                    trust.user_identity("Foo", "Alice"))

    replace, write_bytes = Path.replace, Path.write_bytes

    def crash_instead(self, target):
        raise Crash()

    def replace_then_crash(self, target):
        replace(self, target)
        raise Crash()

    def reset_then_crash(self, data):
        write_bytes(self, data)
        if self.name == LOG_FILE:
            raise Crash()

    patch = {"tmp-written": ("replace", crash_instead),
             "replaced": ("replace", replace_then_crash),
             "log-reset": ("write_bytes", reset_then_crash)}[step]
    monkeypatch.setattr(Path, *patch)
    with pytest.raises(Crash):
        eng.snapshot()
    monkeypatch.undo()
    # Until the log is reset it still holds the delete record, which replay
    # applies or skips by its sequence number.
    kept = [seq for seq, _ in log_records(tmp_path / "e1" / LOG_FILE)]
    assert kept == ([] if step == "log-reset" else [2])

    reborn = make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=4096)
    assert_same_state(reborn, eng)
    assert reborn.log_records == (1 if step == "tmp-written" else 0)
    # Later records follow on, and a second restart agrees.
    reborn.bulk_insert(signed_items(shop(88), keyring))
    again = make_engine(keyring, storage_dir=tmp_path / "e1", bf_m=4096)
    assert_same_state(again, reborn)
    assert again.log_records == reborn.log_records + 1


@pytest.mark.parametrize("old", ["log.jsonl", "snapshot.json"])
def test_store_in_the_old_format_is_refused(keyring, tmp_path, old):
    (tmp_path / "e1").mkdir()
    (tmp_path / "e1" / old).write_text('{"op": "delete", "name": "x"}\n')
    with pytest.raises(StorageError, match=old):
        make_engine(keyring, storage_dir=tmp_path / "e1")


def test_bf_publication_log_serves_by_seq(keyring, starbucks):
    eng = make_engine(keyring)
    published = []
    eng.publish_sink = published.append
    eng.bulk_insert(signed_items(starbucks, keyring))
    assert len(published) == 1
    chunk = bloom.decode_publication(published[0].payload)
    assert [p.seq for p in chunk] == list(range(eng.cbf.seq))

    name = bloom.publication_name("e1", chunk[0].seq) + "/seg=0"
    content, delay = ask(eng.handle_bf_interest, Interest(name))
    assert delay == 0.0
    assert content == published[0]
    assert bloom.decode_publication(content.payload) == chunk
    ok, reason = keyring.store().verify_engine_content(
        content.name, content.payload, content.envelope, "e1")
    assert ok, reason

    unborn = bloom.publication_name("e1", 9999) + "/seg=0"
    assert ask(eng.handle_bf_interest, Interest(unborn)) is None
    inside = bloom.publication_name("e1", chunk[1].seq) + "/seg=0"
    assert ask(eng.handle_bf_interest, Interest(inside)) is None


def inline_items_setting_new_buckets(keyring, count, seen, start):
    """Signed inline items whose tile prefixes set exactly `count` buckets
    of a one-hash filter at the default size that are not in `seen`."""
    items = []
    cell = start
    while len(items) < count:
        coords = [12.005 + (cell % 100) / 100, 41.005 + (cell // 100) / 100]
        item = signed_items(shop(cell, coords), keyring)[-1]
        bucket, = bloom.bucket_indexes(tile_prefix(item.name.tile).text,
                                       bloom.DEFAULT_M, 1)
        cell += 1
        if bucket not in seen:
            seen.add(bucket)
            items.append(item)
    return items, cell


def test_one_signed_publication_per_publication_max_transitions(keyring, monkeypatch):
    eng = make_engine(keyring, bf_h=1)
    published = []
    eng.publish_sink = published.append
    signs = []
    sign = eng.keypair.sign
    monkeypatch.setattr(eng.keypair, "sign",
                        lambda data: signs.append(data) or sign(data))
    seen, cell = set(), 0
    for nonce, count, expected in ((1, bloom.PUBLICATION_MAX, 1),
                                   (2, bloom.PUBLICATION_MAX + 1, 2)):
        items, cell = inline_items_setting_new_buckets(keyring, count, seen, cell)
        first_seq = eng.cbf.seq
        published.clear()
        signs.clear()
        reply, _ = ask(eng.handle_service_interest, service_interest(
            "e1", nonce, {"op": "insert", "items": [i.to_dict() for i in items]}))
        assert eng.cbf.seq - first_seq == count
        assert len(published) == expected
        assert all(c.final_segment == 0 for c in published)     # one segment each
        transitions = [p for c in published
                       for p in bloom.decode_publication(c.payload)]
        assert [p.seq for p in transitions] == list(range(first_seq, eng.cbf.seq))
        # The engine signs each publication and each reply segment, no more.
        assert len(signs) == expected + reply.final_segment + 1


def test_a_full_publication_fits_one_segment():
    worst = [bloom.BfPublication("e1", bloom.DEFAULT_M - 1, bloom.DOWN, 10**12 + i)
             for i in range(bloom.PUBLICATION_MAX)]
    assert len(bloom.encode_publication(worst)) <= SEGMENT_SIZE
    assert bloom.decode_publication(bloom.encode_publication(worst)) == worst


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
    content, _ = ask(eng.handle_service_interest, service_interest("e1", 1, req))
    reply = json.loads(content.payload)
    assert [s["status"] for s in reply["statuses"]] == [ACCEPTED] * 3
    assert eng.item_count == 3

    content, _ = ask(eng.handle_service_interest,
                     service_interest("e1", 2, {"op": "digest"}))
    seq, bitmap = bloom.decode_digest(json.loads(content.payload))
    assert seq == eng.cbf.seq
    assert bitmap == eng.cbf.bitmap()

    content, _ = ask(eng.handle_service_interest,
                     service_interest("e1", 3, {"op": "status"}))
    status = json.loads(content.payload)
    assert status["engineId"] == "e1"
    assert status["items"] == 3

    content, _ = ask(eng.handle_service_interest,
                     service_interest("e1", 4, {"op": "nope"}))
    assert "error" in json.loads(content.payload)


def test_service_channel_delete_requires_signer(keyring, starbucks):
    eng = make_engine(keyring)
    items = signed_items(starbucks, keyring)
    eng.bulk_insert(items)
    texts = [it.name.name.text for it in items]

    content, _ = ask(eng.handle_service_interest, service_interest(
        "e1", 1, {"op": "delete", "names": texts}))
    reply = json.loads(content.payload)
    assert all(s["status"] == REJECTED and s["reason"] == "identity-rule"
               for s in reply["statuses"])
    assert eng.item_count == 3

    alice = keyring.user("Foo", "Alice")
    content, _ = ask(eng.handle_service_interest, service_interest(
        "e1", 2, {"op": "delete", "names": texts}, envelope_from=alice))
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
    first, _ = ask(eng.handle_service_interest, interest)
    assert json.loads(first.payload)["statuses"][0]["status"] == ACCEPTED

    again, _ = ask(eng.handle_service_interest, interest)
    assert again.payload == first.payload
    assert eng.item_count == 2


# -- listing groups --------------------------------------------------------------

def batch_interests(keyring, tiles, tid="Foo", cid="ShopApp", uid="Alice"):
    """Segment-0 tile interests signed as one client batch."""
    names = [segment_name(TileName(tile, tid, cid).name, 0).text for tile in tiles]
    kp, cert = keyring.user(tid, uid)
    envelopes = trust.sign_batch(kp, cert, [(name, b"") for name in names])
    return [Interest(name, b"", env) for name, env in zip(names, envelopes)]


def count_signs(eng):
    signs = []
    sign = eng.keypair.sign
    eng.keypair.sign = lambda data: signs.append(data) or sign(data)
    return signs


# Sixteen leaves: every interest's batch path has four steps.
def grouped(keyring, tiles, **kw):
    interests = batch_interests(keyring, tiles, **kw)
    assert all(len(i.envelope.path) >= GROUP_MIN_PATH for i in interests)
    return interests


L1_SIBLINGS = grid.children(L1)


def test_grouped_listings_are_the_listings_byte_for_byte(keyring):
    eng = make_engine(keyring)
    rng = random.Random(5)
    # Items in some children of L1, and one child whose listing is longer
    # than a segment.
    for i in range(12):
        tile = L1_SIBLINGS[7 * i]
        eng.bulk_insert(signed_items(shop(100 + i, [
            tile_bbox(tile).min.lng + 0.005, tile_bbox(tile).min.lat + 0.005]), keyring))
    for i in range(40):
        eng.bulk_insert(signed_items(shop(1000 + i, [12.51 + rng.random() * 0.0099,
                                                     41.89 + rng.random() * 0.0099]),
                                     keyring))
    store = keyring.store()
    signs = count_signs(eng)
    access = 0
    # All 100 children of L1, asked in batches of 16 (the last one of 4,
    # whose short paths are signed per listing).
    for start in range(0, 100, 16):
        tiles = L1_SIBLINGS[start:start + 16]
        for tile, interest in zip(tiles, batch_interests(keyring, tiles)):
            content, delay = ask(eng.handle_named_interest, interest)
            want = eng.tile_query(TileName(tile, "Foo", "ShopApp")).to_wire()
            access += 2
            items = len(OgbTile.from_wire(want).items)
            assert delay == pytest.approx(3.0 + 0.008 * items)
            long = len(want) > SEGMENT_SIZE
            assert long == (tile == L2)
            assert content.payload == want[:SEGMENT_SIZE]
            grouped_here = len(interest.envelope.path) >= GROUP_MIN_PATH and not long
            assert (content.envelope.path is not None) == grouped_here
            assert store.verify(content.name, content.payload, content.envelope,
                                signer=trust.is_engine) == (True, None)
    assert eng.table_access == [0, 0, access]
    assert eng.processed_queries == 100
    # One group signature, the four short-path listings, and each segment
    # of the long listing.
    long_segments = -(-len(eng.tile_query(TileName(L2, "Foo", "ShopApp")).to_wire())
                      // SEGMENT_SIZE)
    assert len(signs) == 1 + 4 + long_segments
    assert len(store._verified) == 1 + 4 + 1       # segment 0 of the long one


def test_a_group_holds_only_the_siblings_its_engine_serves(keyring, starbucks):
    # Level 2: an engine that serves one child of L1.
    eng = make_engine(keyring, prefixes=["ndn:/OGB/12/41/58/19"])
    store = keyring.store()
    eng.bulk_insert(signed_items(starbucks, keyring))
    tiles = L1_SIBLINGS[16:32]
    answers = [ask(eng.handle_named_interest, interest)
               for interest in grouped(keyring, tiles)]
    assert [tile for tile, answer in zip(tiles, answers) if answer] == [L2]
    (content, _), = [answer for answer in answers if answer]
    assert content.envelope.path == ()           # a group of one
    assert content.payload == eng.tile_query(TileName(L2, "Foo", "ShopApp")).to_wire()
    assert store.verify(content.name, content.payload, content.envelope,
                        signer=trust.is_engine) == (True, None)
    # Level 0: an engine that serves two tiles of the aligned block
    # 10..19 x 40..49.
    eng = make_engine(keyring, prefixes=["ndn:/OGB/12/41", "ndn:/OGB/17/45"])
    eng.bulk_insert(signed_items(starbucks, keyring))
    signs = count_signs(eng)
    block = [TileId(lng, lat) for lng in range(10, 14) for lat in range(40, 44)]
    answers = dict(zip(block, (ask(eng.handle_named_interest, interest)
                               for interest in grouped(keyring, block))))
    assert [tile for tile, answer in answers.items() if answer] == [L0]
    content, _ = answers[L0]
    assert len(content.envelope.path) == 1       # 12/41 and 17/45
    assert content.payload == eng.tile_query(TileName(L0, "Foo", "ShopApp")).to_wire()
    assert store.verify(content.name, content.payload, content.envelope,
                        signer=trust.is_engine) == (True, None)
    assert len(signs) == 1


def test_a_group_envelope_speaks_only_for_its_own_listing(keyring, starbucks):
    eng = make_engine(keyring)
    eng.bulk_insert(signed_items(starbucks, keyring))
    contents = [ask(eng.handle_named_interest, interest)[0]
                for interest in grouped(keyring, L1_SIBLINGS[16:32])]
    assert len({c.envelope.signature for c in contents}) == 1
    mine, other, nonempty = contents[0], contents[1], contents[3]   # 16, 17, 19
    assert OgbTile.from_wire(nonempty.payload).name.tile == L2
    store = keyring.store()
    for name, payload in ((other.name, mine.payload), (mine.name, other.payload),
                          (mine.name, nonempty.payload)):
        assert store.verify(name, payload, mine.envelope, signer=trust.is_engine) \
            == (False, trust.REASON_INTEGRITY)
    assert store.verify(mine.name, mine.payload, mine.envelope,
                        signer=trust.is_engine) == (True, None)


def test_a_batch_of_eight_or_fewer_is_signed_per_listing(keyring, starbucks):
    eng = make_engine(keyring)
    eng.bulk_insert(signed_items(starbucks, keyring))
    signs = count_signs(eng)
    interests = batch_interests(keyring, L1_SIBLINGS[:8])
    assert max(len(i.envelope.path) for i in interests) < GROUP_MIN_PATH
    for interest in interests:
        content, _ = ask(eng.handle_named_interest, interest)
        assert content.envelope.path is None
    assert len(signs) == 8


def test_a_write_shows_in_the_next_grouped_build(keyring, starbucks):
    eng = make_engine(keyring)
    tiles = L1_SIBLINGS[16:32]
    assert L2 in tiles
    before = [ask(eng.handle_named_interest, i)[0] for i in grouped(keyring, tiles)]
    assert all(not OgbTile.from_wire(c.payload).items for c in before)
    eng.bulk_insert(signed_items(starbucks, keyring))
    after = [ask(eng.handle_named_interest, i)[0] for i in grouped(keyring, tiles)]
    for tile, content in zip(tiles, after):
        assert content.payload == eng.tile_query(TileName(tile, "Foo", "ShopApp")).to_wire()
    assert [len(OgbTile.from_wire(c.payload).items) for c in after].count(1) == 1
    assert after[0].envelope.signature != before[0].envelope.signature
    store = keyring.store()
    assert all(store.verify(c.name, c.payload, c.envelope)[0] for c in after)
    assert eng.processed_queries == 32


def test_the_group_cache_is_bounded(keyring, monkeypatch):
    monkeypatch.setattr(engine_module, "GROUP_CACHE_SIZE", 2)
    eng = make_engine(keyring)
    for parent in grid.children(L0)[:4]:
        ask(eng.handle_named_interest, grouped(keyring, grid.children(parent)[:16])[0])
    assert len(eng._groups._items) == 2
    eng.clear_response_caches()
    assert len(eng._groups._items) == 0
