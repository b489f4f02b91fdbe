from __future__ import annotations

import json
import random

import pytest

from ogb import bloom
from ogb.bloom import (
    DOWN,
    UP,
    BfPublication,
    BloomFilter,
    DEFAULT_M,
    BloomServer,
    CountingBloomFilter,
    bucket_index_matrix,
    bucket_indexes,
    decode_digest,
    encode_digest,
    publication_name,
    theoretical_fpr,
)
from ogb.cluster import BF_QUERY_ROOT, BloomService
from ogb.engine import RequestService
from ogb.errors import StorageError
from ogb.geodata import canonical_json
from ogb.icn.core import Interest
from ogb.names import Name

PREFIX = "ndn:/OGB/12/41/51/89/GPS-ID"


def test_bucket_indexes_are_frozen():
    # Pinned values: any change here breaks cross-process agreement.
    assert bucket_indexes(PREFIX, 1 << 20, 7) == [
        126790, 744559, 313752, 931521, 500714, 69907, 687676,
    ]
    assert bucket_indexes(PREFIX, 1 << 20, 7) == bucket_indexes(PREFIX, 1 << 20, 7)
    assert bucket_indexes(PREFIX + "x", 1 << 20, 7) != bucket_indexes(PREFIX, 1 << 20, 7)


def prefix_keys(rng, count):
    """Tile-prefix keys of levels 0-2 with negative and three-digit anchors,
    so of many byte lengths, plus one key that is not ASCII."""
    keys = []
    for _ in range(count):
        digits = ["%d%d" % (rng.randrange(10), rng.randrange(10))
                  for _ in range(rng.randrange(3))]
        keys.append("ndn:/OGB/%s/GPS-ID" % "/".join(
            ["%d" % rng.randint(-180, 179), "%d" % rng.randint(-90, 89)] + digits))
    return keys + ["ndn:/OGB/12/41/Città/GPS-ID"]


@pytest.mark.parametrize("m", [DEFAULT_M, 1_000_003, 97])
def test_batch_hash_equals_bucket_indexes(m):
    keys = prefix_keys(random.Random(11), 1200)
    assert len({len(key.encode()) for key in keys}) >= 8
    rows = bucket_index_matrix(keys, m, 7)
    assert rows.shape == (len(keys), 7)
    assert rows.tolist() == [bucket_indexes(key, m, 7) for key in keys]


def per_item(cbf, changes):
    """Reference: each change as the insert or remove it stands for."""
    for key, delta in changes:
        if delta > 0:
            cbf.insert(key)
        else:
            cbf.remove(key)


@pytest.mark.parametrize("m", [DEFAULT_M, 4096, 61])
def test_replay_equals_per_item_inserts_and_removes(m):
    rng = random.Random(m)
    pool = prefix_keys(rng, 40)
    changes, stored = [], []
    for _ in range(2000):
        if stored and rng.random() < 0.45:
            changes.append((stored.pop(rng.randrange(len(stored))), -1))
        else:
            key = rng.choice(pool)
            stored.append(key)
            changes.append((key, 1))
    changes += [(key, -1) for key in stored]      # every prefix emptied
    for cut in (0, 700, len(changes)):
        batched = CountingBloomFilter(m=m, h=7, engine_id="e1")
        reference = CountingBloomFilter(m=m, h=7, engine_id="e1")
        per_item(batched, changes[:cut // 2])     # a filter already in use
        per_item(reference, changes[:cut])
        batched.replay(changes[cut // 2:cut])
        assert batched.counters == reference.counters
        assert batched.seq == reference.seq
        assert batched.bitmap() == reference.bitmap()
        key = pool[0]
        assert batched.insert(key) == reference.insert(key)


def test_replay_of_a_remove_below_zero_changes_nothing():
    cbf = CountingBloomFilter(m=4096, h=7, engine_id="e1")
    cbf.insert(PREFIX)
    before = (bytes(cbf.counters), cbf.seq)
    with pytest.raises(StorageError):
        cbf.replay([(PREFIX, -1), ("ndn:/OGB/0/0/GPS-ID", -1)])
    assert (bytes(cbf.counters), cbf.seq) == before


def test_publication_name():
    assert publication_name("e1", 42) == "ndn:/OGB-SYS/BF/e1/42"


def test_bloom_filter_membership():
    bf = BloomFilter(m=1 << 16, h=5)
    assert PREFIX not in bf
    bf.add(PREFIX)
    assert PREFIX in bf
    assert bf.bit_count() == len(set(bucket_indexes(PREFIX, 1 << 16, 5)))


def test_cbf_transition_publications():
    cbf = CountingBloomFilter(m=1 << 16, h=7, engine_id="e1")
    ups = cbf.insert(PREFIX)
    assert len(ups) == len(set(bucket_indexes(PREFIX, 1 << 16, 7)))
    assert all(p.direction == UP and p.engine_id == "e1" for p in ups)
    assert [p.seq for p in ups] == list(range(len(ups)))
    assert cbf.insert(PREFIX) == []           # second copy: counters 1 -> 2
    assert cbf.remove(PREFIX) == []           # back to 1: no transition
    downs = cbf.remove(PREFIX)
    assert {p.bucket_index for p in downs} == {p.bucket_index for p in ups}
    assert all(p.direction == DOWN for p in downs)
    assert not cbf.contains(PREFIX)
    ups2 = cbf.insert(PREFIX)
    assert {p.bucket_index for p in ups2} == {p.bucket_index for p in ups}


def test_cbf_underflow_raises():
    cbf = CountingBloomFilter(m=1 << 12, h=3, engine_id="e1")
    with pytest.raises(StorageError):
        cbf.remove("ndn:/OGB/0/0/GPS-ID")


def test_server_or_semantics():
    server = BloomServer(m=1 << 16, h=7, engines=["A", "B"])
    a = CountingBloomFilter(m=1 << 16, h=7, engine_id="A")
    b = CountingBloomFilter(m=1 << 16, h=7, engine_id="B")
    for pub in a.insert(PREFIX) + b.insert(PREFIX):
        assert server.apply(pub)
    assert server.membership([PREFIX]) == [True]
    for pub in a.remove(PREFIX):
        server.apply(pub)
    # A went void but B still holds the tile.
    assert server.membership([PREFIX]) == [True]
    for pub in b.remove(PREFIX):
        server.apply(pub)
    assert server.membership([PREFIX]) == [False]


def test_server_drops_stale_and_unknown():
    server = BloomServer(m=1 << 12, h=3, engines=["A"])
    pub = BfPublication("A", 7, UP, 0)
    assert server.apply(pub)
    assert not server.apply(pub)                  # duplicate: idempotent
    assert server.global_bf.test_bucket(7)
    assert not server.apply(BfPublication("ghost", 9, UP, 0))
    assert not server.global_bf.test_bucket(9)
    assert server.dropped == 2


def test_digest_recovery_reproduces_state():
    m, h = 1 << 14, 5
    live = BloomServer(m=m, h=h, engines=["A", "B"])
    a = CountingBloomFilter(m=m, h=h, engine_id="A")
    b = CountingBloomFilter(m=m, h=h, engine_id="B")
    rng = random.Random(3)
    keys = ["ndn:/OGB/%d/%d/GPS-ID" % (rng.randint(-179, 179), rng.randint(-89, 89))
            for _ in range(200)]
    for key in keys[:120]:
        for pub in a.insert(key):
            live.apply(pub)
    for key in keys[80:]:
        for pub in b.insert(key):
            live.apply(pub)

    fresh = BloomServer(m=m, h=h, engines=["A", "B"])
    for engine, cbf in (("A", a), ("B", b)):
        seq, bitmap = decode_digest(json.loads(encode_digest(cbf.seq, cbf.bitmap())))
        fresh.load_digest(engine, seq, bitmap)
    assert fresh.global_bf.to_bytes() == live.global_bf.to_bytes()
    assert fresh.membership(keys) == [True] * len(keys)
    # Publications after recovery keep flowing with the preserved sequence.
    extra = a.insert("ndn:/OGB/0/0/00/GPS-ID")
    assert extra and all(fresh.apply(p) for p in extra)


def reference_bitmap(cbf: CountingBloomFilter) -> bytes:
    """The bitmap by its definition: bucket i is bit i & 7 of byte i >> 3."""
    bits = bytearray((cbf.m + 7) // 8)
    for index, count in enumerate(cbf.counters):
        if count:
            bits[index >> 3] |= 1 << (index & 7)
    return bytes(bits)


def test_bitmap_matches_reference_definition():
    m = 3 * (1 << 16) + 5                 # not a multiple of 8 or of a chunk
    cbf = CountingBloomFilter(m=m, h=7, engine_id="e1")
    keys = ["ndn:/OGB/%d/%d/GPS-ID" % (i % 37, i) for i in range(300)]
    for key in keys:
        cbf.insert(key)
    for key in keys[:40]:
        cbf.insert(key)                   # counters above 1
    gone = "ndn:/OGB/5/5/55/GPS-ID"
    cbf.insert(gone)
    cbf.remove(gone)                      # its counters went back to 0
    assert not cbf.contains(gone)
    for index in (0, (1 << 16) - 1, 1 << 16, m - 1):
        cbf.counters[index] += 3
    bitmap = cbf.bitmap()
    assert len(bitmap) == (m + 7) // 8
    assert bitmap == reference_bitmap(cbf)
    assert bitmap[0] & 1 and bitmap[(m - 1) >> 3] & (1 << ((m - 1) & 7))


def test_digest_payload_is_unchanged_at_default_size():
    cbf = CountingBloomFilter(engine_id="e1")
    for i in range(500):
        cbf.insert("ndn:/OGB/%d/%d/%02d/GPS-ID" % (i % 180, i % 90, i % 100))
    cbf.remove("ndn:/OGB/0/0/00/GPS-ID")
    assert cbf.m == DEFAULT_M
    assert (encode_digest(cbf.seq, cbf.bitmap())
            == encode_digest(cbf.seq, reference_bitmap(cbf)))


def test_digest_reload_keeps_or_semantics():
    m, h = 1 << 16, 7
    j, k, other = PREFIX, "ndn:/OGB/-74/40/98/GPS-ID", "ndn:/OGB/0/51/GPS-ID"
    engines = ["A", "B", "C"]
    cbfs = {e: CountingBloomFilter(m=m, h=h, engine_id=e) for e in engines}
    reloaded = BloomServer(m=m, h=h, engines=engines)
    replayed = BloomServer(m=m, h=h, engines=engines)
    history = cbfs["A"].insert(j) + cbfs["A"].insert(k) + cbfs["B"].insert(k) \
        + cbfs["C"].insert(other)
    for pub in history:
        assert reloaded.apply(pub) and replayed.apply(pub)
    removals = cbfs["A"].remove(j) + cbfs["A"].remove(k)
    for pub in removals:
        assert replayed.apply(pub)
    seq, bitmap = decode_digest(json.loads(encode_digest(cbfs["A"].seq, cbfs["A"].bitmap())))
    reloaded.load_digest("A", seq, bitmap)
    for server in (reloaded, replayed):
        # A went void for both keys, but B still holds K.
        assert server.membership([j, k, other]) == [False, True, True]
    assert reloaded.global_bf.to_bytes() == replayed.global_bf.to_bytes()
    assert reloaded.last_seq == replayed.last_seq


def test_membership_rates():
    m, h, n = 1 << 12, 5, 500
    bf = BloomFilter(m=m, h=h)
    rng = random.Random(11)
    inserted = {"ndn:/OGB/1/1/%02d/GPS-ID/k/%d" % (i % 100, i) for i in range(n)}
    for key in inserted:
        bf.add(key)
    assert all(key in bf for key in inserted)      # no false negatives
    probes = 20000
    fp = sum(1 for i in range(probes)
             if ("ndn:/OGB/2/2/%02d/GPS-ID/p/%d" % (i % 100, i)) in bf)
    expected = theoretical_fpr(m, h, n)
    assert fp / probes <= 2.0 * expected
    assert BloomFilter(m=m, h=h).contains(PREFIX) is False


def test_theoretical_fpr_values():
    assert theoretical_fpr(1 << 20, 7, 100000) == pytest.approx(0.0065013, rel=1e-4)
    assert theoretical_fpr(1 << 20, 7, 0) == 0.0
    assert 0.0 < theoretical_fpr(1 << 10, 3, 100) < 1.0


def test_server_membership_equals_the_per_key_test():
    rng = random.Random(18)
    server = BloomServer(m=1 << 12, h=5, engines=["e1"])
    keys = ["ndn:/OGB/%d/%d/%d%d/GPS-ID" % (rng.randrange(-180, 180),
                                            rng.randrange(-90, 90),
                                            rng.randrange(10), rng.randrange(10))
            for _ in range(300)]
    for key in keys[::3]:
        server.global_bf.add(key)
    bits = server.membership(keys)
    assert bits == [server.global_bf.contains(key) for key in keys]
    assert all(type(bit) is bool for bit in bits)
    assert 100 <= sum(bits) < 300
    assert server.membership([]) == []


def test_short_prefix_lists_are_tested_one_key_at_a_time(monkeypatch):
    rng = random.Random(19)
    server = BloomServer(m=1 << 12, h=5, engines=["e1"])
    keys = ["ndn:/OGB/%d/%d/GPS-ID" % (rng.randrange(-180, 180), rng.randrange(-90, 90))
            for _ in range(2 * bloom._VECTOR_MIN_KEYS)]
    for key in keys[::2]:
        server.global_bf.add(key)
    expected = [server.global_bf.contains(key) for key in keys]
    for count in range(len(keys) + 1):
        assert server.membership(keys[:count]) == expected[:count]
    # Below the cut-off no key goes through the numpy hashing.
    monkeypatch.setattr(bloom, "bucket_index_matrix", None)
    short = keys[:bloom._VECTOR_MIN_KEYS - 1]
    assert server.membership(short) == expected[:len(short)]


def test_a_non_string_prefix_gets_the_service_error_reply():
    producer = RequestService(BloomService(BloomServer(m=1 << 12, h=5)).handle)
    for i, prefixes in enumerate(([1], [PREFIX, None], [[PREFIX]])):
        base = Name.from_text("%s/q-%d" % (BF_QUERY_ROOT, i))
        request = canonical_json({"op": "bf-query", "prefixes": prefixes})
        segments, _ = producer(Interest(base.text + "/seg=0", request), base)
        assert "error" in json.loads(segments[0].payload)


@pytest.mark.parametrize("change", [
    {"seq": None}, {"bitmapB64": None}, {"seq": "3"}, {"bitmapB64": "!!"},
    {"bitmapB64": "AAAA"}, {"bitmapB64": 7},
], ids=["no-seq", "no-bitmap", "seq-string", "not-base64", "not-zlib", "bitmap-number"])
def test_a_digest_reply_without_seq_and_bitmap_is_a_storage_error(change):
    reply = json.loads(encode_digest(3, bytes(16)))
    assert decode_digest(reply) == (3, bytes(16))
    reply.update(change)
    reply = {key: value for key, value in reply.items() if value is not None}
    with pytest.raises(StorageError):
        decode_digest(reply)
