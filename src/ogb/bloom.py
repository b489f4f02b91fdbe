"""Tile liveness filters: a global Bloom filter fed by per-engine counters.

Engines track how many stored items hash into each bucket with a counting
filter; every bucket that crosses zero (either way) is a transition with its
own sequence number.  An engine publishes the transitions of one bulk request
together, as one signed publication (or a few consecutive ones, at most
`PUBLICATION_MAX` transitions each) named by the first sequence number.  The
filter server checks that each publication and each digest is signed by the
engine itself, and that a publication carries the engine id and sequence
number it asked for; it drops anything else, reloads that engine's signed
digest, and follows on from there.  The server keeps one bit vector per
engine and ORs them, so a tile
that became void on one engine stays visible while another engine still holds
data for it.  All processes hash the canonical tile-prefix string with the
same fixed-seed family, which keeps bucket indices identical everywhere.
`bucket_index_matrix` computes that same family for many keys at once, in
numpy (a restart hashes each distinct prefix of the store that way); its
rows equal `bucket_indexes` for any filter size.
"""

from __future__ import annotations

import base64
import json
import logging
import math
import threading
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy

from .errors import StorageError
from .names import SCHEME, SYSTEM_ROOT

log = logging.getLogger(__name__)

DEFAULT_M = 1 << 20
DEFAULT_H = 7

# Counters packed per step by CountingBloomFilter.bitmap(); a multiple of 8,
# so each step fills whole bytes, and small, so no m-sized temporary is made.
_BITMAP_CHUNK = 1 << 16

# Keys below which hashing one at a time beats `bucket_index_matrix`, whose
# numpy calls cost about as much as hashing a dozen tile prefixes in Python.
_VECTOR_MIN_KEYS = 12

BF_TOPIC = SCHEME + SYSTEM_ROOT + "/BF"
BF_QUERY_ROOT = SCHEME + SYSTEM_ROOT + "/bf-query"

_FNV_PRIME = 0x100000001B3
_FNV_SEED_1 = 0xCBF29CE484222325
_FNV_SEED_2 = 0xCBF29CE484222325 ^ 0x5A5A5A5A5A5A5A5A
_MASK64 = (1 << 64) - 1

UP = "up"
DOWN = "down"

# Transitions per signed publication.  At the default filter size one
# transition encodes in at most 17 bytes (`[1048575,"down"],`), so a full
# publication fits in one 8000-byte segment.
PUBLICATION_MAX = 400


def _fnv1a(data: bytes, seed: int) -> int:
    value = seed
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def bucket_indexes(key: str, m: int, h: int) -> list[int]:
    """Double-hashed bucket indices; deterministic across processes."""
    data = key.encode("utf-8")
    h1 = _fnv1a(data, _FNV_SEED_1)
    h2 = _fnv1a(data, _FNV_SEED_2) | 1
    return [(h1 + i * h2) % m for i in range(h)]


def bucket_index_matrix(keys: Sequence[str], m: int, h: int) -> numpy.ndarray:
    """`bucket_indexes` of every key, as the rows of one (keys, h) array.

    Keys of one byte length are hashed together, one byte column at a time,
    with both FNV-1a seeds side by side.  h1 and h2 are reduced mod m before
    they are combined, and each index is the last one plus h2 mod m, so no
    step overflows 64 bits and the rows are exact for any m.
    """
    data = [key.encode("utf-8") for key in keys]
    pairs = numpy.empty((2, len(data)), dtype=numpy.uint64)
    by_length: dict[int, list[int]] = {}
    for row, raw in enumerate(data):
        by_length.setdefault(len(raw), []).append(row)
    seeds = numpy.array([[_FNV_SEED_1], [_FNV_SEED_2]], dtype=numpy.uint64)
    for length, rows in by_length.items():
        block = numpy.frombuffer(b"".join(data[row] for row in rows),
                                 dtype=numpy.uint8).reshape(len(rows), length)
        value = seeds.repeat(len(rows), axis=1)
        for column in block.T:
            value ^= column
            value *= _FNV_PRIME
        pairs[:, rows] = value
    h1 = pairs[0] % m
    h2 = (pairs[1] | 1) % m
    out = numpy.empty((len(data), h), dtype=numpy.uint64)
    for i in range(h):
        out[:, i] = h1
        h1 = (h1 + h2) % m
    return out


def theoretical_fpr(m: int, h: int, n: int) -> float:
    """Expected false-positive rate after n distinct keys."""
    return (1.0 - (1.0 - 1.0 / m) ** (h * n)) ** h


def publication_name(engine_id: str, seq: int) -> str:
    return "%s/%s/%d" % (BF_TOPIC, engine_id, seq)


@dataclass(frozen=True)
class BfPublication:
    """One bucket transition on one engine."""

    engine_id: str
    bucket_index: int
    direction: str                    # UP on 0->1, DOWN on ->0
    seq: int


class BloomFilter:
    """Plain m-bit filter; add-only when loaded directly with keys."""

    def __init__(self, m: int = DEFAULT_M, h: int = DEFAULT_H):
        self.m = m
        self.h = h
        self.bits = bytearray((m + 7) // 8)

    def indexes(self, key: str) -> list[int]:
        return bucket_indexes(key, self.m, self.h)

    def set_bucket(self, index: int) -> None:
        self.bits[index >> 3] |= 1 << (index & 7)

    def clear_bucket(self, index: int) -> None:
        self.bits[index >> 3] &= ~(1 << (index & 7))

    def test_bucket(self, index: int) -> bool:
        return bool(self.bits[index >> 3] & (1 << (index & 7)))

    def add(self, key: str) -> None:
        for index in self.indexes(key):
            self.set_bucket(index)

    def contains(self, key: str) -> bool:
        return all(self.test_bucket(i) for i in self.indexes(key))

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def bit_count(self) -> int:
        return int.from_bytes(self.bits, "big").bit_count()

    def to_bytes(self) -> bytes:
        return bytes(self.bits)

    def load_bytes(self, data: bytes) -> None:
        if len(data) != len(self.bits):
            raise StorageError("bitmap size mismatch: %d != %d"
                               % (len(data), len(self.bits)))
        self.bits[:] = data


class CountingBloomFilter:
    """Per-engine bucket counters over the same hash family as the global BF.

    insert/remove return the publications for every bucket that crossed
    zero, stamped with this engine's id and a monotone sequence number;
    `replay` applies a whole history of them without any publication.
    """

    def __init__(self, m: int = DEFAULT_M, h: int = DEFAULT_H,
                 engine_id: str = ""):
        self.m = m
        self.h = h
        self.engine_id = engine_id
        # Zeroed pages on demand, not an m-sized copy; items are Python ints.
        self.counters = memoryview(numpy.zeros(m, dtype=numpy.uint32))
        self.seq = 0

    def _publish(self, index: int, direction: str) -> BfPublication:
        pub = BfPublication(self.engine_id, index, direction, self.seq)
        self.seq += 1
        return pub

    def insert(self, key: str) -> list[BfPublication]:
        pubs = []
        for index in set(bucket_indexes(key, self.m, self.h)):
            self.counters[index] += 1
            if self.counters[index] == 1:
                pubs.append(self._publish(index, UP))
        return pubs

    def remove(self, key: str) -> list[BfPublication]:
        indexes = set(bucket_indexes(key, self.m, self.h))
        if any(self.counters[i] == 0 for i in indexes):
            raise StorageError("removing a key that was never inserted: %r" % key)
        pubs = []
        for index in indexes:
            self.counters[index] -= 1
            if self.counters[index] == 0:
                pubs.append(self._publish(index, DOWN))
        return pubs

    def replay(self, changes: Sequence[tuple[str, int]]) -> None:
        """Apply ordered (key, +1 for insert | -1 for remove) changes exactly
        as insert/remove would, counters and seq alike, but hash each
        distinct key once and build no publication.  A remove below zero
        raises StorageError and leaves the filter unchanged."""
        if not changes:
            return
        rows: dict[str, int] = {}
        key_rows = numpy.fromiter((rows.setdefault(key, len(rows))
                                   for key, _ in changes),
                                  dtype=numpy.intp, count=len(changes))
        deltas = numpy.fromiter((delta for _, delta in changes),
                                dtype=numpy.int64, count=len(changes))
        # A key touches each of its distinct buckets once, as set() does.
        buckets = numpy.sort(bucket_index_matrix(list(rows), self.m, self.h), axis=1)
        distinct = numpy.ones(buckets.shape, dtype=bool)
        distinct[:, 1:] = buckets[:, 1:] != buckets[:, :-1]
        # One event per (change, bucket), grouped by bucket in change order.
        keep = distinct[key_rows]
        bucket = buckets[key_rows][keep]
        delta = numpy.broadcast_to(deltas[:, None], keep.shape)[keep]
        order = numpy.argsort(bucket, kind="stable")
        bucket, delta = bucket[order], delta[order]
        first = numpy.ones(len(bucket), dtype=bool)
        first[1:] = bucket[1:] != bucket[:-1]
        running = numpy.cumsum(delta)
        group = numpy.cumsum(first) - 1
        counts = numpy.frombuffer(self.counters, dtype=numpy.uint32)
        after = (counts[bucket].astype(numpy.int64) + running
                 - (running - delta)[first][group])
        if (after < 0).any():
            raise StorageError("the replayed changes remove a key that was "
                               "never inserted")
        last = numpy.ones(len(bucket), dtype=bool)
        last[:-1] = first[1:]
        counts[bucket[last]] = after[last]
        # A transition is 0 -> 1 on an insert, or 1 -> 0 on a remove.
        self.seq += int(numpy.count_nonzero(after == (delta > 0)))

    def live_buckets(self) -> int:
        """How many counters are above zero."""
        counts = numpy.frombuffer(self.counters, dtype=numpy.uint32)
        return int(numpy.count_nonzero(counts))

    def contains(self, key: str) -> bool:
        return all(self.counters[i] > 0
                   for i in bucket_indexes(key, self.m, self.h))

    def bitmap(self) -> bytes:
        """The counter > 0 bit vector, as held for this engine by the server.

        Bucket i is bit ``i & 7`` of byte ``i >> 3``.
        """
        counts = numpy.frombuffer(self.counters, dtype=numpy.uint32)
        bits = numpy.empty((self.m + 7) // 8, dtype=numpy.uint8)
        for start in range(0, self.m, _BITMAP_CHUNK):
            packed = numpy.packbits(counts[start:start + _BITMAP_CHUNK] != 0,
                                    bitorder="little")
            bits[start >> 3:(start >> 3) + len(packed)] = packed
        return bits.tobytes()


def publication_chunks(pubs: Sequence[BfPublication],
                       ) -> list[Sequence[BfPublication]]:
    """Consecutive runs of at most PUBLICATION_MAX transitions."""
    return [pubs[i:i + PUBLICATION_MAX]
            for i in range(0, len(pubs), PUBLICATION_MAX)]


def encode_publication(pubs: Sequence[BfPublication]) -> bytes:
    """One engine's consecutive transitions, named by the first seq."""
    return json.dumps({
        "engineId": pubs[0].engine_id,
        "seq": pubs[0].seq,
        "transitions": [[p.bucket_index, p.direction] for p in pubs],
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_publication(payload: bytes) -> list[BfPublication]:
    """The transitions of a publication; StorageError when malformed."""
    try:
        data = json.loads(payload.decode("utf-8"))
        engine_id, seq = data["engineId"], data["seq"]
        pubs = [BfPublication(engine_id, bucket, direction, seq + offset)
                for offset, (bucket, direction)
                in enumerate(data["transitions"])]
    except (ValueError, KeyError, TypeError) as exc:
        raise StorageError("malformed Bloom publication: %s" % exc) from exc
    if not isinstance(engine_id, str) or type(seq) is not int or not all(
            type(p.bucket_index) is int and p.direction in (UP, DOWN)
            for p in pubs):
        raise StorageError("malformed Bloom publication: bad field types")
    return pubs


def encode_digest(seq: int, bitmap: bytes) -> bytes:
    return json.dumps({
        "seq": seq,
        "bitmapB64": base64.b64encode(zlib.compress(bitmap)).decode("ascii"),
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_digest(reply: dict) -> tuple[int, bytes]:
    """(seq, bitmap) of a decoded digest reply; StorageError for a reply
    that does not hold them."""
    try:
        seq, bitmap = reply["seq"], zlib.decompress(base64.b64decode(reply["bitmapB64"]))
    except (KeyError, TypeError, ValueError, zlib.error) as exc:
        raise StorageError("malformed Bloom digest: %s" % exc) from None
    if type(seq) is not int:
        raise StorageError("malformed Bloom digest: seq %r" % (seq,))
    return seq, bitmap


class BloomServer:
    """Holds one bit vector per engine and answers membership on their OR."""

    def __init__(self, m: int = DEFAULT_M, h: int = DEFAULT_H,
                 engines: Iterable[str] = ()):
        self.m = m
        self.h = h
        self.engine_bits: dict[str, BloomFilter] = {
            engine_id: BloomFilter(m, h) for engine_id in engines
        }
        self.last_seq: dict[str, int] = {engine_id: -1 for engine_id in self.engine_bits}
        self.global_bf = BloomFilter(m, h)
        self.applied = 0
        self.dropped = 0
        self.rejected = 0
        # In socket mode each engine's subscription applies and reloads on
        # its own thread, and a reload rebuilds the OR from every engine.
        self._lock = threading.Lock()

    def register_engine(self, engine_id: str) -> None:
        if engine_id not in self.engine_bits:
            self.engine_bits[engine_id] = BloomFilter(self.m, self.h)
            self.last_seq[engine_id] = -1

    def apply(self, pub: BfPublication) -> bool:
        """Apply one publication; False when ignored (unknown/stale)."""
        bits = self.engine_bits.get(pub.engine_id)
        if bits is None:
            log.warning("publication from unknown engine %r ignored", pub.engine_id)
            self.dropped += 1
            return False
        if pub.seq <= self.last_seq[pub.engine_id]:
            self.dropped += 1
            return False
        self.last_seq[pub.engine_id] = pub.seq
        if pub.direction == UP:
            bits.set_bucket(pub.bucket_index)
            self.global_bf.set_bucket(pub.bucket_index)
        else:
            bits.clear_bucket(pub.bucket_index)
            if not any(other.test_bucket(pub.bucket_index)
                       for other in self.engine_bits.values()):
                self.global_bf.clear_bucket(pub.bucket_index)
        self.applied += 1
        return True

    def apply_publication(self, engine_id: str, seq: int, payload: bytes) -> bool:
        """Apply a publication fetched as `engine_id`'s `seq`, its signature
        already checked.  A payload that does not parse, names another
        engine or seq, or holds a bucket outside the filter is rejected
        whole: nothing of it is applied."""
        try:
            pubs = decode_publication(payload)
        except StorageError as exc:
            self.reject(engine_id, seq, str(exc))
            return False
        if not pubs or pubs[0].engine_id != engine_id or pubs[0].seq != seq:
            self.reject(engine_id, seq, "names another engine or seq")
            return False
        if not all(0 <= p.bucket_index < self.m for p in pubs):
            self.reject(engine_id, seq, "bucket outside the filter")
            return False
        with self._lock:
            for pub in pubs:
                self.apply(pub)
        return True

    def reject(self, engine_id: str, seq: int, reason: str) -> None:
        """Count a publication that failed its checks."""
        log.warning("Bloom publication %d of %s rejected: %s",
                    seq, engine_id, reason)
        with self._lock:
            self.rejected += 1

    def load_digest(self, engine_id: str, seq: int, bitmap: bytes) -> None:
        """Replace an engine's state wholesale (restart recovery)."""
        with self._lock:
            self.register_engine(engine_id)
            self.engine_bits[engine_id].load_bytes(bitmap)
            self.last_seq[engine_id] = seq - 1
            self._rebuild_global()

    def _rebuild_global(self) -> None:
        merged = 0
        for bits in self.engine_bits.values():
            merged |= int.from_bytes(bits.bits, "little")
        self.global_bf.bits[:] = merged.to_bytes(len(self.global_bf.bits), "little")

    def membership(self, prefixes: Sequence[str]) -> list[bool]:
        """`global_bf.contains` of each prefix: one at a time for a short
        list, else hashed and tested in one numpy pass."""
        if len(prefixes) < _VECTOR_MIN_KEYS:
            return [self.global_bf.contains(prefix) for prefix in prefixes]
        rows = bucket_index_matrix(prefixes, self.m, self.h)
        bits = numpy.frombuffer(self.global_bf.bits, dtype=numpy.uint8)
        return ((bits[rows >> 3] >> (rows & 7)) & 1).all(axis=1).tolist()

    def stats(self) -> dict:
        return {
            "m": self.m,
            "h": self.h,
            "engines": sorted(self.engine_bits),
            "lastSeq": dict(self.last_seq),
            "applied": self.applied,
            "dropped": self.dropped,
            "rejected": self.rejected,
            "globalBitsSet": self.global_bf.bit_count(),
            "theoreticalFprAtCurrentLoad": self._fpr_estimate(),
        }

    def _fpr_estimate(self) -> float:
        set_bits = self.global_bf.bit_count()
        if set_bits == 0:
            return 0.0
        # Back out an effective key count from the fill ratio.
        fill = set_bits / self.m
        n = -self.m / self.h * math.log(max(1.0 - fill, 1e-12))
        return theoretical_fpr(self.m, self.h, max(int(n), 1))
