from __future__ import annotations

import random
from dataclasses import replace

import pytest

from ogb import bloom, trust
from ogb.icn.core import ContentObject


def starbucks_dict():
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [12.51133, 41.8919]},
        "properties": {
            "oid": 1234,
            "tid": "Foo",
            "uid": "Alice",
            "cid": "ShopApp",
            "name": "Starbucks",
            "amenity": "Coffee Shop",
        },
    }


def bad_publications(engine, forger, prefixes):
    """Publications for the engine's next seq that the Bloom server must
    refuse, each of them DOWN for every bucket of `prefixes`: one signed by
    `forger` (a valid certificate, not the engine's); the engine's own
    signature over UP transitions with the payload switched to DOWN; and one
    the engine signed whose payload names the wrong seq."""
    engine_id, seq = engine.config.engine_id, engine.cbf.seq
    buckets = sorted({b for p in prefixes
                      for b in bloom.bucket_indexes(p, engine.cbf.m, engine.cbf.h)})
    name = bloom.publication_name(engine_id, seq) + "/seg=0"

    def payload(direction, first=seq):
        return bloom.encode_publication([
            bloom.BfPublication(engine_id, bucket, direction, first + i)
            for i, bucket in enumerate(buckets)])

    def content(body, signer, signed_body):
        kp, cert = signer
        return ContentObject(name, body, 3600e3,
                             trust.sign_envelope(kp, cert, name, signed_body), 0)

    own = (engine.keypair, engine.certificate)
    wrong_seq = payload(bloom.DOWN, seq + 1)
    return [
        content(payload(bloom.DOWN), forger, payload(bloom.DOWN)),
        content(payload(bloom.DOWN), own, payload(bloom.UP)),
        content(wrong_seq, own, wrong_seq),
    ]


@pytest.fixture
def starbucks():
    return starbucks_dict()


class KeyRing:
    """Admin plus one tenant/user hierarchy, deterministic from a seed."""

    def __init__(self, seed=7):
        rng = random.Random(seed)
        self.admin_kp = trust.KeyPair.from_seed(rng.randbytes(32))
        self.admin_cert = trust.make_anchor(self.admin_kp)
        self.tenants = {}
        self.users = {}
        self.engines = {}
        self._rng = rng

    def tenant(self, tid):
        if tid not in self.tenants:
            kp = trust.KeyPair.from_seed(self._rng.randbytes(32))
            cert = trust.issue(self.admin_kp, self.admin_cert,
                               trust.tenant_identity(tid), kp.public_bytes)
            self.tenants[tid] = (kp, cert)
        return self.tenants[tid]

    def user(self, tid, uid):
        if (tid, uid) not in self.users:
            tkp, tcert = self.tenant(tid)
            kp = trust.KeyPair.from_seed(self._rng.randbytes(32))
            cert = trust.issue(tkp, tcert, trust.user_identity(tid, uid), kp.public_bytes)
            self.users[(tid, uid)] = (kp, cert)
        return self.users[(tid, uid)]

    def engine(self, engine_id):
        if engine_id not in self.engines:
            kp = trust.KeyPair.from_seed(self._rng.randbytes(32))
            cert = trust.issue(self.admin_kp, self.admin_cert,
                               trust.engine_identity(engine_id), kp.public_bytes)
            self.engines[engine_id] = (kp, cert)
        return self.engines[engine_id]

    def all_certs(self):
        certs = [self.admin_cert]
        certs += [cert for _, cert in self.tenants.values()]
        certs += [cert for _, cert in self.users.values()]
        certs += [cert for _, cert in self.engines.values()]
        return certs

    def store(self, fetcher=None):
        s = trust.TrustStore(self.admin_cert, fetcher=fetcher)
        for cert in self.all_certs():
            s.add_certificate(cert)
        return s


@pytest.fixture
def keyring():
    ring = KeyRing()
    ring.user("Foo", "Alice")
    return ring


def malformed_batch_envelopes(env):
    """Variants of a batch envelope that a trust store refuses as integrity:
    a path too deep, a bad side marker, a sibling of the wrong length, a step
    on the wrong side, and the root signature with no path."""
    path = env.path
    side, sibling = path[0]
    flipped = trust.LEFT if side == trust.RIGHT else trust.RIGHT
    too_deep = path + ((trust.RIGHT, bytes(32)),) * (trust.MAX_BATCH_DEPTH + 1 - len(path))
    return {
        "too-deep": replace(env, path=too_deep),
        "bad-side": replace(env, path=(("X", sibling),) + path[1:]),
        "short-sibling": replace(env, path=((side, sibling[:31]),) + path[1:]),
        "long-sibling": replace(env, path=((side, sibling + b"\0"),) + path[1:]),
        "flipped-side": replace(env, path=((flipped, sibling),) + path[1:]),
        "no-path": replace(env, path=None),
    }
