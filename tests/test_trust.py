from __future__ import annotations

import itertools
import random
import threading
import time
from collections import OrderedDict

import pytest

from conftest import malformed_batch_envelopes
from ogb import trust
from ogb.errors import ValidationError
from ogb.trust import (
    Certificate,
    KeyPair,
    TrustEnvelope,
    TrustStore,
    cert_name,
    issue,
    make_anchor,
    sign_envelope,
    signed_message,
    verify_raw,
)

NAME = "ndn:/OGB/12/41/51/89/GPS-ID/DATA/Foo/ShopApp/Alice/1234"
PAYLOAD = b'{"body":{},"bodyType":"inline","freshnessMs":60000}'


def test_cert_names():
    assert cert_name("/OGB/admin").text == "ndn:/OGB-SYS/certs/OGB/admin"
    assert (cert_name(trust.user_identity("Foo", "Alice")).text
            == "ndn:/OGB-SYS/certs/OGB/tenants/Foo/users/Alice")
    assert trust.engine_identity("e1") == "/OGB/engines/e1"


def test_signed_message_layout():
    msg = signed_message("ndn:/OGB", b"xy")
    assert msg == b"\x00\x00\x00\x08" + b"ndn:/OGB" + b"xy"


def test_sign_and_verify_roundtrip(keyring):
    kp, cert = keyring.user("Foo", "Alice")
    env = sign_envelope(kp, cert, NAME, PAYLOAD)
    assert env.key_locator == cert.name.text
    assert verify_raw(cert.public_key, env.signature, signed_message(NAME, PAYLOAD))
    assert not verify_raw(cert.public_key, env.signature, signed_message(NAME, PAYLOAD + b"!"))


def test_signatures_are_deterministic(keyring):
    kp, cert = keyring.user("Foo", "Alice")
    a = sign_envelope(kp, cert, NAME, PAYLOAD)
    b = sign_envelope(kp, cert, NAME, PAYLOAD)
    assert a.signature == b.signature


def test_keypair_serialization_roundtrip():
    kp = KeyPair.from_seed(bytes(range(32)))
    clone = KeyPair.from_dict(kp.to_dict())
    assert clone.public_bytes == kp.public_bytes
    assert clone.sign(b"data") == kp.sign(b"data")


def test_certificate_wire_roundtrip(keyring):
    _, cert = keyring.user("Foo", "Alice")
    assert Certificate.from_wire(cert.to_wire()) == cert
    env = TrustEnvelope("ndn:/OGB-SYS/certs/OGB/admin", b"\x01\x02")
    assert TrustEnvelope.from_dict(env.to_dict()) == env


def test_chain_validates_to_anchor(keyring):
    store = keyring.store()
    _, cert = keyring.user("Foo", "Alice")
    ok, reason = store.validate_chain(cert)
    assert ok and reason is None


def test_anchor_mismatch_is_rejected(keyring):
    rogue_kp = KeyPair.from_seed(b"\xaa" * 32)
    rogue_anchor = make_anchor(rogue_kp)
    tkp = KeyPair.from_seed(b"\xbb" * 32)
    tcert = issue(rogue_kp, rogue_anchor, trust.tenant_identity("Foo"), tkp.public_bytes)
    # The verifier trusts keyring's admin; a parallel hierarchy under a rogue
    # admin carries the same names but must not validate.
    store = keyring.store()
    store.add_certificate(tcert)
    ok, reason = store.validate_chain(tcert)
    assert not ok and reason == trust.REASON_BAD_CHAIN


def test_issue_respects_namespaces(keyring):
    foo_kp, foo_cert = keyring.tenant("Foo")
    eve = KeyPair.generate()
    with pytest.raises(ValidationError) as err:
        issue(foo_kp, foo_cert, trust.tenant_identity("Bar"), eve.public_bytes)
    assert err.value.reason == trust.REASON_IDENTITY_RULE
    with pytest.raises(ValidationError):
        issue(foo_kp, foo_cert, "/OGB/tenants/Bar/users/Eve", eve.public_bytes)
    alice_kp, alice_cert = keyring.user("Foo", "Alice")
    with pytest.raises(ValidationError):
        issue(alice_kp, alice_cert, trust.tenant_identity("Baz"), eve.public_bytes)
    # Nested delegation below one's own identity is allowed.
    sub = issue(alice_kp, alice_cert, "/OGB/tenants/Foo/users/Alice/devices/phone",
                eve.public_bytes)
    assert sub.issuer_key_locator == alice_cert.name.text
    with pytest.raises(ValidationError):
        issue(keyring.admin_kp, keyring.admin_cert, trust.ADMIN_IDENTITY,
              eve.public_bytes)


def test_chain_depth_limit(keyring):
    store = keyring.store()
    kp, cert = keyring.user("Foo", "Alice")
    identity = trust.user_identity("Foo", "Alice")
    for i in range(trust.MAX_CHAIN_DEPTH):
        identity = identity + "/d%d" % i
        child_kp = KeyPair.from_seed(bytes([i]) * 32)
        child_cert = issue(kp, cert, identity, child_kp.public_bytes)
        store.add_certificate(child_cert)
        kp, cert = child_kp, child_cert
    ok, reason = store.validate_chain(cert)
    assert not ok and reason == trust.REASON_BAD_CHAIN


def test_identity_matches_patterns():
    # Tile queries: any user of the tenant.
    assert trust.is_user_of("/OGB/tenants/Foo/users/Alice", "Foo")
    assert trust.is_user_of("/OGB/tenants/Foo/users/Bob", "Foo")
    assert not trust.is_user_of("/OGB/tenants/Bar/users/Alice", "Foo")
    assert not trust.is_user_of("/OGB/tenants/Foo", "Foo")
    assert not trust.is_user_of("/OGB/tenants/Foo/users/Alice/devices/a", "Foo")
    # Data content: exactly the named user.
    assert trust.user_identity("Foo", "Alice") == "/OGB/tenants/Foo/users/Alice"
    assert trust.user_identity("Foo", "Alice") != "/OGB/tenants/Foo/users/Bob"
    assert not trust.is_user_of("/OGB/a/x", "Foo")
    # Engine content: any engine.
    assert trust.is_engine(trust.engine_identity("east"))
    assert not trust.is_engine("/OGB/engines/")
    assert not trust.is_engine("/OGB/engines/east/x")
    assert not trust.is_engine(trust.user_identity("Foo", "Alice"))
    assert not trust.is_engine(trust.ADMIN_IDENTITY)


def test_missing_envelope_and_missing_cert(keyring):
    store = keyring.store()
    ok, reason = store.verify(NAME, PAYLOAD, None)
    assert not ok and reason == trust.REASON_INTEGRITY
    env = TrustEnvelope("ndn:/OGB-SYS/certs/OGB/tenants/Foo/users/Ghost", b"sig")
    ok, reason = store.verify(NAME, PAYLOAD, env)
    assert not ok and reason == trust.REASON_CERT_UNAVAILABLE


def test_fetcher_resolves_missing_certs(keyring):
    kp, cert = keyring.user("Foo", "Alice")
    repo = {c.name.text: c.to_wire() for c in keyring.all_certs()}
    fetched = []

    def fetcher(name):
        fetched.append(name.text)
        return repo.get(name.text)

    store = TrustStore(keyring.admin_cert, fetcher=fetcher)
    env = sign_envelope(kp, cert, NAME, PAYLOAD)
    ok, reason = store.verify_data_content(NAME, PAYLOAD, env, tid="Foo", uid="Alice")
    assert ok and reason is None
    assert cert.name.text in fetched
    # Second verification hits the cache, no further fetches.
    n = len(fetched)
    ok, _ = store.verify_data_content(NAME, PAYLOAD, env, tid="Foo", uid="Alice")
    assert ok and len(fetched) == n


def test_tile_interest_rule_accepts_any_tenant_user(keyring):
    store = keyring.store()
    tile = "ndn:/OGB/12/41/51/GPS-ID/TILE/Foo/ShopApp"
    for uid in ("Alice", "Bob"):
        kp, cert = keyring.user("Foo", uid)
        store.add_certificate(cert)
        env = sign_envelope(kp, cert, tile, b"")
        ok, reason = store.verify_tile_interest(tile, b"", env, tid="Foo")
        assert ok, reason
    kp, cert = keyring.user("Bar", "Alice")
    store.add_certificate(keyring.tenant("Bar")[1])
    store.add_certificate(cert)
    env = sign_envelope(kp, cert, tile, b"")
    ok, reason = store.verify_tile_interest(tile, b"", env, tid="Foo")
    assert not ok and reason == trust.REASON_IDENTITY_RULE


def test_acceptance_matrix_has_single_accepting_cell(keyring):
    """All 2^3 combinations of (chain valid, identity matches, payload intact);
    only the all-true cell verifies."""
    store = keyring.store()
    alice_kp, alice_cert = keyring.user("Foo", "Alice")
    bob_kp, bob_cert = keyring.user("Foo", "Bob")
    store.add_certificate(bob_cert)

    rogue = KeyPair.from_seed(b"\xcc" * 32)

    def forged(cert):
        bad = Certificate(cert.identity, cert.public_key, cert.issuer_key_locator,
                          rogue.sign(cert.signed_bytes()))
        return bad

    accepted = []
    for chain_ok, ident_ok, intact in itertools.product((True, False), repeat=3):
        kp, cert = (alice_kp, alice_cert) if ident_ok else (bob_kp, bob_cert)
        if not chain_ok:
            cert = forged(cert)
        case_store = keyring.store()
        case_store.add_certificate(bob_cert)
        case_store.add_certificate(cert)
        env = sign_envelope(kp, cert, NAME, PAYLOAD)
        payload = PAYLOAD if intact else PAYLOAD + b"tampered"
        ok, reason = case_store.verify_data_content(NAME, payload, env,
                                                    tid="Foo", uid="Alice")
        if ok:
            accepted.append((chain_ok, ident_ok, intact))
        elif not chain_ok:
            assert reason == trust.REASON_BAD_CHAIN
        elif not ident_ok:
            assert reason == trust.REASON_IDENTITY_RULE
        else:
            assert reason == trust.REASON_INTEGRITY
    assert accepted == [(True, True, True)]


def test_memo_never_accepts_a_tampered_payload(keyring):
    store = keyring.store()
    kp, cert = keyring.user("Foo", "Alice")
    env = sign_envelope(kp, cert, NAME, PAYLOAD)
    for _ in range(2):
        ok, reason = store.verify_data_content(NAME, PAYLOAD, env, tid="Foo", uid="Alice")
        assert ok and reason is None
    ok, reason = store.verify_data_content(NAME, PAYLOAD + b" ", env,
                                           tid="Foo", uid="Alice")
    assert not ok and reason == trust.REASON_INTEGRITY
    # Bytes shifted from the message into the signature make another triple.
    data = signed_message(NAME, PAYLOAD)
    assert not store._signature_ok(cert.public_key, env.signature + data[:1], data[1:])


def test_memo_rejects_old_signature_after_rekey(keyring):
    store = keyring.store()
    kp, cert = keyring.user("Foo", "Alice")
    env = sign_envelope(kp, cert, NAME, PAYLOAD)
    assert store.verify_data_content(NAME, PAYLOAD, env, tid="Foo", uid="Alice")[0]

    tkp, tcert = keyring.tenant("Foo")
    new_kp = KeyPair.from_seed(b"\x5a" * 32)
    store.add_certificate(issue(tkp, tcert, cert.identity, new_kp.public_bytes))
    ok, reason = store.verify_data_content(NAME, PAYLOAD, env, tid="Foo", uid="Alice")
    assert not ok and reason == trust.REASON_INTEGRITY
    fresh = sign_envelope(new_kp, cert, NAME, PAYLOAD)
    assert store.verify_data_content(NAME, PAYLOAD, fresh, tid="Foo", uid="Alice")[0]


def _signed(keyring, count):
    kp, cert = keyring.user("Foo", "Alice")
    return [(NAME + "/%d" % i, PAYLOAD,
             sign_envelope(kp, cert, NAME + "/%d" % i, PAYLOAD)) for i in range(count)]


def test_memo_stays_within_its_bound(keyring, monkeypatch):
    monkeypatch.setattr(trust, "VERIFIED_MEMO_SIZE", 5)
    store = keyring.store()
    for name, payload, env in _signed(keyring, 12) * 2:
        assert store.verify(name, payload, env)[0]
        assert len(store._verified) <= 5
    assert len(store._verified) == 5


class _YieldingMemo(OrderedDict):
    """Yields the GIL after each membership test, opening the window in which
    an unguarded check-then-`move_to_end` races with another thread's
    eviction."""

    def __contains__(self, key):
        found = super().__contains__(key)
        time.sleep(0)
        return found


def test_memo_is_safe_across_threads(keyring, monkeypatch):
    # Four messages through a memo of three, so hits and evictions interleave.
    monkeypatch.setattr(trust, "VERIFIED_MEMO_SIZE", 3)
    store = keyring.store()
    store._verified = _YieldingMemo()
    messages = _signed(keyring, 4)
    errors = []

    def worker(offset):
        try:
            for i in range(200):
                name, payload, env = messages[(offset + i) % len(messages)]
                assert store.verify(name, payload, env) == (True, None)
        except Exception as exc:             # surfaced in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(store._verified) <= 3


@pytest.mark.parametrize("reply", [b"{not json", b"[]", b'{"identity": 7}', b"\xff",
                                   b"[" * 100000])
def test_a_garbled_certificate_reply_is_cert_unavailable(keyring, reply):
    kp, cert = keyring.user("Foo", "Alice")
    store = TrustStore(keyring.admin_cert, fetcher=lambda name: reply)
    env = sign_envelope(kp, cert, NAME, PAYLOAD)
    ok, reason = store.verify_data_content(NAME, PAYLOAD, env, tid="Foo", uid="Alice")
    assert not ok and reason == trust.REASON_CERT_UNAVAILABLE


TILE = "ndn:/OGB/12/41/51/GPS-ID/TILE/Foo/ShopApp/seg=0"


def _tiles(count):
    return [("ndn:/OGB/12/41/%d%d/GPS-ID/TILE/Foo/ShopApp/seg=0" % (i // 10, i % 10), b"")
            for i in range(count)]


@pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 13, 64])
def test_every_envelope_of_a_batch_verifies_and_costs_one_real_check(keyring, count):
    kp, cert = keyring.user("Foo", "Alice")
    signs = []
    sign = kp.sign
    kp.sign = lambda data: signs.append(data) or sign(data)
    messages = _tiles(count)
    envelopes = trust.sign_batch(kp, cert, messages)
    assert len(signs) == 1 and len(envelopes) == count
    assert {env.signature for env in envelopes} == {envelopes[0].signature}
    store = keyring.store()
    for (name, payload), env in zip(messages, envelopes):
        assert len(env.path) <= max(1, (count - 1).bit_length())
        assert store.verify_tile_interest(name, payload, env, tid="Foo") == (True, None)
        assert TrustEnvelope.from_dict(env.to_dict()) == env
    assert len(store._verified) == 1


def test_a_batch_envelope_speaks_only_for_its_own_leaf(keyring):
    kp, cert = keyring.user("Foo", "Alice")
    messages = _tiles(4)
    envelopes = trust.sign_batch(kp, cert, messages[:3])
    store = keyring.store()
    outside, _ = messages[3]
    for env in envelopes:
        assert store.verify_tile_interest(outside, b"", env, tid="Foo") == \
            (False, trust.REASON_INTEGRITY)
    # Another member's name, or the right name with a payload, fails too.
    assert not store.verify_tile_interest(messages[1][0], b"", envelopes[0], tid="Foo")[0]
    assert not store.verify_tile_interest(messages[0][0], b"x", envelopes[0], tid="Foo")[0]
    # A batch envelope is checked under the same signer rule as a plain one.
    bkp, bcert = keyring.user("Bar", "Eve")
    store.add_certificate(keyring.tenant("Bar")[1])
    store.add_certificate(bcert)
    eve = trust.sign_batch(bkp, bcert, messages)
    assert store.verify_tile_interest(messages[0][0], b"", eve[0], tid="Foo") == \
        (False, trust.REASON_IDENTITY_RULE)


def test_a_malformed_batch_envelope_is_integrity(keyring):
    kp, cert = keyring.user("Foo", "Alice")
    messages = _tiles(5)
    env = trust.sign_batch(kp, cert, messages)[0]
    store = keyring.store()
    for case, bad in malformed_batch_envelopes(env).items():
        assert store.verify_tile_interest(messages[0][0], b"", bad, tid="Foo") == \
            (False, trust.REASON_INTEGRITY), case
    assert store.verify_tile_interest(messages[0][0], b"", env, tid="Foo") == (True, None)


def test_the_batch_root_name_takes_no_plain_envelope(keyring):
    kp, cert = keyring.user("Foo", "Alice")
    env = trust.sign_batch(kp, cert, _tiles(2))[0]
    root = trust.batch_root(signed_message(*_tiles(2)[0]), env.path)
    store = keyring.store()
    # The root signature, presented as a plain envelope over the root name.
    plain = TrustEnvelope(env.key_locator, env.signature)
    assert store.verify(trust.BATCH_ROOT_NAME, root, plain) == \
        (False, trust.REASON_INTEGRITY)
    assert not trust.BATCH_ROOT_NAME.startswith("ndn:/")


def test_a_plain_envelope_dict_has_no_path(keyring):
    kp, cert = keyring.user("Foo", "Alice")
    env = sign_envelope(kp, cert, NAME, PAYLOAD)
    assert set(env.to_dict()) == {"keyLocator", "signatureBase64"}
    assert TrustEnvelope.from_dict(env.to_dict()) == env


@pytest.mark.parametrize("path", [7, "LR", [["L"]], [["L", "AA", "x"]], [["L", 5]],
                                  [["L", "A"]], [{"L": 1}]])
def test_an_unreadable_path_fails_to_parse(keyring, path):
    kp, cert = keyring.user("Foo", "Alice")
    data = dict(trust.sign_batch(kp, cert, _tiles(2))[0].to_dict(), path=path)
    with pytest.raises((TypeError, ValueError)):
        TrustEnvelope.from_dict(data)
