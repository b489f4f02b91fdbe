from __future__ import annotations

import itertools
import random
import threading
import time
from collections import OrderedDict

import pytest

from ogb import trust
from ogb.errors import ValidationError
from ogb.trust import (
    Certificate,
    KeyPair,
    TrustEnvelope,
    TrustStore,
    ValidatorRules,
    cert_name,
    identity_matches,
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
    fields = {"tid": "Foo", "uid": "Alice"}
    assert identity_matches("/OGB/tenants/{tid}/users/*",
                            "/OGB/tenants/Foo/users/Alice", fields)
    assert identity_matches("/OGB/tenants/{tid}/users/*",
                            "/OGB/tenants/Foo/users/Bob", fields)
    assert not identity_matches("/OGB/tenants/{tid}/users/*",
                                "/OGB/tenants/Bar/users/Alice", fields)
    assert not identity_matches("/OGB/tenants/{tid}/users/*",
                                "/OGB/tenants/Foo", fields)
    assert not identity_matches("/OGB/tenants/{tid}/users/*",
                                "/OGB/tenants/Foo/users/Alice/devices/a", fields)
    assert identity_matches("/OGB/tenants/{tid}/users/{uid}",
                            "/OGB/tenants/Foo/users/Alice", fields)
    assert not identity_matches("/OGB/tenants/{tid}/users/{uid}",
                                "/OGB/tenants/Foo/users/Bob", fields)
    assert not identity_matches("/OGB/tenants/{missing}/x", "/OGB/a/x", fields)


def test_rules_config_roundtrip():
    rules = ValidatorRules()
    clone = ValidatorRules.from_config(rules.to_config())
    assert clone == rules
    custom = ValidatorRules.from_config({"tileInterestSigner": "/OGB/x/{tid}"})
    assert custom.tile_interest_signer == "/OGB/x/{tid}"
    assert custom.data_content_signer == rules.data_content_signer


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
