"""Certificate chains and signing for multi-tenant isolation.

The administrator's self-signed certificate is the trust anchor.  The
administrator issues tenant certificates, tenants issue user certificates,
and signing authority follows the name hierarchy: an issuer may only certify
identities nested under its own (the anchor may certify any direct child
namespace).  Envelopes sign the concatenation of a name and a payload, so a
signature binds content to the exact name it was published under.

Validation rules are plain data so engines and query-handlers can load the
same rule set from configuration:

* tile-query interests must be signed by a user of the tile name's tenant;
* data contents must be signed by exactly the user named in the data name,
  under that name's tenant.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
    PublicFormat,
)

from .errors import ValidationError
from .names import Name, SYSTEM_ROOT

CERT_COMPONENT = "certs"
ADMIN_IDENTITY = "/OGB/admin"
MAX_CHAIN_DEPTH = 8
# Successful signature checks each TrustStore remembers (LRU); the same size
# as an engine node's default content store.
VERIFIED_MEMO_SIZE = 4096

REASON_CERT_UNAVAILABLE = "cert-unavailable"
REASON_BAD_CHAIN = "bad-chain"
REASON_IDENTITY_RULE = "identity-rule"
REASON_INTEGRITY = "integrity"


def tenant_identity(tid: str) -> str:
    return "/OGB/tenants/%s" % tid


def user_identity(tid: str, uid: str) -> str:
    return "/OGB/tenants/%s/users/%s" % (tid, uid)


def engine_identity(engine_id: str) -> str:
    return "/OGB/engines/%s" % engine_id


def cert_name(identity: str) -> Name:
    """Repository name of an identity's certificate."""
    parts = [p for p in identity.split("/") if p]
    return Name((SYSTEM_ROOT, CERT_COMPONENT, *parts))


def signed_message(name_text: str, payload: bytes) -> bytes:
    """Length-prefixed name + payload; the bytes every envelope signs."""
    nb = name_text.encode("utf-8")
    return struct.pack(">I", len(nb)) + nb + payload


class KeyPair:
    """An Ed25519 private key with raw-bytes (de)serialization."""

    def __init__(self, private: Ed25519PrivateKey):
        self._private = private

    @classmethod
    def generate(cls) -> "KeyPair":
        return cls(Ed25519PrivateKey.generate())

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyPair":
        if len(seed) != 32:
            raise ValueError("seed must be 32 bytes")
        return cls(Ed25519PrivateKey.from_private_bytes(seed))

    def sign(self, data: bytes) -> bytes:
        return self._private.sign(data)

    @property
    def public_bytes(self) -> bytes:
        return self._private.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)

    def to_dict(self) -> dict:
        raw = self._private.private_bytes(Encoding.Raw, PrivateFormat.Raw, NoEncryption())
        return {"privateKeyBase64": base64.b64encode(raw).decode("ascii")}

    @classmethod
    def from_dict(cls, data: dict) -> "KeyPair":
        raw = base64.b64decode(data["privateKeyBase64"])
        return cls(Ed25519PrivateKey.from_private_bytes(raw))


def verify_raw(public_key: bytes, signature: bytes, data: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, data)
        return True
    except InvalidSignature:
        return False


@dataclass(frozen=True)
class TrustEnvelope:
    """Key locator (a certificate name) plus a signature over name+payload."""

    key_locator: str
    signature: bytes

    def to_dict(self) -> dict:
        return {
            "keyLocator": self.key_locator,
            "signatureBase64": base64.b64encode(self.signature).decode("ascii"),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrustEnvelope":
        return cls(data["keyLocator"], base64.b64decode(data["signatureBase64"]))


@dataclass(frozen=True)
class Certificate:
    identity: str
    public_key: bytes
    issuer_key_locator: str
    signature: bytes

    @property
    def name(self) -> Name:
        return cert_name(self.identity)

    def signed_bytes(self) -> bytes:
        return signed_message(self.identity, self.public_key)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "publicKeyBase64": base64.b64encode(self.public_key).decode("ascii"),
            "issuerKeyLocator": self.issuer_key_locator,
            "signatureBase64": base64.b64encode(self.signature).decode("ascii"),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        return cls(
            identity=data["identity"],
            public_key=base64.b64decode(data["publicKeyBase64"]),
            issuer_key_locator=data["issuerKeyLocator"],
            signature=base64.b64decode(data["signatureBase64"]),
        )

    def to_wire(self) -> bytes:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_wire(cls, data: bytes) -> "Certificate":
        return cls.from_dict(json.loads(data.decode("utf-8")))


def make_anchor(keypair: KeyPair, identity: str = ADMIN_IDENTITY) -> Certificate:
    """Self-signed administrator certificate."""
    locator = cert_name(identity).text
    body = signed_message(identity, keypair.public_bytes)
    return Certificate(identity, keypair.public_bytes, locator, keypair.sign(body))


def issue(issuer_kp: KeyPair, issuer_cert: Certificate, identity: str,
          subject_public_key: bytes) -> Certificate:
    """Certify `identity`; issuers may only sign inside their own namespace."""
    if not _may_issue(issuer_cert.identity, identity):
        raise ValidationError(REASON_IDENTITY_RULE,
                              "%s may not issue %s" % (issuer_cert.identity, identity))
    body = signed_message(identity, subject_public_key)
    return Certificate(identity, subject_public_key, issuer_cert.name.text,
                       issuer_kp.sign(body))


def _may_issue(issuer_identity: str, subject_identity: str) -> bool:
    if issuer_identity == ADMIN_IDENTITY:
        return subject_identity.startswith("/OGB/") and subject_identity != ADMIN_IDENTITY
    return subject_identity.startswith(issuer_identity + "/")


def sign_envelope(keypair: KeyPair, cert: Certificate, name_text: str,
                  payload: bytes) -> TrustEnvelope:
    return TrustEnvelope(cert.name.text, keypair.sign(signed_message(name_text, payload)))


@dataclass
class ValidatorRules:
    """Identity patterns; `{tid}`/`{uid}` fill from the validated name, `*`
    matches any single component."""

    tile_interest_signer: str = "/OGB/tenants/{tid}/users/*"
    data_content_signer: str = "/OGB/tenants/{tid}/users/{uid}"

    def to_config(self) -> dict:
        return {
            "tileInterestSigner": self.tile_interest_signer,
            "dataContentSigner": self.data_content_signer,
        }

    @classmethod
    def from_config(cls, data: dict) -> "ValidatorRules":
        rules = cls()
        if "tileInterestSigner" in data:
            rules.tile_interest_signer = data["tileInterestSigner"]
        if "dataContentSigner" in data:
            rules.data_content_signer = data["dataContentSigner"]
        return rules


def identity_matches(pattern: str, identity: str, fields: dict) -> bool:
    try:
        filled = pattern.format(**fields)
    except (KeyError, IndexError):
        return False
    want = [p for p in filled.split("/") if p]
    have = [p for p in identity.split("/") if p]
    if len(want) != len(have):
        return False
    return all(w == "*" or w == h for w, h in zip(want, have))


class TrustStore:
    """Certificate cache plus the chain/rule/integrity verifier.

    `fetcher` takes a certificate Name and returns its wire bytes (or None);
    the query-handler wires this to a substrate GET so missing certificates
    are fetched on demand.  Engines in simulated mode run inside the event
    loop and are preloaded instead.

    The final Ed25519 check runs at most once per distinct signed message:
    successes are kept in a bounded LRU keyed by a digest of (public key,
    signature, signed bytes), so a changed payload or a re-keyed certificate
    never hits.  Envelope, certificate, chain and rule checks run every call.
    """

    def __init__(self, anchor: Certificate, rules: Optional[ValidatorRules] = None,
                 fetcher: Optional[Callable[[Name], Optional[bytes]]] = None):
        self.anchor = anchor
        self.rules = rules or ValidatorRules()
        self.fetcher = fetcher
        self._certs: dict[str, Certificate] = {anchor.name.text: anchor}
        self._chain_ok: set[str] = set()
        self._keys: dict[bytes, Ed25519PublicKey] = {}
        self._verified: OrderedDict[bytes, None] = OrderedDict()
        # Socket-mode validators run on a pool of threads sharing one store.
        self._verified_lock = threading.Lock()

    def add_certificate(self, cert: Certificate) -> None:
        self._certs[cert.name.text] = cert
        self._chain_ok.discard(cert.name.text)

    def get_certificate(self, locator: str) -> Optional[Certificate]:
        cert = self._certs.get(locator)
        if cert is not None:
            return cert
        if self.fetcher is None:
            return None
        try:
            wire = self.fetcher(Name.from_text(locator))
        except Exception:
            return None
        if wire is None:
            return None
        cert = Certificate.from_wire(wire)
        if cert.name.text != locator:
            return None
        self._certs[locator] = cert
        return cert

    def validate_chain(self, cert: Certificate) -> tuple[bool, Optional[str]]:
        """Walk issuer links up to the configured anchor.

        A certificate that already passed is not re-walked, provided it is
        still the exact object cached under its name; rejections are never
        memoized so a chain can recover once a missing issuer turns up.
        """
        name_text = cert.name.text
        if name_text in self._chain_ok and self._certs.get(name_text) is cert:
            return True, None
        ok, reason = self._walk_chain(cert)
        if ok and self._certs.get(name_text) is cert:
            self._chain_ok.add(name_text)
        return ok, reason

    def _walk_chain(self, cert: Certificate) -> tuple[bool, Optional[str]]:
        current = cert
        for _ in range(MAX_CHAIN_DEPTH):
            if current.name.text == self.anchor.name.text:
                # The top of the chain must be the locally configured anchor
                # byte-for-byte, not merely share its name.
                if current.to_dict() != self.anchor.to_dict():
                    return False, REASON_BAD_CHAIN
                if not verify_raw(current.public_key, current.signature, current.signed_bytes()):
                    return False, REASON_BAD_CHAIN
                return True, None
            issuer = self.get_certificate(current.issuer_key_locator)
            if issuer is None:
                return False, REASON_CERT_UNAVAILABLE
            if not _may_issue(issuer.identity, current.identity):
                return False, REASON_BAD_CHAIN
            if not verify_raw(issuer.public_key, current.signature, current.signed_bytes()):
                return False, REASON_BAD_CHAIN
            current = issuer
        return False, REASON_BAD_CHAIN

    def verify(self, name_text: str, payload: bytes, envelope: Optional[TrustEnvelope],
               rule: Optional[str] = None, fields: Optional[dict] = None,
               ) -> tuple[bool, Optional[str]]:
        """Full check: certificate available, chain valid, rule satisfied,
        signature intact.  Returns (ok, reason)."""
        if envelope is None:
            return False, REASON_INTEGRITY
        cert = self.get_certificate(envelope.key_locator)
        if cert is None:
            return False, REASON_CERT_UNAVAILABLE
        ok, reason = self.validate_chain(cert)
        if not ok:
            return False, reason
        if rule is not None and not identity_matches(rule, cert.identity, fields or {}):
            return False, REASON_IDENTITY_RULE
        if not self._signature_ok(cert.public_key, envelope.signature,
                                  signed_message(name_text, payload)):
            return False, REASON_INTEGRITY
        return True, None

    def _signature_ok(self, public_key: bytes, signature: bytes, data: bytes) -> bool:
        """`verify_raw`, memoized on success and with each key loaded once."""
        # Length-prefix the variable fields so no two triples share a digest.
        digest = hashlib.sha256(struct.pack(">II", len(public_key), len(signature))
                                + public_key + signature + data).digest()
        memo = self._verified
        with self._verified_lock:
            if digest in memo:
                memo.move_to_end(digest)
                return True
        key = self._keys.get(public_key)
        if key is None:
            key = self._keys[public_key] = Ed25519PublicKey.from_public_bytes(public_key)
        try:
            key.verify(signature, data)
        except InvalidSignature:
            return False
        with self._verified_lock:
            memo[digest] = None
            while len(memo) > VERIFIED_MEMO_SIZE:
                memo.popitem(last=False)
        return True

    def verify_tile_interest(self, name_text: str, payload: bytes,
                             envelope: Optional[TrustEnvelope], tid: str,
                             ) -> tuple[bool, Optional[str]]:
        return self.verify(name_text, payload, envelope,
                           rule=self.rules.tile_interest_signer, fields={"tid": tid})

    def verify_data_content(self, name_text: str, payload: bytes,
                            envelope: Optional[TrustEnvelope], tid: str, uid: str,
                            ) -> tuple[bool, Optional[str]]:
        return self.verify(name_text, payload, envelope,
                           rule=self.rules.data_content_signer,
                           fields={"tid": tid, "uid": uid})
