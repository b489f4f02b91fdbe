"""Certificate chains and signing for multi-tenant isolation.

The administrator's self-signed certificate is the trust anchor.  The
administrator issues tenant certificates, tenants issue user certificates,
and signing authority follows the name hierarchy: an issuer may only certify
identities nested under its own (the anchor may certify any direct child
namespace).  Envelopes sign the concatenation of a name and a payload, so a
signature binds content to the exact name it was published under.

Three signing rules are fixed in code, for engines and query-handlers alike:

* a tile-query interest must be signed by some user of the tile name's
  tenant, `user_identity(tid, u)` for any uid `u`;
* data content, and a request to delete it, must be signed by exactly the
  user its data name names, `user_identity(tid, uid)`;
* what a client takes from an engine (a tile listing, a dereferenced body,
  an address, a bulk reply) must be signed by some engine,
  `engine_identity(e)` for any engine id `e`.

A client signs the segment-0 interests of one range query together
(`sign_batch`): the leaves of a Merkle tree are the messages each interest
would sign alone, and one Ed25519 signature covers the root under
`BATCH_ROOT_NAME`, a name no interest or content can carry.  Each interest
gets a batch envelope whose `path` holds the sibling hashes from its leaf up
to the root.  A checker folds the path to the root and checks that root's
signature through the same memo as every other signature, so an engine pays
one Ed25519 verify per batch, not per interest; the certificate, chain and
signer checks still run on every interest.  A batch envelope speaks only for
the (name, payload) of its own leaf, and replays as a plain envelope does:
the same interest again, which the signer asked for once already.

An engine signs content the same way: the one-segment listings of a tile's
same-level siblings form one batch (see `engine`), so a client pays one
Ed25519 verify per listing group.  A content batch envelope proves only
that its signer published that one (name, payload) together with the other
leaves of the tree at the time it signed the root: it says nothing about
the other leaves, which the checker never sees, and a listing served under
another member's name or with another payload folds to another root.
`merkle_levels` and `merkle_path` build the tree for both signers.
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
from .names import Name, SYSTEM_ROOT, computed_once, is_identifier

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

# The name a batch signature signs its Merkle root under.  Interest and
# content names all start with "ndn:/", so none of them can be this one.
BATCH_ROOT_NAME = "ogb-batch:/merkle-root"
# Longest leaf-to-root path a batch envelope may carry (2**16 leaves).
MAX_BATCH_DEPTH = 16
# The side of a path step's sibling: left or right of the running hash.
LEFT, RIGHT = "L", "R"


def tenant_identity(tid: str) -> str:
    return "/OGB/tenants/%s" % tid


def user_identity(tid: str, uid: str) -> str:
    return "/OGB/tenants/%s/users/%s" % (tid, uid)


def is_user_of(identity: str, tid: str) -> bool:
    """True when `identity` is `user_identity(tid, u)` for some uid `u`."""
    prefix = user_identity(tid, "")
    return identity.startswith(prefix) and is_identifier(identity[len(prefix):])


def engine_identity(engine_id: str) -> str:
    return "/OGB/engines/%s" % engine_id


def is_engine(identity: str) -> bool:
    """True when `identity` is `engine_identity(e)` for some engine id `e`."""
    prefix = engine_identity("")
    return identity.startswith(prefix) and is_identifier(identity[len(prefix):])


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
    """Key locator (a certificate name) plus a signature over name+payload,
    or, with a `path`, over the root of a batch that holds name+payload."""

    key_locator: str
    signature: bytes
    # (side, sibling hash) steps from the leaf up, for a `sign_batch` envelope.
    path: Optional[tuple[tuple[str, bytes], ...]] = None

    def to_dict(self) -> dict:
        data = {
            "keyLocator": self.key_locator,
            "signatureBase64": base64.b64encode(self.signature).decode("ascii"),
        }
        if self.path is not None:
            data["path"] = [[side, base64.b64encode(sibling).decode("ascii")]
                            for side, sibling in self.path]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TrustEnvelope":
        """Raises ValueError or TypeError for a path that is not a list of
        (side, base64) pairs; what the pairs hold is `batch_root`'s check."""
        path = data.get("path")
        if path is not None:
            if not isinstance(path, list):
                raise TypeError("envelope path is not a list")
            path = tuple((side, base64.b64decode(sibling)) for side, sibling in path)
        return cls(data["keyLocator"], base64.b64decode(data["signatureBase64"]), path)


@dataclass(frozen=True)
class Certificate:
    identity: str
    public_key: bytes
    issuer_key_locator: str
    signature: bytes

    @computed_once
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


def _leaf_hash(message: bytes) -> bytes:
    return hashlib.sha256(b"\x00" + message).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"\x01" + left + right).digest()


def batch_leaf(name_text: str, payload: bytes) -> bytes:
    """The Merkle leaf of (name, payload): the hash of its signed message."""
    return _leaf_hash(signed_message(name_text, payload))


def merkle_levels(leaves: list[bytes]) -> list[list[bytes]]:
    """Every level of the Merkle tree over `leaves`, leaves first, root
    last.  A level's odd last node moves up unpaired, so node j of a level
    is the parent of nodes 2j and 2j+1 below."""
    levels = [leaves]
    while len(levels[-1]) > 1:
        level = levels[-1]
        levels.append([_node_hash(level[j], level[j + 1]) if j + 1 < len(level)
                       else level[j] for j in range(0, len(level), 2)])
    return levels


def merkle_path(levels: list[list[bytes]], leaf: int) -> tuple[tuple[str, bytes], ...]:
    """The (side, sibling hash) steps from leaf `leaf` up to the root."""
    path = []
    for depth, level in enumerate(levels[:-1]):
        j = leaf >> depth
        if j & 1:
            path.append((LEFT, level[j - 1]))
        elif j + 1 < len(level):
            path.append((RIGHT, level[j + 1]))
    return tuple(path)


def sign_root(keypair: KeyPair, root: bytes) -> bytes:
    """The one signature of a batch: its Merkle root under BATCH_ROOT_NAME."""
    return keypair.sign(signed_message(BATCH_ROOT_NAME, root))


def sign_batch(keypair: KeyPair, cert: Certificate,
               messages: list[tuple[str, bytes]]) -> list[TrustEnvelope]:
    """One envelope per (name, payload), all under one signature of the
    Merkle root of their signed messages.  More than 2**MAX_BATCH_DEPTH
    messages are signed in runs of that many."""
    envelopes: list[TrustEnvelope] = []
    run = 1 << MAX_BATCH_DEPTH
    for start in range(0, len(messages), run):
        levels = merkle_levels([batch_leaf(name_text, payload)
                                for name_text, payload in messages[start:start + run]])
        signature = sign_root(keypair, levels[-1][0])
        envelopes += [TrustEnvelope(cert.name.text, signature, merkle_path(levels, leaf))
                      for leaf in range(len(levels[0]))]
    return envelopes


def batch_root(message: bytes, path) -> Optional[bytes]:
    """The Merkle root `path` folds `message`'s leaf into; None for a path
    longer than MAX_BATCH_DEPTH, a side other than LEFT or RIGHT, or a
    sibling that is not a 32-byte hash."""
    if len(path) > MAX_BATCH_DEPTH:
        return None
    node = _leaf_hash(message)
    for side, sibling in path:
        if not isinstance(sibling, bytes) or len(sibling) != 32:
            return None
        if side == LEFT:
            node = _node_hash(sibling, node)
        elif side == RIGHT:
            node = _node_hash(node, sibling)
        else:
            return None
    return node


class TrustStore:
    """Certificate cache plus the chain/signer/integrity verifier.

    `fetcher` takes a certificate Name and returns its wire bytes (or None);
    a client wires this to a substrate GET, and a cluster's engines and
    Bloom feed to `CertRepo.get_wire`, which reads the key store, so a
    missing certificate is looked up on demand.

    The final Ed25519 check runs at most once per distinct signed message:
    successes are kept in a bounded LRU keyed by a digest of (public key,
    signature, signed bytes), so a changed payload or a re-keyed certificate
    never hits.  Envelope, certificate, chain and signer checks run every call.
    A batch envelope's path is folded every call too; the memo then holds its
    root's signature, so the rest of a batch costs no Ed25519 work.
    """

    def __init__(self, anchor: Certificate,
                 fetcher: Optional[Callable[[Name], Optional[bytes]]] = None):
        self.anchor = anchor
        self.fetcher = fetcher
        self._certs: dict[str, Certificate] = {anchor.name.text: anchor}
        self._chain_ok: set[str] = set()
        self._keys: dict[bytes, Ed25519PublicKey] = {}
        self._verified: OrderedDict[bytes, None] = OrderedDict()
        # A store may be shared by threads: the Bloom feed's subscription
        # threads, or a socket host's connection threads.
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
            if wire is None:
                return None
            # A garbled or hostile reply is as good as no reply.
            cert = Certificate.from_wire(wire)
            if cert.name.text != locator:
                return None
        except Exception:
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
               signer: Optional[Callable[[str], bool]] = None,
               ) -> tuple[bool, Optional[str]]:
        """Full check: certificate available, chain valid, the signer's
        identity passing `signer` if given, signature intact.  Returns
        (ok, reason)."""
        if envelope is None:
            return False, REASON_INTEGRITY
        cert = self.get_certificate(envelope.key_locator)
        if cert is None:
            return False, REASON_CERT_UNAVAILABLE
        ok, reason = self.validate_chain(cert)
        if not ok:
            return False, reason
        if signer is not None and not signer(cert.identity):
            return False, REASON_IDENTITY_RULE
        message = signed_message(name_text, payload)
        if envelope.path is not None:
            root = batch_root(message, envelope.path)
            if root is None:
                return False, REASON_INTEGRITY
            message = signed_message(BATCH_ROOT_NAME, root)
        elif name_text == BATCH_ROOT_NAME:
            return False, REASON_INTEGRITY      # a batch root is no message
        if not self._signature_ok(cert.public_key, envelope.signature, message):
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
                           signer=lambda identity: is_user_of(identity, tid))

    def verify_engine_content(self, name_text: str, payload: bytes,
                              envelope: Optional[TrustEnvelope], engine_id: str,
                              ) -> tuple[bool, Optional[str]]:
        """Content the engine `engine_id` itself must have signed."""
        return self.verify(name_text, payload, envelope,
                           signer=engine_identity(engine_id).__eq__)

    def verify_data_content(self, name_text: str, payload: bytes,
                            envelope: Optional[TrustEnvelope], tid: str, uid: str,
                            ) -> tuple[bool, Optional[str]]:
        return self.verify(name_text, payload, envelope,
                           signer=user_identity(tid, uid).__eq__)
