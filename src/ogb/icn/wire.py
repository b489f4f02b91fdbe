"""Length-prefixed JSON framing for the socket transport.

Every frame is a 4-byte big-endian length followed by one JSON object with
a `type` of "interest", "content" or "announce"; binary payloads travel
base64-encoded.  An envelope travels as its `TrustEnvelope.to_dict()`
under "signature": a batch envelope's adds a "path" key, so a plain one's
bytes are unchanged.  An envelope that does not decode, path included,
makes the frame malformed.
"""

from __future__ import annotations

import base64
import json
import struct
from typing import Optional

from ..errors import NameParseError, ProtocolError
from ..names import SCHEME, Name
from ..trust import TrustEnvelope
from .core import ContentObject, Interest

MAX_FRAME_BYTES = 1 << 26

TYPE_INTEREST = "interest"
TYPE_CONTENT = "content"
TYPE_ANNOUNCE = "announce"


def write_frame(sock, message: dict) -> None:
    data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError("frame of %d bytes exceeds the %d-byte limit"
                            % (len(data), MAX_FRAME_BYTES))
    sock.sendall(struct.pack(">I", len(data)) + data)


def _read_exact(sock, count: int) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count and not chunks:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock) -> Optional[dict]:
    """Read one frame; None on a clean end-of-stream."""
    header = _read_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError("declared frame length %d exceeds the limit"
                            % length)
    body = _read_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed before the frame body")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("undecodable frame: %s" % exc) from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame is not a typed JSON object")
    return message


def interest_message(interest: Interest, nonce: int) -> dict:
    message = {"type": TYPE_INTEREST, "name": interest.name, "nonce": nonce}
    if interest.payload:
        message["payloadBase64"] = base64.b64encode(interest.payload).decode("ascii")
    if interest.envelope is not None:
        message["signature"] = interest.envelope.to_dict()
    if interest.lifetime_ms is not None:
        message["lifetimeMs"] = interest.lifetime_ms
    return message


def _name(message: dict) -> str:
    """The frame's name, which must parse, as a host's FIB lookup parses it."""
    name = message["name"]
    if not isinstance(name, str):
        raise TypeError("name %r is not a string" % (name,))
    if not name.startswith(SCHEME) or "" in name[len(SCHEME):].split("/"):
        Name.from_text(name)                     # raises its refusal
    return name


def parse_interest(message: dict) -> Interest:
    """The interest a frame carries."""
    try:
        return Interest(
            name=_name(message),
            payload=base64.b64decode(message.get("payloadBase64", "")),
            envelope=(TrustEnvelope.from_dict(message["signature"])
                      if "signature" in message else None),
            lifetime_ms=message.get("lifetimeMs"),
        )
    except (KeyError, TypeError, ValueError, NameParseError) as exc:
        raise ProtocolError("malformed interest frame: %s" % exc) from None


def content_message(content: ContentObject) -> dict:
    message = {
        "type": TYPE_CONTENT,
        "name": content.name,
        "payloadBase64": base64.b64encode(content.payload).decode("ascii"),
        "freshnessMs": content.freshness_ms,
    }
    if content.envelope is not None:
        message["signature"] = content.envelope.to_dict()
    if content.final_segment is not None:
        message["finalSegment"] = content.final_segment
    return message


def parse_content(message: dict) -> ContentObject:
    """The content a frame carries; a final segment index, if present, is
    a non-negative int."""
    try:
        final = message.get("finalSegment")
        if "finalSegment" in message and (type(final) is not int or final < 0):
            raise ValueError("final segment index %r" % (final,))
        return ContentObject(
            name=_name(message),
            payload=base64.b64decode(message["payloadBase64"]),
            freshness_ms=float(message.get("freshnessMs", 0.0)),
            envelope=(TrustEnvelope.from_dict(message["signature"])
                      if "signature" in message else None),
            final_segment=final,
        )
    except (KeyError, TypeError, ValueError, NameParseError) as exc:
        raise ProtocolError("malformed content frame: %s" % exc) from None


def announce_message(prefix: str, last: bool) -> dict:
    return {"type": TYPE_ANNOUNCE, "name": prefix, "last": last}


def parse_announce(message: dict) -> str:
    """The prefix an announce frame carries."""
    try:
        return _name(message)
    except (KeyError, TypeError, NameParseError) as exc:
        raise ProtocolError("malformed announce frame: %s" % exc) from None
