"""Hierarchical names binding tiles, data, and services to the wire.

Canonical text form is ``ndn:/`` followed by slash-joined components, e.g.
``ndn:/OGB/12/41/58/19/GPS-ID/DATA/Foo/ShopApp/Alice/1234``.  Each digit-pair
component concatenates the longitude digit with the latitude digit of one
grid level.  The ``GPS-ID`` marker terminates the spatial part; FIB routing
uses the prefix *without* the marker so that parent prefixes stay strict
component-prefixes of child prefixes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from . import grid
from .errors import NameParseError
from .grid import TileId

SCHEME = "ndn:/"
ROOT = "OGB"
SYSTEM_ROOT = "OGB-SYS"
GRID_MARKER = "GPS-ID"
DATA_MARKER = "DATA"
TILE_MARKER = "TILE"
IPRES_MARKER = "IP-RES"
SEGMENT_PREFIX = "seg="

_IDENT_RE = re.compile(r"[A-Za-z0-9_-]+\Z")
_INT_RE = re.compile(r"-?(0|[1-9][0-9]*)\Z")
_PAIR_RE = re.compile(r"[0-9]{2}\Z")


class computed_once:
    """A property of a frozen object computed on first use and then kept in
    the object's `__dict__`, where later lookups find it directly.

    Unlike `functools.cached_property` before Python 3.12, it takes no lock:
    two threads may both compute the value, and they compute equal ones.
    """

    def __init__(self, fn):
        self.fn = fn
        self.attr = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attr] = self.fn(obj)
        return value


@dataclass(frozen=True)
class Name:
    """An immutable sequence of components with a canonical text form."""

    components: tuple[str, ...]

    def __post_init__(self):
        for i, c in enumerate(self.components):
            if not c or "/" in c:
                raise NameParseError("empty or slash-bearing component at %d" % i, component=i)

    @computed_once
    def text(self) -> str:
        return SCHEME + "/".join(self.components)

    @classmethod
    def from_text(cls, text: str) -> "Name":
        if not text.startswith(SCHEME):
            raise NameParseError("name must start with %r" % SCHEME)
        rest = text[len(SCHEME):]
        if not rest:
            raise NameParseError("name has no components")
        return cls(tuple(rest.split("/")))

    def child(self, *extra: str) -> "Name":
        return Name(self.components + tuple(extra))

    def is_prefix_of(self, other: "Name") -> bool:
        n = len(self.components)
        return len(other.components) >= n and other.components[:n] == self.components

    def __len__(self):
        return len(self.components)

    def __str__(self):
        return self.text


def is_identifier(value: str) -> bool:
    return bool(_IDENT_RE.match(value))


def _check_identifier(value: str, what: str) -> str:
    if not isinstance(value, str) or not is_identifier(value):
        raise NameParseError("%s %r must match [A-Za-z0-9_-]+" % (what, value))
    return value


def tile_prefix(t: TileId) -> Name:
    """Canonical tile-prefix, digit pairs concatenated lngDigit+latDigit."""
    comps = [ROOT, str(t.lng0), str(t.lat0)]
    comps += ["%d%d" % pair for pair in t.digits]
    comps.append(GRID_MARKER)
    return Name(tuple(comps))


def routing_prefix(t: TileId) -> Name:
    """Tile-prefix without the terminal marker; the announceable, nestable form."""
    return Name(tile_prefix(t).components[:-1])


@dataclass(frozen=True)
class TilePrefix:
    tile: TileId

    @computed_once
    def name(self) -> Name:
        return tile_prefix(self.tile)


@dataclass(frozen=True)
class DataName:
    """Name of one stored object: tile-prefix + /DATA/tid/cid/uid/oid."""

    tile: TileId
    tid: str
    cid: str
    uid: str
    oid: str

    def __post_init__(self):
        for field in ("tid", "cid", "uid", "oid"):
            _check_identifier(getattr(self, field), field)

    @computed_once
    def name(self) -> Name:
        return tile_prefix(self.tile).child(DATA_MARKER, self.tid, self.cid, self.uid, self.oid)


@dataclass(frozen=True)
class TileName:
    """Name of a tile-query: tile-prefix + /TILE/tid/cid."""

    tile: TileId
    tid: str
    cid: str

    def __post_init__(self):
        _check_identifier(self.tid, "tid")
        _check_identifier(self.cid, "cid")

    @computed_once
    def name(self) -> Name:
        return tile_prefix(self.tile).child(TILE_MARKER, self.tid, self.cid)


@dataclass(frozen=True)
class IpResName:
    """Name of an address-resolution request: tile-prefix + /IP-RES."""

    tile: TileId

    @computed_once
    def name(self) -> Name:
        return tile_prefix(self.tile).child(IPRES_MARKER)


ParsedName = Union[TilePrefix, DataName, TileName, IpResName, "SegmentName"]


@dataclass(frozen=True)
class SegmentName:
    """A segmented content name: base name + terminal seg=<index>."""

    base: ParsedName
    index: int

    @computed_once
    def name(self) -> Name:
        return segment_name(self.base.name, self.index)


def segment_name(base: Name, index: int) -> Name:
    if index < 0:
        raise NameParseError("segment index must be >= 0, got %r" % index)
    return base.child("%s%d" % (SEGMENT_PREFIX, index))


def split_segment(name: Name) -> tuple[Name, int | None]:
    """Strip a trailing seg=<i> component if present."""
    last = name.components[-1]
    if last.startswith(SEGMENT_PREFIX):
        digits = last[len(SEGMENT_PREFIX):]
        if not digits.isdigit():
            raise NameParseError("bad segment index %r" % last, component=len(name.components) - 1)
        return Name(name.components[:-1]), int(digits)
    return name, None


def _parse_int(comp: str, index: int, what: str) -> int:
    if not _INT_RE.match(comp):
        raise NameParseError("component %d: %s %r is not a canonical integer" % (index, what, comp),
                             component=index)
    return int(comp)


def parse(text: str | Name) -> ParsedName:
    """Classify a name into one of the five shapes, or raise NameParseError.

    Error messages carry the zero-based index of the offending component.
    """
    name = text if isinstance(text, Name) else Name.from_text(text)
    base, seg_index = split_segment(name)
    comps = base.components

    if not comps or comps[0] != ROOT:
        raise NameParseError("component 0: expected %r, got %r" % (ROOT, comps[0] if comps else None),
                             component=0)
    if len(comps) < 4:
        raise NameParseError("name too short: tile-prefix needs root, lng, lat, marker")
    lng0 = _parse_int(comps[1], 1, "lng0")
    lat0 = _parse_int(comps[2], 2, "lat0")

    digits = []
    i = 3
    while i < len(comps) and comps[i] != GRID_MARKER:
        comp = comps[i]
        if not _PAIR_RE.match(comp):
            raise NameParseError("component %d: %r is neither a digit pair nor %r"
                                 % (i, comp, GRID_MARKER), component=i)
        if len(digits) >= grid.MAX_LEVEL:
            raise NameParseError("component %d: more than %d digit pairs"
                                 % (i, grid.MAX_LEVEL), component=i)
        digits.append((int(comp[0]), int(comp[1])))
        i += 1
    if i >= len(comps):
        raise NameParseError("component %d: missing %r marker" % (len(comps) - 1, GRID_MARKER),
                             component=len(comps) - 1)
    try:
        tile = TileId(lng0, lat0, tuple(digits))
    except Exception as exc:
        raise NameParseError("invalid tile in name: %s" % exc) from exc

    rest = comps[i + 1:]
    offset = i + 1
    if not rest:
        parsed: ParsedName = TilePrefix(tile)
    elif rest[0] == DATA_MARKER:
        if len(rest) != 5:
            raise NameParseError("component %d: DATA needs tid/cid/uid/oid" % offset, component=offset)
        try:
            parsed = DataName(tile, rest[1], rest[2], rest[3], rest[4])
        except NameParseError as exc:
            exc.component = offset
            raise
    elif rest[0] == TILE_MARKER:
        if len(rest) != 3:
            raise NameParseError("component %d: TILE needs tid/cid" % offset, component=offset)
        try:
            parsed = TileName(tile, rest[1], rest[2])
        except NameParseError as exc:
            exc.component = offset
            raise
    elif rest[0] == IPRES_MARKER:
        if len(rest) != 1:
            raise NameParseError("component %d: IP-RES takes no further components" % (offset + 1),
                                 component=offset + 1)
        parsed = IpResName(tile)
    else:
        raise NameParseError("component %d: unknown marker %r" % (offset, rest[0]), component=offset)

    if seg_index is not None:
        if isinstance(parsed, TilePrefix):
            raise NameParseError("a bare tile-prefix cannot be segmented")
        return SegmentName(parsed, seg_index)
    return parsed
