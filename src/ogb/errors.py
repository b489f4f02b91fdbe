"""Exception types shared across the package."""


class OgbError(Exception):
    """Base class for all package errors."""


class InvalidCoordinate(OgbError):
    """Coordinate outside the supported ranges or not finite."""


class GridHierarchyError(OgbError):
    """parent() of a root tile or children() of a deepest tile."""


class UnsupportedGeometry(OgbError):
    """Geometry type other than Point / MultiPoint."""


class NameParseError(OgbError):
    """Malformed name text; carries the offending component index."""

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


class FeatureError(OgbError):
    """GeoJSON feature missing or violating mandatory properties."""


class OutOfExtent(OgbError):
    """Query box not contained in the grid's root extent."""


class TessellationError(OgbError):
    """Internal tessellation invariant violated."""


class UndefinedStretch(OgbError):
    """Tile-stretch requested for a tile with zero-area query overlap."""


class NoRouteError(OgbError):
    """No FIB entry covers the requested name."""


class TimeoutError_(OgbError):
    """Retransmissions exhausted without a response."""


class ValidationError(OgbError):
    """Trust validation rejected an envelope; carries a reason code."""

    def __init__(self, reason, message=None):
        super().__init__(message or reason)
        self.reason = reason


class AuthorizationError(OgbError):
    """Caller credentials do not authorize the requested operation."""


class PartialResultError(OgbError):
    """Some tile-queries failed; carries the failed tiles and a partial report."""

    def __init__(self, failed_tiles, report=None):
        super().__init__("tile-queries failed for %d tile(s)" % len(failed_tiles))
        self.failed_tiles = list(failed_tiles)
        self.report = report


class ServiceError(OgbError):
    """A service channel replied with an error payload."""


class ProtocolError(OgbError):
    """A malformed frame arrived on a socket transport."""


class UnreachableError(OgbError):
    """A socket client could not connect to a configured server."""


class CalibrationError(OgbError):
    """Not enough distinct samples to fit the processing model."""


class ConfigError(OgbError):
    """Invalid cluster configuration."""


class StorageError(OgbError):
    """Corrupt or unreadable engine storage."""


class FeedError(OgbError):
    """Unusable transit feed (missing stops file or no valid rows)."""
