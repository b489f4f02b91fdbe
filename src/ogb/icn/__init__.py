"""Named-data networking substrate: simulated and socket transports."""

from .core import (
    ContentObject,
    ContentStore,
    EventLoop,
    Fib,
    Future,
    Interest,
    Pit,
    FetchResult,
    build_segments,
    segment_payloads,
)
from .sim import SimNetwork, SimNode, SimSubstrate

__all__ = [
    "ContentObject",
    "ContentStore",
    "EventLoop",
    "FetchResult",
    "Fib",
    "Future",
    "Interest",
    "Pit",
    "SimNetwork",
    "SimNode",
    "SimSubstrate",
    "build_segments",
    "segment_payloads",
]
