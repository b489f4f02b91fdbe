"""Machine-speed reference for the benchmark's timings.

On a shared host the whole machine runs faster or slower by a fifth for
minutes at a time, in CPU time as much as in wall time, and every latency of
a run moves with it.  To keep that drift out of the comparison between two
versions of the program, the benchmark times a fixed slice of CPU work, made
of the same kinds of work the program does (Ed25519 sign and verify, JSON,
SHA-256, string and dict building, interpreted arithmetic) but none of the
program's code, every
quarter second between operations.  A timing taken at time t is reported as
wall-clock time multiplied by REFERENCE_SLICE_MS over the median slice time
within WINDOW_S of t: milliseconds on a machine that runs the slice in
REFERENCE_SLICE_MS.  Where an operation waits as well as computes (socket
mode: modeled sleeps, loopback), only its process-CPU part is scaled.  The
unscaled wall-clock figures are printed as well.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

INTERVAL_S = 0.25
WINDOW_S = 4.0
# Median slice time on a 2-vCPU x86-64 cloud VM with Python 3.11; any
# constant serves, since it only fixes the unit of the scaled timings.
REFERENCE_SLICE_MS = 6.5

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_DOC = {"type": "Feature",
        "geometry": {"type": "MultiPoint",
                     "coordinates": [[12.5 + i / 100, 41.9] for i in range(8)]},
        "properties": {"oid": 7, "tid": "T0", "uid": "U0", "cid": "poi"}}


def slice_ms() -> float:
    """Wall time of one fixed slice of reference work, ms.

    Half library work (Ed25519, JSON, SHA-256) and half bare interpreter
    loop: measured against the program's insert, query and Bloom bitmap
    paths under drift, the first half alone moves about 0.85 times as much
    as the program and the second about 1.15 times, so together they move
    with it."""
    t0 = perf_counter()
    for _ in range(12):
        text = json.dumps(_DOC, sort_keys=True, separators=(",", ":")).encode("utf-8")
        signature = _KEY.sign(text)
        _PUBLIC.verify(signature, text)
        json.loads(text)
        hashlib.sha256(text).digest()
        parts = [("%d/%s" % (j, c), j * 3) for j, c in enumerate("abcdefghij" * 4)]
        dict(parts)
    x = 0
    for i in range(30000):
        x += i * i % 7
    return (perf_counter() - t0) * 1000.0


class SpeedReference:
    """Reference slices taken through a run, and the scale they give."""

    def __init__(self):
        self.times: list[float] = []
        self.slices: list[float] = []
        self.spent_s = 0.0
        self._due = 0.0

    def tick(self, force: bool = False) -> None:
        """Time a slice if one is due."""
        now = perf_counter()
        if now < self._due and not force:
            return
        ms = slice_ms()
        self.times.append(now)
        self.slices.append(ms)
        self.spent_s += ms / 1000.0
        self._due = perf_counter() + INTERVAL_S

    def scaled(self, t: float, wall: float, cpu: float | None = None) -> float:
        """A wall-clock timing taken at t, in reference units.  Given the
        process CPU time it spent, only that part is scaled; the rest was
        spent waiting (sleeps, loopback), which machine speed does not set."""
        if cpu is None:
            return wall * self.scale(t)
        busy = min(max(cpu, 0.0), wall)
        return wall - busy + busy * self.scale(t)

    def scale(self, t: float) -> float:
        """REFERENCE_SLICE_MS over the median slice time near t."""
        lo = bisect_left(self.times, t - WINDOW_S)
        hi = bisect_right(self.times, t + WINDOW_S)
        near = self.slices[lo:hi] or self.slices
        return REFERENCE_SLICE_MS / statistics.median(near)
