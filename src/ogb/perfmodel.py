"""Closed-form timing model for tile-query batches, plus a simulated bench.

Two quantities are modeled.  TQp is the engine-side processing time of a
single tile-query: a fixed cost C1 plus C2 per returned item.  TB is the
duration of a whole batch of Nq tile-queries dispatched from one handler
over a shared bottleneck link:

    TB = C3 + Nq * ((1 - H) * Pdb / Ndb + Pqh) * TQp + Nq * Ni * Ds * 8 / Bw

where H is the cache-hit probability, the Pdb share of processing runs on
Ndb engines in parallel, the Pqh share is serialized at the handler, and
the last term is the transmission time of the returned payloads.

`bench_run` rebuilds those assumptions on the event-driven network
simulator and measures TB directly, so model and measurement can be
compared point by point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy

from .errors import CalibrationError, ConfigError
from .icn.core import build_segments
from .icn.sim import SimNetwork, SimSubstrate

DEFAULT_C1_MS = 3.0
DEFAULT_C2_MS = 0.008
DEFAULT_C3_MS = 20.0
DEFAULT_PDB = 0.85
DEFAULT_PQH = 0.15
DEFAULT_DS_BYTES = 55
DEFAULT_BW_BITS_PER_S = 2e8

_WARM_FRESHNESS_MS = 1e15
_SWEEP_AXES = ("nq", "ni", "h", "ndb")

_PARAM_KEYS = {
    "c1_ms": "c1Ms",
    "c2_ms": "c2Ms",
    "c3_ms": "c3Ms",
    "pdb": "pdb",
    "pqh": "pqh",
    "ds_bytes": "dsBytes",
    "bw_bits_per_s": "bwBitsPerS",
    "h": "h",
    "ndb": "ndb",
    "nq": "nq",
    "ni": "ni",
}


@dataclass(frozen=True)
class ModelParams:
    """One operating point: cost constants plus the workload shape."""

    c1_ms: float = DEFAULT_C1_MS
    c2_ms: float = DEFAULT_C2_MS
    c3_ms: float = DEFAULT_C3_MS
    pdb: float = DEFAULT_PDB
    pqh: float = DEFAULT_PQH
    ds_bytes: float = DEFAULT_DS_BYTES
    bw_bits_per_s: float = DEFAULT_BW_BITS_PER_S
    h: float = 0.0
    ndb: int = 1
    nq: int = 1
    ni: int = 1

    def __post_init__(self):
        if abs(self.pdb + self.pqh - 1.0) > 1e-9:
            raise ConfigError("Pdb + Pqh must equal 1, got %r + %r"
                              % (self.pdb, self.pqh))
        for label in ("c1_ms", "c2_ms", "c3_ms", "pdb", "pqh", "ds_bytes",
                      "nq", "ni"):
            if getattr(self, label) < 0:
                raise ConfigError("%s must be non-negative" % label)
        if not 0.0 <= self.h <= 1.0:
            raise ConfigError("H must be in [0, 1], got %r" % (self.h,))
        if self.ndb < 1:
            raise ConfigError("Ndb must be at least 1, got %r" % (self.ndb,))
        if self.bw_bits_per_s <= 0:
            raise ConfigError("Bw must be positive, got %r"
                              % (self.bw_bits_per_s,))

    def to_dict(self) -> dict:
        return {key: getattr(self, field) for field, key in _PARAM_KEYS.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        unknown = set(data) - set(_PARAM_KEYS.values())
        if unknown:
            raise ConfigError("unknown model parameter(s): %s"
                              % ", ".join(sorted(unknown)))
        kwargs = {field: data[key] for field, key in _PARAM_KEYS.items()
                  if key in data}
        for field in ("ndb", "nq", "ni"):
            if field in kwargs:
                kwargs[field] = int(kwargs[field])
        return cls(**kwargs)


def tq_processing(params: ModelParams) -> float:
    """Processing time of one tile-query returning `ni` items, in ms."""
    return params.c1_ms + params.c2_ms * params.ni


def batch_duration(params: ModelParams) -> float:
    """Predicted duration of a batch of `nq` tile-queries, in ms."""
    tq = tq_processing(params)
    per_query = ((1.0 - params.h) * params.pdb / params.ndb + params.pqh) * tq
    tx_ms = (params.nq * params.ni * params.ds_bytes * 8.0
             / params.bw_bits_per_s * 1000.0)
    return params.c3_ms + params.nq * per_query + tx_ms


@dataclass(frozen=True)
class CalibrationResult:
    c1_ms: float
    c2_ms: float
    residuals_ms: tuple

    @property
    def max_abs_residual_ms(self) -> float:
        return max((abs(r) for r in self.residuals_ms), default=0.0)


def calibrate(samples) -> CalibrationResult:
    """Fit (C1, C2) from (ni, measured TQp ms) pairs by least squares."""
    samples = list(samples)
    if len({ni for ni, _ in samples}) < 2:
        raise CalibrationError(
            "calibration needs at least two distinct item counts")
    design = numpy.array([[1.0, float(ni)] for ni, _ in samples])
    observed = numpy.array([float(ms) for _, ms in samples])
    coefficients, _, _, _ = numpy.linalg.lstsq(design, observed, rcond=None)
    residuals = observed - design @ coefficients
    return CalibrationResult(float(coefficients[0]), float(coefficients[1]),
                             tuple(float(r) for r in residuals))


@dataclass(frozen=True)
class BenchPoint:
    sweep_value: float
    measured_ms: float
    predicted_ms: float

    @property
    def rel_err(self) -> float:
        return abs(self.measured_ms - self.predicted_ms) / self.predicted_ms

    def to_dict(self) -> dict:
        return {
            "sweepValue": self.sweep_value,
            "measuredMs": self.measured_ms,
            "predictedMs": self.predicted_ms,
            "relErr": self.rel_err,
        }


@dataclass(frozen=True)
class BenchScenario:
    """A sweep of one model axis, everything else held at `base`."""

    name: str
    engines: int
    base: ModelParams
    sweep_axis: str
    sweep_values: tuple

    def __post_init__(self):
        if self.sweep_axis not in _SWEEP_AXES:
            raise ConfigError("sweep axis must be one of %s, got %r"
                              % ("/".join(_SWEEP_AXES), self.sweep_axis))
        if not self.sweep_values:
            raise ConfigError("sweep needs at least one value")
        if self.engines < 1:
            raise ConfigError("scenario needs at least one engine")
        if self.sweep_axis == "ndb":
            largest = max(int(v) for v in self.sweep_values)
        else:
            largest = self.base.ndb
        if largest > self.engines:
            raise ConfigError("scenario uses %d engines but only %d are "
                              "configured" % (largest, self.engines))

    def point(self, value) -> ModelParams:
        if self.sweep_axis in ("nq", "ni", "ndb"):
            value = int(value)
        else:
            value = float(value)
        return replace(self.base, **{self.sweep_axis: value})

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "engines": self.engines,
            "params": self.base.to_dict(),
            "sweep": {"axis": self.sweep_axis,
                      "values": list(self.sweep_values)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchScenario":
        unknown = set(data) - {"name", "engines", "params", "sweep"}
        if unknown:
            raise ConfigError("unknown scenario key(s): %s"
                              % ", ".join(sorted(unknown)))
        try:
            sweep = data["sweep"]
            return cls(
                name=str(data.get("name", "scenario")),
                engines=int(data.get("engines", 1)),
                base=ModelParams.from_dict(data.get("params", {})),
                sweep_axis=str(sweep["axis"]),
                sweep_values=tuple(sweep["values"]),
            )
        except KeyError as missing:
            raise ConfigError("scenario is missing %s" % missing) from None

    @classmethod
    def load(cls, path) -> "BenchScenario":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def _bench_producer(payload: bytes, delay_ms: float):
    def produce(interest, base):
        fresh = (_WARM_FRESHNESS_MS if base.components[-1] == "warm" else 0.0)
        return build_segments(base, payload, freshness_ms=fresh), delay_ms

    return produce


def _simulate_batch(params: ModelParams, stats: Optional[dict] = None) -> float:
    """Measure one batch on the network simulator.

    Queries go out in rounds of one per engine so the parallel share of the
    processing overlaps across engines, while the handler share and the
    bottleneck link stay serialized; cache hits are realized by re-fetching
    a pre-warmed name that only the engine-side store retains.
    """
    network = SimNetwork()
    handler = network.add_node("handler", cache_capacity=0)
    network.add_node("switch", cache_capacity=0)
    network.connect("handler", "switch",
                    bandwidth_mbps=params.bw_bits_per_s / 1e6)
    payload = b"\x00" * int(round(params.ni * params.ds_bytes))
    engine_delay = params.pdb * tq_processing(params)
    for index in range(params.ndb):
        node_id = "db%d" % index
        node = network.add_node(node_id, cache_capacity=4)
        network.connect(node_id, "switch")
        node.attach_producer("ndn:/bench/%d" % index,
                             _bench_producer(payload, engine_delay))
    for index in range(params.ndb):
        network.announce("ndn:/bench/%d" % index, "db%d" % index)
    substrate = SimSubstrate(network, handler)

    hits = int(round(params.h * params.nq))
    misses = params.nq - hits
    warm_names = ["ndn:/bench/%d/warm" % index for index in range(params.ndb)]
    if hits:
        for result in substrate.get_many([{"name": n} for n in warm_names],
                                         window=params.ndb):
            if isinstance(result, Exception):
                raise result

    for node in network.nodes.values():
        node.counters.clear()                 # count the batch alone
    started = substrate.now_ms()
    substrate.advance(params.c3_ms)
    handler_share = params.pqh * tq_processing(params)
    for offset in range(0, params.nq, params.ndb):
        count = min(params.ndb, params.nq - offset)
        names = []
        for slot in range(count):
            query = offset + slot
            if query < misses:
                names.append("ndn:/bench/%d/q%d" % (slot, query))
            else:
                names.append(warm_names[slot])
        for result in substrate.get_many([{"name": n} for n in names],
                                         window=count):
            if isinstance(result, Exception):
                raise result
        substrate.advance(count * handler_share)
    if stats is not None:
        stats["producerCalls"] = sum(node.counters["producerCalls"]
                                     for node in network.nodes.values())
    return substrate.now_ms() - started


def bench_run(scenario: BenchScenario) -> list:
    """Run every sweep point; returns measured-vs-predicted BenchPoints."""
    points = []
    for value in scenario.sweep_values:
        params = scenario.point(value)
        points.append(BenchPoint(value, _simulate_batch(params),
                                 batch_duration(params)))
    return points


def to_csv(points) -> str:
    lines = ["sweepValue,measuredMs,predictedMs,relErr"]
    for point in points:
        lines.append("%s,%.6f,%.6f,%.6f" % (point.sweep_value,
                                            point.measured_ms,
                                            point.predicted_ms,
                                            point.rel_err))
    return "\n".join(lines) + "\n"
