"""The benchmark's hooks into the program.  `perfbench/` wraps functions
by name and calls engine methods; a refactor that moves one of them fails
here, in the repository's own suite, and not first in a benchmark run.
The test only reads `perfbench/`."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from ogb.engine import Engine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves_as_the_tracer_installs_it():
    targets = _tracer().Tracer("sim")._targets()
    assert targets
    for owner, attr, *_ in targets:
        # `Tracer.install` reads `owner.__dict__[attr]`: an inherited or
        # missing attribute would raise KeyError there.
        assert attr in owner.__dict__, (getattr(owner, "__name__", owner), attr)


def test_the_engine_keeps_the_cache_flush_the_benchmark_calls():
    assert "engine.clear_response_caches()" in (PERFBENCH / "deploy.py").read_text()
    assert callable(Engine.__dict__.get("clear_response_caches"))
