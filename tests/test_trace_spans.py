"""The benchmark tracer's layer spans name functions that exist in the package.

The tracer leaves a span whose function is gone unmeasured rather than failing
the run, so a renamed layer function would read 0 in its per-layer metric.
This reads the span table from ``benchmarks/tracing.py`` and resolves each
entry the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_tracing_spans", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _tracing()
TARGETS = [(module, path) for _, module, path in _TRACING.LAYER_SPANS] + [_TRACING.QUAD_TARGET]


@pytest.mark.parametrize("module, path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_span_target_resolves(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
