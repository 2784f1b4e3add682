"""The benchmark's tracer patches library names; each must still exist."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the targets; patches nothing
    return module


tracing = _tracing()


@pytest.mark.parametrize("owner, key, name", tracing.TARGETS, ids=[t[2] for t in tracing.TARGETS])
def test_every_trace_target_resolves_to_a_callable(owner, key, name):
    assert callable(tracing._get(owner, key)), name
