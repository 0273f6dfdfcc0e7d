"""The traced benchmark patches library functions by name: each must still exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_traced_layers_resolve_in_library(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    layers = [(module, attr) for module, attr, _ in tracer.LAYERS.values()]
    assert layers
    assert [(module, attr) for module, attr in layers
            if not callable(getattr(importlib.import_module(module), attr, None))] == []
