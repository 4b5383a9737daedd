"""The benchmark's tracer wraps commat functions by name: each one must still exist."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    missing = [
        f"{module}.{function}"
        for module, function in tracer.TRACED
        if not callable(getattr(importlib.import_module(f"commat.{module}"), function, None))
    ]
    assert missing == []
