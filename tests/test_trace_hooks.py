"""What the tests share with the benchmark, whose modules they load from bench/ by path.

The tracer wraps commat functions by name, so each one must still exist.  And
``conftest.rank1_setup`` copies ``oracles.rank1_setup``, so that a generator
seed names one set-up in the tests' pins and in the benchmark.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from conftest import rank1_setup

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module(name)


def test_every_traced_function_resolves(monkeypatch):
    tracer = _bench_module(monkeypatch, "tracer")
    missing = [
        f"{module}.{function}"
        for module, function in tracer.TRACED
        if not callable(getattr(importlib.import_module(f"commat.{module}"), function, None))
    ]
    assert missing == []


@pytest.mark.parametrize("d, n, seed", [(3, 9, 0), (3, 10, 0), (3, 9, 4), (2, 6, 0)])
def test_rank1_setup_is_the_benchmarks(monkeypatch, d, n, seed):
    oracles = _bench_module(monkeypatch, "oracles")
    ours = rank1_setup(np.random.default_rng(seed), d, n)
    theirs = oracles.rank1_setup(np.random.default_rng(seed), d, n)
    assert all(map(np.array_equal, ours, theirs))
