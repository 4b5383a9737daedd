"""Whole CLI reports and error objects, compared with the golden files in tests/golden/.

``tests/golden/regenerate.py`` holds the cases and rewrites the files.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import commat

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def assert_matches(actual, expected, where="report"):
    """Keys, strings, booleans, integers and None equal, floats within 1e-12 * max(1, |x|):
    CI runs two Pythons with unpinned numpy, so exact float bytes would not be portable."""
    assert type(actual) is type(expected), where
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key, value in expected.items():
            assert_matches(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert abs(actual - expected) <= 1e-12 * max(1.0, abs(expected)), (where, actual, expected)
    else:
        assert actual == expected, where


def _golden(case: str) -> dict:
    return json.loads((GOLDEN / "reports" / f"{case}.json").read_text())


def _complex(pairs) -> np.ndarray:
    pairs = np.array(pairs)
    return pairs[..., 0] + 1j * pairs[..., 1]


def _matrix(m: dict) -> np.ndarray:
    return _complex(m["entries"]).reshape(m["rows"], m["cols"])


def _invariants(channel: dict):
    """Replace a channel's Bloch matrix by its singular values and its Choi matrix by
    its eigenvalues."""
    bloch = _matrix(channel["bloch_matrix"]).real
    channel["bloch_matrix"] = np.linalg.svd(bloch, compute_uv=False).tolist()
    channel["choi"] = np.linalg.eigvalsh(_matrix(channel["choi"])).tolist()


def _comparable(doc: dict) -> dict:
    """``doc`` without ``inputs.*.path``, and with each value that rounding may pick
    from a family of equally valid answers replaced by invariants of that family.

    The self-test fixes its canonical vectors, and so the gauge route's channel,
    only up to a global unitary or antiunitary, and rounding picks which one: under
    another OpenBLAS kernel (``OPENBLAS_CORETYPE=Haswell``) sic-qubit's canonical
    vectors come out in another gauge.  So the vectors are compared through their
    squared overlaps, and that channel through the singular values of its Bloch
    matrix and the eigenvalues of its Choi matrix.  Kernel bases and witnesses
    come from an SVD, which fixes a basis only up to a rotation and a vector only
    up to its sign: the bases are compared as the projector K^T K, and the
    witness W of an indistinguishable pair as vec(W) vec(W)^dag.  Flipping W
    swaps phi2's two effects, so phi2 is compared through the same invariants as
    the gauge channel; phi1 depends on the sign only through tr(W), which is
    zero on the fixtures.
    """
    for entry in doc.get("inputs", {}).values():
        del entry["path"]
    result = doc.get("result", {})
    test = result.get("self_test")
    if test and test["canonical_vectors"] is not None:
        v = _complex(test["canonical_vectors"])
        test["canonical_vectors"] = (np.abs(v.conj() @ v.T) ** 2).tolist()
    if result.get("mode") == "gauge":
        _invariants(result["channel"])
    verdict = result.get("verdict", {})
    for key in ("kernel_basis", "reference_kernel_basis"):
        if verdict.get(key):
            k = np.array(verdict[key])
            verdict[key] = (k.T @ k).tolist()
    if "witness_operator" in result:
        w = _matrix(result["witness_operator"]).ravel()
        outer = np.outer(w, w.conj())
        result["witness_operator"] = [outer.real.tolist(), outer.imag.tolist()]
        _invariants(result["phi2"])
    return doc


@pytest.mark.parametrize("case", regenerate.CASES)
def test_report_matches_its_golden_file(case, monkeypatch):
    expected_code, argv = regenerate.CASES[case]
    monkeypatch.chdir(GOLDEN)
    code, doc = regenerate.run(argv)
    assert code == expected_code
    assert_matches(_comparable(doc), _comparable(_golden(case)))


@pytest.mark.parametrize(
    "actual, expected, same",
    [
        (1.0 + 1e-13, 1.0, True),
        (1.0 + 1e-11, 1.0, False),
        (1e-30, 0.0, True),
        (1, 1.0, False),
        (True, 1, False),
        ({"a": 1, "b": 2}, {"a": 1}, False),
        ([0.5, "x"], [0.5, "y"], False),
    ],
)
def test_comparison_rule(actual, expected, same):
    try:
        assert_matches(actual, expected)
    except AssertionError:
        assert not same
    else:
        assert same


@pytest.mark.parametrize("case", ["error-not-a-state", "error-frame-deficient"])
def test_module_entry_point_exits_with_the_error_code(case):
    # ``python -m commat.cli`` exits with main's code and writes one JSON object to stderr
    code, argv = regenerate.CASES[case]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(commat.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "commat.cli", *argv],
        cwd=GOLDEN,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (code, "")
    assert_matches(json.loads(proc.stderr), _golden(case))
