"""Rewrite the golden CLI inputs and reports in this directory from the current code.

    PYTHONPATH=src python tests/golden/regenerate.py

Each case in ``CASES`` runs ``commat.cli.main`` in process, from this
directory, on the files under ``inputs/``, and ``reports/<case>.json`` holds
what it printed: the report of a command that exits 0, or the error object
of one that fails.  ``tests/test_golden.py`` makes the same runs and compares
them with these files.  The script first rewrites ``inputs/`` from the
fixtures, so the ``sha256`` of every input stays the same while the fixtures
do.  A change that moves a report says which values moved in CHANGES.md.
"""

import contextlib
import copy
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from commat import Scenario, bloch_basis, comm_matrix_with_channel  # noqa: E402
from commat.cli import main  # noqa: E402
from commat.serialize import (  # noqa: E402
    comm_matrix_to_json,
    dumps,
    scenario_from_json,
    scenario_to_json,
)
from conftest import epsilon_panel_states  # noqa: E402

FIXTURES = ("sic-qubit", "d3-trine", "eb-six-state")
SIC, DAMPED, CPRIME = "inputs/sic-qubit.json", "inputs/sic-damped.json", "inputs/sic-damped-cprime.json"
SIX, SIX_CPRIME = "inputs/eb-six-state.json", "inputs/six-state-damped-cprime.json"

# case: (exit code, argv); C' is that of amplitude_damping(0.3) on sic-qubit, or on eb-six-state
CASES = {
    **{
        f"analyze-{name}": (0, ["analyze", "--scenario", f"inputs/{name}.json"])
        for name in (*FIXTURES, "sic-damped")
    },
    **{
        f"tomography-{mode}": (0, ["tomography", "--mode", mode, "--scenario", SIC, "--cprime", CPRIME])
        for mode in ("full", "unital", "gauge")
    },
    "properties-unitality": (
        0, ["properties", "--check", "unitality", "--scenario", SIC, "--cprime", CPRIME]
    ),
    # the six states are linearly dependent, and their dependences make no channel unital
    "properties-unitality-six-state": (
        0, ["properties", "--check", "unitality", "--scenario", SIX, "--cprime", SIX_CPRIME]
    ),
    "properties-eb": (0, ["properties", "--check", "eb", "--scenario", SIX]),
    "properties-witness": (0, ["properties", "--check", "witness", "--scenario", "inputs/d3-trine.json"]),
    "error-not-a-state": (2, ["analyze", "--scenario", "inputs/bad-state.json"]),
    "error-invalid-povm": (2, ["analyze", "--scenario", "inputs/bad-povm.json"]),
    "error-tol-rank": (2, ["analyze", "--scenario", SIC, "--tol-rank", "nan"]),
    # the states' condition number 1.8e7: sigma_min/sigma_max 5.6e-8 is below RANK_REL_TOL
    "error-frame-deficient": (
        3, ["tomography", "--mode", "full", "--scenario", "inputs/near-dependent.json", "--cprime", CPRIME]
    ),
}


def run(argv: list) -> tuple:
    """Exit code of ``main(argv)`` and the one JSON document it printed: the report on
    stdout, or the error object on stderr; the other stream must stay empty."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    printed, silent = (out, err) if code == 0 else (err, out)
    assert silent.getvalue() == "", argv
    return code, json.loads(printed.getvalue())


def write_inputs():
    def write(path, doc):
        Path(path).write_text(dumps(doc) + "\n")

    for name in FIXTURES:
        assert run(["fixtures", name, "--out", f"inputs/{name}.json"])[0] == 0
    sic = json.loads(Path(SIC).read_text())
    damped = {**sic, "channel": {"kind": "named", "name": "amplitude_damping(0.3)"}}
    write(DAMPED, damped)
    write(CPRIME, comm_matrix_to_json(comm_matrix_with_channel(scenario_from_json(damped))))
    six = {**json.loads(Path(SIX).read_text()), "channel": damped["channel"]}
    write(SIX_CPRIME, comm_matrix_to_json(comm_matrix_with_channel(scenario_from_json(six))))
    bad_state = copy.deepcopy(sic)
    bad_state["states"][2]["entries"] = [[1.5, 0], [0, 0], [0, 0], [-0.5, 0]]
    write("inputs/bad-state.json", bad_state)
    # two faulty effects: eigenvalue 1.5 in effect 0, eigenvalue -0.5 in effect 1
    bad_povm = copy.deepcopy(sic)
    bad_povm["povm"][0]["entries"] = [[1.5, 0], [0, 0], [0, 0], [0, 0]]
    bad_povm["povm"][1]["entries"] = [[-0.5, 0], [0, 0], [0, 0], [1, 0]]
    write("inputs/bad-povm.json", bad_povm)
    states = epsilon_panel_states(bloch_basis(2), 1e-7)
    near = Scenario(states=states, povm=scenario_from_json(sic).povm)
    write("inputs/near-dependent.json", scenario_to_json(near))


if __name__ == "__main__":
    os.chdir(HERE)
    write_inputs()
    for case, (expected, argv) in CASES.items():
        code, doc = run(argv)
        if code != expected:
            sys.exit(f"{case}: commat {' '.join(argv)} exited {code}, expected {expected}")
        Path(f"reports/{case}.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
