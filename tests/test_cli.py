"""Command-line behavior: envelopes, determinism, exit codes, error objects."""

import inspect
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from commat import (
    Scenario,
    amplitude_damping_channel,
    bloch_basis,
    comm_matrix,
    comm_matrix_with_channel,
    depolarizing_channel,
    eb_certificate,
    eb_example,
    identity_channel,
    sic_qubit,
    state_from_bloch,
    state_from_matrix,
    trine_qubit,
    unitary_channel,
    validate_povm,
)
from commat.cli import main
from commat.errors import AmbiguityError
from commat.sampling import random_channel
from commat.serialize import comm_matrix_to_json, scenario_to_json
from conftest import epsilon_panel_states, make_random_setup, rank1_scenario, sampled


@pytest.fixture
def sic_file(tmp_path):
    path = tmp_path / "sic.json"
    assert main(["fixtures", "sic-qubit", "--out", str(path)]) == 0
    return path


@pytest.fixture
def identity_cprime_file(tmp_path):
    states, povm = sic_qubit()
    cp = comm_matrix_with_channel(
        Scenario(states=states, povm=povm, channel=identity_channel(bloch_basis(2)))
    )
    path = tmp_path / "cp.json"
    path.write_text(json.dumps(comm_matrix_to_json(cp)))
    return path


def _scenario_files(tmp_path, name, scenario, cprime=None) -> tuple:
    """Paths of name.json, the scenario without its channel, and of name-cprime.json,
    ``cprime`` or else the scenario's C'."""
    scenario_path, cprime_path = tmp_path / f"{name}.json", tmp_path / f"{name}-cprime.json"
    if cprime is None:
        cprime = comm_matrix_with_channel(scenario)
    bare = Scenario(states=scenario.states, povm=scenario.povm)
    scenario_path.write_text(json.dumps(scenario_to_json(bare)))
    cprime_path.write_text(json.dumps(comm_matrix_to_json(cprime)))
    return str(scenario_path), str(cprime_path)


@pytest.mark.parametrize(
    "setup, rank, restarts",
    [
        ("sic-qubit", 4, 1),
        # the benchmark's qutrit (3, 9, 0): its first self-test start misses and the
        # first batch of 8 certifies, so the report reads 1 + 8 = 9 restarts
        ((3, 9, 0), 9, 9),
    ],
    ids=["sic-qubit", "rank1-3-9-0"],
)
def test_analyze_self_tests(sic_file, tmp_path, setup, rank, restarts):
    scenario = sic_file
    if setup != "sic-qubit":
        scenario = tmp_path / "rank1.json"
        d, n, seed = setup
        rank1 = rank1_scenario(np.random.default_rng(seed), d, n)
        scenario.write_text(json.dumps(scenario_to_json(rank1)))
    out = tmp_path / "report.json"
    assert main(["analyze", "--scenario", str(scenario), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "commat-report/1"
    assert report["result"]["rank"] == rank
    assert report["result"]["storability"] == pytest.approx(np.sqrt(rank))
    assert report["result"]["self_test"]["passes"] is True
    assert report["result"]["self_test"]["restarts"] == restarts
    assert report["result"]["completeness"]["states_complete"] is True
    assert report["inputs"]["scenario"]["sha256"]


def test_analyze_pairs_reversed_states_with_their_effects(sic_file, tmp_path, capsys):
    scenario = json.loads(sic_file.read_text())
    scenario["states"].reverse()
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(scenario))
    assert main(["analyze", "--scenario", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]["self_test"]
    assert result["passes"] is True
    assert result["pairing"] == [3, 2, 1, 0]


def test_analyze_trine(tmp_path):
    fixture = tmp_path / "trine.json"
    report = tmp_path / "report.json"
    assert main(["fixtures", "d3-trine", "--out", str(fixture)]) == 0
    assert main(["analyze", "--scenario", str(fixture), "--out", str(report)]) == 0
    result = json.loads(report.read_text())["result"]
    assert result["rank"] == 3
    assert result["completeness"]["states_complete"] is False


def test_analyze_keeps_its_results_when_the_self_test_refuses(tmp_path):
    # states |0>, I/2, |1> and effects |0><0|/2, |0><0|/2, |1><1|: C = [[.5, .5, 0],
    # [.25, .25, .5], [0, 0, 1]] has storability 2 = d, but no one-to-one pairing attains it
    basis = bloch_basis(2)
    p0, p1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    states = tuple(state_from_matrix(basis, m) for m in (p0, np.eye(2) / 2, p1))
    scenario = Scenario(states=states, povm=validate_povm([p0 / 2, p0 / 2, p1]))
    path, out = tmp_path / "unpaired.json", tmp_path / "report.json"
    path.write_text(json.dumps(scenario_to_json(scenario)))
    assert main(["analyze", "--scenario", str(path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["self_test"]["code"] == "not-self-testable"
    assert "no one-to-one pairing" in result["self_test"]["message"]
    assert (result["rank"], result["storability"]) == (2, 2.0)
    assert result["robustness"]["epsilon"] == 0.0


def test_determinism(sic_file, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["analyze", "--scenario", str(sic_file), "--seed", "99"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_tomography_full(sic_file, identity_cprime_file, tmp_path):
    out = tmp_path / "tomo.json"
    assert (
        main(
            [
                "tomography",
                "--scenario",
                str(sic_file),
                "--cprime",
                str(identity_cprime_file),
                "--mode",
                "full",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    payload = json.loads(out.read_text())["result"]["channel"]
    bloch = np.array([e[0] for e in payload["bloch_matrix"]["entries"]]).reshape(4, 4)
    assert np.abs(bloch - np.eye(4)).max() < 1e-9
    assert payload["cptp"]["is_cptp"] is True


def test_tomography_gauge(sic_file, tmp_path):
    states, povm = sic_qubit()
    sz = unitary_channel(bloch_basis(2), np.diag([1.0, -1.0]).astype(complex))
    cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=sz))
    cp_file = tmp_path / "cpz.json"
    cp_file.write_text(json.dumps(comm_matrix_to_json(cp)))
    out = tmp_path / "gauge.json"
    code = main(
        [
            "tomography",
            "--scenario",
            str(sic_file),
            "--cprime",
            str(cp_file),
            "--mode",
            "gauge",
            "--restarts",
            "8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    result = json.loads(out.read_text())["result"]
    assert result["self_test"]["passes"] is True
    assert "antiunitary" in result["gauge_note"]


@pytest.mark.parametrize("setup", ["d3-trine", "near-dependent"])
def test_tomography_frame_deficient(tmp_path, identity_cprime_file, setup, capsys):
    scenario = tmp_path / "scenario.json"
    if setup == "d3-trine":
        assert main(["fixtures", "d3-trine", "--out", str(scenario)]) == 0
    else:
        # the states' condition number 1.8e7: sigma_min/sigma_max 5.6e-8 is below RANK_REL_TOL
        _, povm = sic_qubit()
        states = epsilon_panel_states(bloch_basis(2), 1e-7)
        scenario.write_text(json.dumps(scenario_to_json(Scenario(states=states, povm=povm))))
    code = main(["tomography", "--mode", "full", "--scenario", str(scenario),
                 "--cprime", str(identity_cprime_file)])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["code"] == "frame-deficient"


def test_properties_unitality(sic_file, tmp_path):
    states, povm = sic_qubit()
    sz = unitary_channel(bloch_basis(2), np.diag([1.0, -1.0]).astype(complex))
    cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=sz))
    cp_file = tmp_path / "cpz.json"
    cp_file.write_text(json.dumps(comm_matrix_to_json(cp)))
    out = tmp_path / "unitality.json"
    code = main(
        [
            "properties",
            "--scenario",
            str(sic_file),
            "--cprime",
            str(cp_file),
            "--check",
            "unitality",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["result"]["verdict"]["verdict"] == "unital"


def test_properties_witness_on_complete_setup_fails(sic_file, capsys):
    code = main(["properties", "--scenario", str(sic_file), "--check", "witness"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "no-witness-exists"


# the trine states and a fourth state that leaves their plane by eps, with the SIC POVM:
# kappa ~ 2.4 / eps, so below eps ~ 2.4e-7 the states have a kernel vector under RANK_REL_TOL
PANEL_EPS = (1e-5, 3e-6, 1e-6, 3e-7, 1.5e-7, 1e-7, 1e-8, 3e-9, 1e-9, 1e-10, 1e-11, 1e-13)


def _trine_panel_states(basis, eps) -> tuple:
    return trine_qubit()[0] + (state_from_bloch(basis, np.array([0.3, eps, 0.2])),)


def test_witness_answers_no_witness_exactly_when_full_tomography_succeeds(tmp_path, capsys):
    # analyze's completeness, the witness and full tomography all see the states' kernel vector
    basis = bloch_basis(2)
    _, povm = sic_qubit()
    scenario, cprime = tmp_path / "scenario.json", tmp_path / "cprime.json"
    reconstructs = []
    for eps in PANEL_EPS:
        states = _trine_panel_states(basis, eps)
        scenario.write_text(json.dumps(scenario_to_json(Scenario(states=states, povm=povm))))
        cp = comm_matrix_with_channel(
            Scenario(states=states, povm=povm, channel=identity_channel(basis))
        )
        cprime.write_text(json.dumps(comm_matrix_to_json(cp)))
        witness = main(["properties", "--check", "witness", "--scenario", str(scenario)])
        err = capsys.readouterr().err
        full = main(["tomography", "--mode", "full", "--scenario", str(scenario),
                     "--cprime", str(cprime)])
        capsys.readouterr()
        assert main(["analyze", "--scenario", str(scenario)]) == 0, eps
        completeness = json.loads(capsys.readouterr().out)["result"]["completeness"]
        assert 4 not in (witness, full), eps
        no_witness = witness == 3 and json.loads(err)["code"] == "no-witness-exists"
        assert no_witness == (full == 0) == completeness["states_complete"], eps
        if full == 0:
            reconstructs.append(eps)
    assert reconstructs == [1e-5, 3e-6, 1e-6, 3e-7]


def test_unitality_and_the_channel_claim_are_right_on_the_panel(tmp_path, capsys):
    # unitality needs the complete SIC measurement only, so it decides at every eps, also at
    # eps = 0; 2e-7 and 2.5e-7 lie between the panel's 1.5e-7 and 3e-7, where the states'
    # sigma_min/sigma_max crosses RANK_REL_TOL (at 1.5e-7 it is 6.3e-8, and that of
    # C0^T - C^T 1.1e-7): a near-dependence of the states must not read as a fixed point
    basis = bloch_basis(2)
    _, povm = sic_qubit()
    channels = {
        "identity": (identity_channel(basis), "unital"),
        "sigma_z": (unitary_channel(basis, np.diag([1.0, -1.0]).astype(complex)), "unital"),
        "depolarizing(0.5)": (depolarizing_channel(basis, 0.5), "unital"),
        "amplitude_damping(0.3)": (amplitude_damping_channel(basis, 0.3), "non-unital"),
        "amplitude_damping(1)": (amplitude_damping_channel(basis, 1.0), "non-unital"),
    }
    scenario, cprime = tmp_path / "scenario.json", tmp_path / "cprime.json"
    reconstructs, certifies = [], []
    for eps in sorted(PANEL_EPS + (2.5e-7, 2e-7, 0.0), reverse=True):
        states = _trine_panel_states(basis, eps)
        scenario.write_text(json.dumps(scenario_to_json(Scenario(states=states, povm=povm))))
        for name, (channel, truth) in channels.items():
            cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=channel))
            cprime.write_text(json.dumps(comm_matrix_to_json(cp)))
            assert main(["properties", "--check", "unitality", "--scenario", str(scenario),
                         "--cprime", str(cprime)]) == 0, (eps, name)
            verdict = json.loads(capsys.readouterr().out)["result"]["verdict"]["verdict"]
            assert verdict == truth, (eps, name)
        full = main(["tomography", "--mode", "full", "--scenario", str(scenario),
                     "--cprime", str(cprime)])
        capsys.readouterr()
        assert full in (0, 3), eps
        if full == 0:
            reconstructs.append(eps)
        c = comm_matrix(states, povm)
        cp = comm_matrix_with_channel(
            Scenario(states=states, povm=povm, channel=depolarizing_channel(basis, 0.9))
        )
        try:
            cert = eb_certificate(c, cp, 2, l_max=4, claim="channel")
        except AmbiguityError as exc:
            assert str(exc).startswith("states span only 3 of 4 dimensions: "), eps
        else:
            assert cert.verdict == "certified-EB-implementable", eps
            certifies.append(eps)
    assert certifies == reconstructs == [1e-5, 3e-6, 1e-6, 3e-7, 2.5e-7]


@pytest.mark.parametrize("channel, verdict, witness_trace", [
    # the six states are linearly dependent: their dependences fix no operator
    ("amplitude_damping(0.3)", "non-unital", None),
    # they sum to 3 I, the witness
    ("identity", "unital", 6.0),
])
def test_properties_unitality_on_dependent_states(tmp_path, channel, verdict, witness_trace):
    scenario = tmp_path / "six.json"
    assert main(["fixtures", "eb-six-state", "--out", str(scenario)]) == 0
    doc = json.loads(scenario.read_text())
    doc["channel"] = {"kind": "named", "name": channel}
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "unitality.json"
    assert main(["properties", "--check", "unitality", "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]["verdict"]
    assert result["verdict"] == verdict
    witness = result["fixed_point_witness"]
    if witness_trace is None:
        assert witness is None
    else:
        entries = np.array(witness["entries"])[:, 0].reshape(2, 2)
        assert np.abs(entries - witness_trace / 2.0 * np.eye(2)).max() < 1e-10


@pytest.mark.parametrize(
    "channel, verdict, restarts",
    [
        # eb-six-state carries its measure-and-prepare realization: no search runs
        (None, "certified-EB-implementable", 0),
        # sic-qubit through depolarizing(0.8), which is EB: the first start certifies
        ("depolarizing(0.8)", "certified-EB-implementable", 1),
        # and through the identity, which is not: the search runs its whole default budget
        ("identity", "no-certificate-found", 32),
    ],
    ids=["eb-six-state", "depolarizing", "identity"],
)
def test_properties_eb_on_fixture(sic_file, tmp_path, channel, verdict, restarts):
    scenario = tmp_path / "eb.json"
    if channel is None:
        assert main(["fixtures", "eb-six-state", "--out", str(scenario)]) == 0
    else:
        doc = json.loads(sic_file.read_text())
        doc["channel"] = {"kind": "named", "name": channel}
        scenario.write_text(json.dumps(doc))
    out = tmp_path / "ebreport.json"
    assert main(["properties", "--scenario", str(scenario), "--check", "eb", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())["result"]["certificate"]
    assert (cert["verdict"], cert["restarts"], cert["inner_dim"]) == (verdict, restarts, 4)


def test_malformed_json_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["analyze", "--scenario", str(bad)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "parse-error"
    assert "line" in err["message"]


def test_malformed_state_matrix_names_index(tmp_path, sic_file, capsys):
    doc = json.loads(sic_file.read_text())
    doc["states"][2]["entries"] = doc["states"][2]["entries"][:-1]
    bad = tmp_path / "badstate.json"
    bad.write_text(json.dumps(doc))
    code = main(["analyze", "--scenario", str(bad)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "states[2]" in err["message"]


def test_unknown_fixture_lists_available(tmp_path, capsys):
    code = main(["fixtures", "bogus", "--out", str(tmp_path / "x.json")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "unknown-fixture"
    assert "sic-qubit" in err["details"]["available"]


def test_nonfinite_cprime_is_validation_error(sic_file, identity_cprime_file, tmp_path, capsys):
    doc = json.loads(identity_cprime_file.read_text())
    doc["comm_matrix"]["entries"][0][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    assert "NaN" in bad.read_text()
    code = main(["tomography", "--scenario", str(sic_file), "--cprime", str(bad)])
    assert code == 2
    assert "finite" in json.loads(capsys.readouterr().err)["message"]


def test_fixture_scenario_round_trip(tmp_path):
    # the written fixture reproduces its certification values through the CLI
    eb_file = tmp_path / "eb.json"
    report = tmp_path / "r.json"
    assert main(["fixtures", "eb-six-state", "--out", str(eb_file)]) == 0
    assert main(["analyze", "--scenario", str(eb_file), "--out", str(report)]) == 0
    result = json.loads(report.read_text())["result"]
    assert result["rank"] == 4
    assert "comm_matrix_with_channel" in result


@pytest.mark.parametrize("check", [None, "eb"])
@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_restart_budget_below_one_is_validation_error(
    sic_file, identity_cprime_file, check, restarts, capsys
):
    argv = ["analyze"]
    if check:
        argv = ["properties", "--check", check, "--cprime", str(identity_cprime_file)]
    code = main(argv + ["--scenario", str(sic_file), "--restarts", restarts])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "validation-error"
    assert "restarts" in err["message"]


@pytest.mark.parametrize("check", [None, "eb"])
@pytest.mark.parametrize("seed", ["-1", "-5"])
def test_negative_seed_is_validation_error(sic_file, identity_cprime_file, check, seed, capsys):
    # numpy's generator used to reject it mid-search, which exited 4 as a numerical failure
    argv = ["analyze"]
    if check:
        argv = ["properties", "--check", check, "--cprime", str(identity_cprime_file)]
    code = main(argv + ["--scenario", str(sic_file), "--seed", seed])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "validation-error"
    assert "seed" in err["message"]


def _record(monkeypatch, module, name, parameter, seen):
    """Wrap module.name so that seen[name] holds the value of one parameter in its last call."""
    original = getattr(module, name)
    signature = inspect.signature(original)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen[name] = bound.arguments[parameter]
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)


def test_analyze_uses_the_reported_tolerances(sic_file, identity_cprime_file, tmp_path, monkeypatch):
    import commat.cli as cli
    import commat.tomography as tomography

    seen = {}
    # the rank and span dimensions of the report come from certify_info_completeness
    _record(monkeypatch, cli, "certify_info_completeness", "rel_tol", seen)
    _record(monkeypatch, cli, "self_test", "residual_tol", seen)
    out = tmp_path / "report.json"
    argv = ["analyze", "--scenario", str(sic_file), "--tol-rank", "1e-7", "--tol-fit", "1e-6"]
    assert main(argv + ["--out", str(out)]) == 0
    tolerances = json.loads(out.read_text())["tolerances"]
    assert seen == {
        "certify_info_completeness": tolerances["tol_rank"], "self_test": tolerances["tol_fit"]
    }
    assert seen == {"certify_info_completeness": 1e-7, "self_test": 1e-6}

    # the other two commands whose --tol-fit reaches a search
    cp = str(identity_cprime_file)
    for argv, module, name in (
        (["tomography", "--mode", "gauge", "--cprime", cp], tomography, "self_test"),
        (["properties", "--check", "eb", "--cprime", cp, "--restarts", "1"], cli, "eb_certificate"),
    ):
        seen.clear()
        _record(monkeypatch, module, name, "residual_tol", seen)
        assert main(argv + ["--scenario", str(sic_file), "--tol-fit", "1e-5", "--out", str(out)]) == 0
        tolerances = json.loads(out.read_text())["tolerances"]
        assert seen == {name: tolerances["tol_fit"]} == {name: 1e-5}


def _subcommand_options():
    """Per subcommand, the sorted option strings (positionals by name) it accepts."""
    import argparse

    from commat.cli import _build_parser

    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: sorted(opt for a in p._actions if a.dest != "help" for opt in a.option_strings or [a.dest])
        for name, p in sub.choices.items()
    }


def test_each_subcommand_accepts_only_the_options_it_reads():
    run = ["--out", "--restarts", "--seed", "--tol-fit"]
    assert _subcommand_options() == {
        "analyze": sorted(run + ["--scenario", "--tol-rank"]),
        "tomography": sorted(run + ["--scenario", "--cprime", "--mode"]),
        "properties": sorted(run + ["--scenario", "--cprime", "--check", "--l-max"]),
        "fixtures": ["--out", "name"],
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["fixtures", "sic-qubit", "--out", "s.json", "--seed", "1"],
        ["tomography", "--scenario", "s.json", "--cprime", "c.json", "--tol-rank", "1e-7"],
        ["tomography", "--scenario", "s.json", "--cprime", "c.json", "--frame", "f.json"],
    ],
)
def test_removed_option_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and argv[-2] in err


def test_fixtures_report_has_no_seed_or_tolerances(tmp_path, capsys):
    assert main(["fixtures", "sic-qubit", "--out", str(tmp_path / "s.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["seed"], report["tolerances"]) == (None, {})
    assert report["result"] == {"fixture": "sic-qubit", "written": str(tmp_path / "s.json")}


@pytest.mark.parametrize("flag", ["--tol-rank", "--tol-fit"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_bad_tolerance_is_validation_error(sic_file, flag, value, capsys):
    code = main(["analyze", "--scenario", str(sic_file), flag, value])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err)
    assert err["code"] == "validation-error"
    assert flag in err["message"]


def test_tol_rank_of_one_is_validation_error(sic_file, capsys):
    assert main(["analyze", "--scenario", str(sic_file), "--tol-rank", "1"]) == 2
    assert "--tol-rank" in json.loads(capsys.readouterr().err)["message"]


def test_nan_in_a_result_is_a_numerical_failure(sic_file, monkeypatch, capsys):
    import commat.cli as cli

    monkeypatch.setattr(cli, "cmd_analyze", lambda *args: {"storability": float("nan")})
    assert main(["analyze", "--scenario", str(sic_file)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["code"] == "internal-numerical-failure"


def test_each_input_is_read_once_and_hashed(sic_file, identity_cprime_file, tmp_path, monkeypatch):
    import builtins
    import hashlib

    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    out = tmp_path / "report.json"
    argv = ["tomography", "--scenario", str(sic_file), "--cprime", str(identity_cprime_file)]
    assert main(argv + ["--out", str(out)]) == 0
    assert opened.count(str(sic_file)) == 1
    assert opened.count(str(identity_cprime_file)) == 1
    inputs = json.loads(out.read_text())["inputs"]
    for role, path in (("scenario", sic_file), ("cprime", identity_cprime_file)):
        assert inputs[role] == {
            "path": str(path),
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        }


def test_analyze_to_an_unwritable_out_is_validation_error(sic_file, tmp_path, capsys):
    out = tmp_path / "nodir" / "r.json"
    assert main(["analyze", "--scenario", str(sic_file), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "validation-error"
    assert str(out) in err["message"]


def test_fixtures_to_an_unwritable_out_is_validation_error(tmp_path, capsys):
    out = tmp_path / "nodir" / "r.json"
    assert main(["fixtures", "sic-qubit", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "validation-error"
    assert str(out) in err["message"]


@pytest.mark.parametrize("case", ["directory", "not-text"])
def test_an_unreadable_input_file_is_parse_error(tmp_path, case, capsys):
    path = tmp_path
    if case == "not-text":  # bytes that are not UTF-8, -16 or -32 text
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\x80\x81\x82\x83 {")
    assert main(["analyze", "--scenario", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "parse-error"
    assert err["message"].startswith(f"scenario file {path} ")


def _analyze_edited(sic_file, tmp_path, edit, capsys):
    """Exit code and error object of analyze on the sic fixture after edit(doc)."""
    doc = json.loads(sic_file.read_text())
    edit(doc)
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(doc))
    code = main(["analyze", "--scenario", str(bad)])
    return code, json.loads(capsys.readouterr().err)


def test_string_matrix_entry_is_parse_error(sic_file, tmp_path, capsys):
    def edit(doc):
        doc["states"][0]["entries"][0][0] = "x"

    code, err = _analyze_edited(sic_file, tmp_path, edit, capsys)
    assert code == 2
    assert err["code"] == "parse-error"
    assert "states[0]" in err["message"]


def test_povm_with_two_faulty_effects_names_the_first(sic_file, tmp_path, capsys):
    def edit(doc):
        doc["povm"][0]["entries"] = [[1.5, 0], [0, 0], [0, 0], [0, 0]]
        doc["povm"][1]["entries"] = [[-0.5, 0], [0, 0], [0, 0], [1, 0]]

    code, err = _analyze_edited(sic_file, tmp_path, edit, capsys)
    assert code == 2
    assert err["code"] == "invalid-povm"
    assert err["message"] == "effect 0 has eigenvalue 1.500000 above 1"


def test_non_integer_repeat_is_parse_error(sic_file, tmp_path, capsys):
    def edit(doc):
        doc["repeat"] = "two"

    code, err = _analyze_edited(sic_file, tmp_path, edit, capsys)
    assert code == 2
    assert err["code"] == "parse-error"
    assert "repeat" in err["message"]


@pytest.mark.parametrize("value", [2.5, True, "2"])
@pytest.mark.parametrize("field", ["dim_in", "dim_out", "rows", "cols", "repeat"])
def test_integer_field_that_is_not_an_integer_is_parse_error(
    sic_file, tmp_path, field, value, capsys
):
    # a truncating read would take 2.5 for 2 and true for 1
    def edit(doc):
        (doc["states"][0] if field in ("rows", "cols") else doc)[field] = value

    code, err = _analyze_edited(sic_file, tmp_path, edit, capsys)
    assert code == 2
    assert err["code"] == "parse-error"
    assert field in err["message"]


@pytest.mark.parametrize("l_max", ["0", "-1"])
@pytest.mark.parametrize("realized", [True, False])
def test_l_max_below_one_is_validation_error(
    sic_file, identity_cprime_file, tmp_path, realized, l_max, capsys
):
    # eb-six-state carries its realization; sic-qubit with a C' file needs the search
    argv = ["--scenario", str(sic_file), "--cprime", str(identity_cprime_file)]
    if realized:
        argv = ["--scenario", str(tmp_path / "eb.json")]
        assert main(["fixtures", "eb-six-state", "--out", argv[1]]) == 0
    assert main(["properties", "--check", "eb", "--l-max", l_max] + argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "validation-error"
    assert "l_max" in err["message"]


def test_rank_above_l_max_is_precondition_error(sic_file, tmp_path, capsys):
    from commat import amplitude_damping_channel

    states, povm = sic_qubit()
    channel = amplitude_damping_channel(bloch_basis(2), 0.3)
    cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=channel))
    path = tmp_path / "ad.json"
    path.write_text(json.dumps(comm_matrix_to_json(cp)))
    argv = ["properties", "--check", "eb", "--scenario", str(sic_file), "--cprime", str(path)]
    assert main(argv + ["--l-max", "1"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "precondition-error"
    assert "rank(C') = 4 exceeds l_max = 1" in err["message"]


def test_infinite_matrix_entry_is_parse_error_without_warnings(sic_file, tmp_path, capsys):
    doc = json.loads(sic_file.read_text())
    doc["states"][0]["entries"][0][0] = 12345.5
    bad = tmp_path / "inf.json"
    bad.write_text(json.dumps(doc).replace("12345.5", "1e400"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", "--scenario", str(bad)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "parse-error"
    assert "states[0]" in err["message"] and "finite" in err["message"]


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["states"][0].update(entries=3),
        lambda doc: doc["states"][0].update(rows=-2, cols=-2),
        lambda doc: doc.update(states=3),
        lambda doc: doc.update(channel=[]),
        lambda doc: doc.update(channel={"kind": "kraus"}),
        lambda doc: doc.update(channel={"kind": "named", "name": 3}),
        lambda doc: doc.update(channel={"kind": "named", "name": "depolarizing(1e)"}),
    ],
    ids=[
        "entries-number",
        "negative-shape",
        "states-number",
        "channel-list",
        "kraus-missing",
        "name-number",
        "name-argument-not-a-number",
    ],
)
def test_malformed_scenario_structure_is_parse_error(sic_file, tmp_path, edit, capsys):
    code, err = _analyze_edited(sic_file, tmp_path, edit, capsys)
    assert code == 2
    assert err["code"] == "parse-error"


@pytest.fixture
def d6_files(tmp_path):
    """A seeded d = 6 scenario with 36 states and outcomes, and C' under a random channel."""
    rng = np.random.default_rng(6)
    basis = bloch_basis(6)
    states, povm = make_random_setup(basis, rng, 36, 36)
    channel = random_channel(basis, basis, rng)
    return _scenario_files(tmp_path, "d6", Scenario(states=states, povm=povm, channel=channel))


@pytest.fixture
def sampled_rank1_files(tmp_path):
    """The rank-1 qubit (2, 6, 0) set-up and its C' under amplitude_damping(0.3), sampled
    with 10^6 shots per row: its linear inversion is not CPTP."""
    damped = rank1_scenario(
        np.random.default_rng(0), 2, 6, amplitude_damping_channel(bloch_basis(2), 0.3)
    )
    cp_sampled = sampled(comm_matrix_with_channel(damped), 10**6, np.random.default_rng(0))
    return _scenario_files(tmp_path, "rank1", damped, cp_sampled)


def test_every_file_is_written_as_json_dumps_writes_it(
    tmp_path, identity_cprime_file, d6_files, sampled_rank1_files, monkeypatch
):
    import commat.cli as cli
    from commat import serialize

    written = []

    def checking(obj):
        text = serialize.dumps(obj)
        assert text == json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
        written.append(text)
        return text

    monkeypatch.setattr(cli, "dumps", checking)
    names = ("sic-qubit", "d3-trine", "eb-six-state")
    fixtures = {name: str(tmp_path / f"{name}.json") for name in names}
    sic, cp = fixtures["sic-qubit"], ["--cprime", str(identity_cprime_file)]
    scenario6, cprime6 = d6_files
    # six operators in four dimensions: over-complete frame sides, which take the SVD dual
    six = _scenario_files(tmp_path, "six", Scenario(*eb_example()[:3]))
    # and C' sampled with 10^6 shots per row, which the effects' exact identity row inverts
    rank1 = sampled_rank1_files
    runs = [
        *(["analyze", "--scenario", path] for path in fixtures.values()),
        *(["tomography", "--mode", mode, "--scenario", sic, *cp] for mode in ("full", "unital", "gauge")),
        *(["properties", "--check", check, "--scenario", sic, *cp] for check in ("unitality", "eb")),
        ["properties", "--check", "witness", "--scenario", fixtures["d3-trine"]],
        ["properties", "--check", "eb", "--scenario", fixtures["eb-six-state"]],
        ["tomography", "--mode", "full", "--scenario", scenario6, "--cprime", cprime6],
        ["tomography", "--mode", "full", "--scenario", six[0], "--cprime", six[1]],
        *(
            ["tomography", "--mode", mode, "--scenario", rank1[0], "--cprime", rank1[1]]
            for mode in ("full", "gauge")
        ),
        ["analyze", "--scenario", scenario6, "--restarts", "1"],
    ]
    for name, path in fixtures.items():
        assert main(["fixtures", name, "--out", path]) == 0
    for argv in runs:
        assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0, argv
    # each fixtures command writes a scenario file and a report
    assert len(written) == 2 * len(fixtures) + len(runs)


def test_main_runs_the_command_function_it_finds_at_call_time(sic_file, monkeypatch, capsys):
    import commat.cli as cli

    # sic_file ran main, which built the one parser of this process
    assert cli._build_parser() is cli._build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args, docs: seen.append(docs) or {"rank": 0})
    assert main(["analyze", "--scenario", str(sic_file)]) == 0
    assert [list(docs) for docs in seen] == [["scenario"]]
    assert json.loads(capsys.readouterr().out)["result"] == {"rank": 0}


def test_commands_that_run_no_fit_do_not_import_scipy_optimize(tmp_path):
    import commat

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(commat.__file__)))
    fixture = ["-m", "commat.cli", "fixtures", "sic-qubit", "--out", str(tmp_path / "sic.json")]
    six = str(tmp_path / "six.json")
    six_fixture = ["-m", "commat.cli", "fixtures", "eb-six-state", "--out", six]
    # a measure-and-prepare channel is checked through its realization, without a fit
    eb_check = ["-m", "commat.cli", "properties", "--check", "eb", "--scenario", six]
    for args in (["-c", "import commat"], fixture, six_fixture, eb_check):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *args],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        imported = {
            line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "commat.operators" in imported
        assert "scipy.optimize" not in imported, args


@pytest.mark.parametrize("mode", ["full", "gauge"])
def test_a_non_cptp_reconstruction_leaves_stderr_empty(sampled_rank1_files, mode):
    # the report carries the CPTP diagnostics; the library's warning stays off stderr
    import commat

    scenario, cprime = sampled_rank1_files
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(commat.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "commat.cli", "tomography", "--mode", mode,
         "--scenario", scenario, "--cprime", cprime, "--restarts", "8"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["result"]["channel"]["cptp"]["is_cptp"] is False
