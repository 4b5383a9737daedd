"""Command-line behavior: envelopes, determinism, exit codes, error objects."""

import json

import numpy as np
import pytest

from commat import (
    Scenario,
    bloch_basis,
    comm_matrix_with_channel,
    identity_channel,
    sic_qubit,
    unitary_channel,
)
from commat.cli import main
from commat.serialize import comm_matrix_to_json


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


def test_analyze_sic(sic_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", "--scenario", str(sic_file), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "commat-report/1"
    assert report["result"]["rank"] == 4
    assert report["result"]["storability"] == pytest.approx(2.0)
    assert report["result"]["self_test"]["passes"] is True
    assert report["result"]["completeness"]["states_complete"] is True
    assert report["inputs"]["scenario"]["sha256"]


def test_analyze_trine(tmp_path):
    fixture = tmp_path / "trine.json"
    report = tmp_path / "report.json"
    assert main(["fixtures", "d3-trine", "--out", str(fixture)]) == 0
    assert main(["analyze", "--scenario", str(fixture), "--out", str(report)]) == 0
    result = json.loads(report.read_text())["result"]
    assert result["rank"] == 3
    assert result["completeness"]["states_complete"] is False


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


def test_tomography_frame_deficient(tmp_path, identity_cprime_file):
    trine = tmp_path / "trine.json"
    assert main(["fixtures", "d3-trine", "--out", str(trine)]) == 0
    code = main(
        ["tomography", "--scenario", str(trine), "--cprime", str(identity_cprime_file)]
    )
    assert code == 3


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


def test_properties_eb_on_fixture(tmp_path):
    eb_file = tmp_path / "eb.json"
    out = tmp_path / "ebreport.json"
    assert main(["fixtures", "eb-six-state", "--out", str(eb_file)]) == 0
    code = main(
        [
            "properties",
            "--scenario",
            str(eb_file),
            "--check",
            "eb",
            "--restarts",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    cert = json.loads(out.read_text())["result"]["certificate"]
    assert cert["verdict"] == "certified-EB-implementable"
    assert cert["inner_dim"] == 4


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
