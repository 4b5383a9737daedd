"""JSON round trips for matrices, scenarios, channels and reports."""

import numpy as np
import pytest

from commat import (
    Scenario,
    bloch_basis,
    comm_matrix,
    eb_example,
    self_test,
    sic_qubit,
    noisy_antidist,
)
from commat.errors import ParseError
from commat.sampling import random_channel, random_mixed_state
from commat.serialize import (
    channel_from_json,
    channel_to_json,
    comm_matrix_from_json,
    comm_matrix_to_json,
    matrix_from_json,
    matrix_to_json,
    named_channel,
    scenario_from_json,
    scenario_to_json,
    to_jsonable,
)


def test_complex_matrix_round_trip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = matrix_from_json(matrix_to_json(m))
    assert np.abs(back - m).max() == 0.0


def test_matrix_entry_count_checked():
    with pytest.raises(ParseError, match="4 entries"):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})


def test_matrix_entry_shape_checked():
    with pytest.raises(ParseError, match="entry 1"):
        matrix_from_json({"rows": 1, "cols": 2, "entries": [[1.0, 0.0], [1.0]]})


def test_scenario_round_trip(basis2, rng):
    states, povm = sic_qubit()
    ch = random_channel(basis2, basis2, rng)
    scenario = Scenario(states=states, povm=povm, channel=ch, repeat=2)
    back = scenario_from_json(scenario_to_json(scenario))
    assert back.repeat == 2
    for a, b in zip(back.states, states):
        assert np.abs(a.matrix - b.matrix).max() < 1e-15
    assert np.abs(back.channel.choi - ch.choi).max() < 1e-12


def test_measure_prepare_channel_round_trip():
    states, povm, channel, _, _, _ = eb_example()
    doc = channel_to_json(channel)
    assert doc["kind"] == "measure_prepare"
    back = channel_from_json(doc, 2, 2)
    assert np.abs(back.choi - channel.choi).max() < 1e-12
    assert back.mp_realization is not None


@pytest.mark.parametrize("part, dims", [("states", (2, 3)), ("povm", (3, 2))])
def test_measure_prepare_operator_shapes_checked(part, dims):
    # a measure-prepare channel from dim_in to dim_out read with other dimensions
    _, _, channel, _, _, _ = eb_example()
    with pytest.raises(ParseError, match=rf"channel\.{part}\[0\] has shape"):
        channel_from_json(channel_to_json(channel), *dims)


def test_named_channels(basis2):
    ident = named_channel("identity", basis2)
    assert np.abs(ident.bloch_matrix - np.eye(4)).max() < 1e-14
    dep = named_channel("depolarizing(1.0)", basis2)
    assert np.abs(dep.bloch_matrix[1:, 1:]).max() < 1e-14
    px = named_channel("pauli_x", basis2)
    assert np.allclose(np.diag(px.bloch_matrix), [1, 1, -1, -1])
    ad = named_channel("amplitude_damping(0.3)", basis2)
    assert not np.allclose(ad.bloch_matrix[1:, 0], 0.0)
    with pytest.raises(ParseError):
        named_channel("squeeze(2)", basis2)
    with pytest.raises(ParseError):
        named_channel("depolarizing", basis2)


def test_malformed_state_names_index():
    states, povm = sic_qubit()
    doc = scenario_to_json(Scenario(states=states, povm=povm))
    doc["states"][1]["entries"] = doc["states"][1]["entries"][:-1]
    with pytest.raises(ParseError, match=r"states\[1\]"):
        scenario_from_json(doc)


def test_comm_matrix_round_trip():
    c = noisy_antidist(4, 0.5)
    back = comm_matrix_from_json(comm_matrix_to_json(c))
    assert np.abs(back.entries - c.entries).max() == 0.0


def test_reports_become_json_safe():
    import json

    cert = self_test(noisy_antidist(4, 0.5), 2)
    doc = to_jsonable(cert)
    json.dumps(doc)  # must not raise
    assert doc["passes"] is True
    assert "unitary or antiunitary" in doc["gauge_note"]
