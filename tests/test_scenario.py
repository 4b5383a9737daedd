"""Communication matrices from scenarios, channel iteration, clamping rules."""

import numpy as np
import pytest

from commat import (
    CommMatrix,
    Scenario,
    apply_channel,
    bloch_basis,
    choi_distance,
    comm_matrix,
    comm_matrix_with_channel,
    completely_depolarizing_channel,
    compose_channels,
    identity_channel,
    iterate_channel,
    sic_qubit,
    state_from_bloch,
    state_from_matrix,
    trine_qubit,
    unitary_channel,
    validate_povm,
)
from commat.errors import CommMatrixError, DimensionMismatchError
from commat.fixtures import eb_example
from commat.sampling import random_channel, random_mixed_state, random_povm

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_orthogonal_spans_give_flat_matrix(basis2):
    states = [
        state_from_bloch(basis2, np.array([0.0, 0.0, 1.0])),
        state_from_bloch(basis2, np.array([1.0, 0.0, 0.0])),
    ]
    plus_i = state_from_bloch(basis2, np.array([0.0, 1.0, 0.0])).matrix
    minus_i = state_from_bloch(basis2, np.array([0.0, -1.0, 0.0])).matrix
    c = comm_matrix(states, validate_povm([plus_i, minus_i]))
    assert np.abs(c.entries - 0.5).max() < 1e-15


def test_sic_gives_d4_half():
    states, povm = sic_qubit()
    c = comm_matrix(states, povm)
    expected = (np.full((4, 4), 1.0) + 2.0 * np.eye(4)) / 6.0
    assert np.abs(c.entries - expected).max() < 1e-15


def test_trine_gives_d3_third():
    states, povm = trine_qubit()
    c = comm_matrix(states, povm)
    expected = (np.full((3, 3), 1.0) + 3.0 * np.eye(3)) / 6.0
    assert np.abs(c.entries - expected).max() < 1e-15


def test_identity_channel_matches_plain_matrix(basis2):
    states, povm = sic_qubit()
    plain = comm_matrix(states, povm)
    scenario = Scenario(states=states, povm=povm, channel=identity_channel(basis2))
    assert np.abs(comm_matrix_with_channel(scenario).entries - plain.entries).max() < 1e-14


def test_depolarizing_rows_are_effect_traces(basis2):
    states, povm = sic_qubit()
    scenario = Scenario(states=states, povm=povm, channel=completely_depolarizing_channel(basis2))
    c0 = comm_matrix_with_channel(scenario)
    traces = np.array([np.trace(e).real / 2 for e in povm.effects])
    assert np.abs(c0.entries - traces[None, :]).max() < 1e-14


def test_eb_example_cprime():
    states, povm, channel, _, _, expected_cprime = eb_example()
    cprime = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=channel))
    assert np.abs(cprime.entries - expected_cprime).max() < 1e-15


def test_with_channel_equals_transformed_states(basis2, rng):
    states, povm = sic_qubit()
    ch = random_channel(basis2, basis2, rng)
    via_scenario = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=ch))
    transformed = [state_from_matrix(basis2, apply_channel(ch, s.matrix)) for s in states]
    via_states = comm_matrix(transformed, povm)
    assert np.abs(via_scenario.entries - via_states.entries).max() < 1e-12


def test_repeated_channel_equals_repeatedly_transformed_states(basis2, rng):
    states, povm = sic_qubit()
    ch = random_channel(basis2, basis2, rng)
    via_scenario = comm_matrix_with_channel(
        Scenario(states=states, povm=povm, channel=ch, repeat=3)
    )
    mats = [s.matrix for s in states]
    for _ in range(3):
        mats = [apply_channel(ch, m) for m in mats]
    via_states = comm_matrix([state_from_matrix(basis2, m) for m in mats], povm)
    assert np.abs(via_scenario.entries - via_states.entries).max() < 1e-9


def test_scenario_json_named_channel(basis2):
    from commat.serialize import scenario_from_json, scenario_to_json

    states, povm = sic_qubit()
    doc = scenario_to_json(Scenario(states=states, povm=povm))
    doc["channel"] = {"kind": "named", "name": "depolarizing(1.0)"}
    scenario = scenario_from_json(doc)
    c0 = comm_matrix_with_channel(scenario)
    traces = np.array([np.trace(e).real / 2 for e in povm.effects])
    assert np.abs(c0.entries - traces[None, :]).max() < 1e-12


class TestIterate:
    def test_lambda_one_is_identity_operation(self, basis2, rng):
        ch = random_channel(basis2, basis2, rng)
        assert iterate_channel(ch, 1) is ch

    def test_pauli_squares_to_identity(self, basis2):
        ch = unitary_channel(basis2, SX)
        assert choi_distance(iterate_channel(ch, 2), identity_channel(basis2)) < 1e-12

    def test_depolarizing_idempotent(self, basis2):
        dep = completely_depolarizing_channel(basis2)
        for lam in (2, 3, 5):
            assert choi_distance(iterate_channel(dep, lam), dep) < 1e-12

    def test_power_matches_bloch_power(self, basis2, rng):
        ch = random_channel(basis2, basis2, rng)
        it3 = iterate_channel(ch, 3)
        assert np.abs(it3.bloch_matrix - np.linalg.matrix_power(ch.bloch_matrix, 3)).max() < 1e-9

    def test_composition_consistency(self, basis2, rng):
        ch = random_channel(basis2, basis2, rng)
        whole = iterate_channel(ch, 5)
        split = compose_channels(iterate_channel(ch, 2), iterate_channel(ch, 3))
        assert choi_distance(whole, split) < 1e-9

    def test_rectangular_rejected(self, basis2, basis3, rng):
        ch = random_channel(basis2, basis3, rng)
        with pytest.raises(DimensionMismatchError):
            iterate_channel(ch, 2)


class TestCommMatrixValidation:
    def test_row_stochastic_on_random_scenarios(self, rng):
        for d in (2, 3):
            basis = bloch_basis(d)
            for _ in range(10):
                states = [random_mixed_state(basis, rng) for _ in range(3)]
                povm = random_povm(basis, rng, 4)
                c = comm_matrix(states, povm)
                assert np.abs(c.entries.sum(axis=1) - 1.0).max() < 1e-10
                assert c.entries.min() >= 0.0

    def test_tiny_negative_entries_clamped(self):
        entries = np.array([[1.0 + 5e-13, -5e-13], [0.5, 0.5]])
        c = CommMatrix(entries=entries)
        assert c.entries.min() == 0.0
        assert np.abs(c.entries.sum(axis=1) - 1.0).max() < 1e-12

    def test_large_negative_entry_rejected(self):
        with pytest.raises(CommMatrixError):
            CommMatrix(entries=np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_bad_row_sum_rejected(self):
        with pytest.raises(CommMatrixError, match="row"):
            CommMatrix(entries=np.array([[0.6, 0.6], [0.5, 0.5]]))

    def test_nonfinite_entry_rejected(self):
        with pytest.raises(CommMatrixError, match="finite"):
            CommMatrix(entries=[[np.nan, 1.0], [0.5, 0.5]])
        with pytest.raises(CommMatrixError, match="finite"):
            CommMatrix(entries=[[0.5, 0.5], [np.inf, 0.5]])

    def test_dimension_mismatch_rejected(self, basis3, rng):
        states, _ = sic_qubit()
        povm3 = random_povm(basis3, rng, 3)
        with pytest.raises(DimensionMismatchError):
            comm_matrix(states, povm3)

    def test_repeat_below_one_rejected(self, basis2):
        states, povm = sic_qubit()
        from commat.errors import InvalidChannelError

        with pytest.raises(InvalidChannelError):
            Scenario(states=states, povm=povm, channel=identity_channel(basis2), repeat=0)

    def test_entries_are_read_only(self):
        c = CommMatrix(entries=np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            c.entries[0, 0] = 0.9
