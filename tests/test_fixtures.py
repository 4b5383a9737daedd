"""Canonical fixtures reproduce their printed matrices exactly."""

import numpy as np
import pytest

from commat import (
    Scenario,
    antidist_matrix,
    comm_matrix,
    comm_matrix_with_channel,
    dist_matrix,
    eb_example,
    information_storability,
    noisy_antidist,
    numerical_rank,
    sic_qubit,
    span_dims,
    trine_qubit,
)
from commat.errors import InvalidDimensionError, ValidationError
from commat.fixtures import eb_example_expected_c

D4_HALF = np.array(
    [[3, 1, 1, 1], [1, 3, 1, 1], [1, 1, 3, 1], [1, 1, 1, 3]], dtype=float
) / 6.0
D3_THIRD = np.array([[4, 1, 1], [1, 4, 1], [1, 1, 4]], dtype=float) / 6.0


def test_noisy_antidist_reproduces_printed_matrices():
    assert np.abs(noisy_antidist(4, 0.5).entries - D4_HALF).max() < 1e-15
    assert np.abs(noisy_antidist(3, 1 / 3).entries - D3_THIRD).max() < 1e-15


def test_noisy_antidist_boundaries():
    assert np.abs(noisy_antidist(4, 0.0).entries - dist_matrix(4).entries).max() == 0.0
    assert np.abs(noisy_antidist(4, 1.0).entries - antidist_matrix(4).entries).max() == 0.0


def test_noise_parameter_range():
    with pytest.raises(ValidationError):
        noisy_antidist(3, 1.5)
    with pytest.raises(ValidationError):
        noisy_antidist(3, -0.1)


@pytest.mark.parametrize(
    "make", [dist_matrix, antidist_matrix, lambda n: noisy_antidist(n, 0.5)]
)
@pytest.mark.parametrize(
    "n,error",
    [
        (1, InvalidDimensionError),
        (0, InvalidDimensionError),
        (2.5, ValidationError),
        (3.0, ValidationError),
        (float("nan"), ValidationError),
        (True, ValidationError),
    ],
)
def test_message_count_range(make, n, error):
    """A count below 2 is an invalid dimension; a non-integer count is invalid input."""
    with pytest.raises(error, match="message"):
        make(n)


def test_sic_matches_d4_half():
    states, povm = sic_qubit()
    assert np.abs(comm_matrix(states, povm).entries - D4_HALF).max() < 1e-13


def test_sic_certification_values():
    states, povm = sic_qubit()
    c = comm_matrix(states, povm)
    assert numerical_rank(c) == 4
    assert information_storability(c) == pytest.approx(2.0, abs=1e-13)


def test_sic_pairwise_overlaps():
    states, _ = sic_qubit()
    for j in range(4):
        for k in range(4):
            overlap = np.trace(states[j].matrix @ states[k].matrix).real
            assert overlap == pytest.approx(1.0 if j == k else 1 / 3, abs=1e-13)


def test_trine_matches_d3_third():
    states, povm = trine_qubit()
    assert np.abs(comm_matrix(states, povm).entries - D3_THIRD).max() < 1e-13


def test_trine_storability_and_span():
    states, povm = trine_qubit()
    assert information_storability(comm_matrix(states, povm)) == pytest.approx(2.0, abs=1e-13)
    assert span_dims(states, povm) == (3, 3, 3)
    # identity, sigma_x and sigma_z all lie in the span of the states
    coords = np.array(
        [[s.matrix[0, 0].real, s.matrix[0, 1].real, s.matrix[1, 1].real] for s in states]
    )
    for target in (np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([1, -1])):
        tvec = np.array([target[0, 0], target[0, 1], target[1, 1]], dtype=float)
        x, _, _, _ = np.linalg.lstsq(coords.T, tvec, rcond=None)
        assert np.abs(coords.T @ x - tvec).max() < 1e-12


def test_eb_example_matrices():
    states, povm, channel, a, b, cprime = eb_example()
    c = comm_matrix(states, povm)
    assert np.abs(c.entries - eb_example_expected_c()).max() < 1e-13
    got_cprime = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=channel))
    assert np.abs(got_cprime.entries - cprime).max() < 1e-13
    assert np.abs(a @ b - cprime).max() < 1e-13
    assert numerical_rank(c) == 4
    assert np.linalg.matrix_rank(a) == 3
    assert np.linalg.matrix_rank(b) == 2
    assert numerical_rank(got_cprime) == 1


def test_decoding_theorem_spot_check():
    # storability never exceeds the dimension on any qubit fixture
    for states, povm in (sic_qubit(), trine_qubit()):
        assert information_storability(comm_matrix(states, povm)) <= 2 + 1e-9
    eb_states, eb_povm, _, _, _, _ = eb_example()
    assert information_storability(comm_matrix(eb_states, eb_povm)) <= 2 + 1e-9
