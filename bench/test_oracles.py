"""Fast checks of the benchmark's own oracles (numpy only, no commat).

    python3 -m pytest -q bench/test_oracles.py
"""

import numpy as np
import pytest

import oracles as orc


def test_ppt_separates_identity_from_completely_depolarizing():
    assert not orc.is_ppt(orc.choi_from_kraus([np.eye(2)]))
    assert orc.is_ppt(orc.choi_depolarizing(2, 1.0))


def test_ppt_threshold_of_qubit_depolarizing():
    # X -> (1-p) X + p I/2 is entanglement breaking exactly when p >= 2/3.
    assert orc.is_ppt(orc.choi_depolarizing(2, 2.0 / 3.0 + 1e-9))
    assert not orc.is_ppt(orc.choi_depolarizing(2, 2.0 / 3.0 - 1e-6))


def test_kraus_choi_of_identity_is_the_unnormalised_maximally_entangled_projector():
    omega = np.array([1, 0, 0, 1], dtype=complex)
    np.testing.assert_allclose(orc.choi_from_kraus([np.eye(2)]), np.outer(omega, omega), atol=1e-15)


@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
def test_kraus_choi_of_amplitude_damping_matches_closed_form(gamma):
    s = np.sqrt(1.0 - gamma)
    closed = np.array([
        [1, 0, 0, s],
        [0, 0, 0, 0],
        [0, 0, gamma, 0],
        [s, 0, 0, 1 - gamma],
    ], dtype=complex)
    np.testing.assert_allclose(orc.choi_from_kraus(orc.amplitude_damping_kraus(gamma)), closed, atol=1e-15)


def test_choi_application_reproduces_kraus_action():
    rng = np.random.default_rng(0)
    kraus = orc.random_kraus(rng, 3, 2, 4)
    rho = orc.random_density(rng, 3)
    direct = sum(k @ rho @ k.conj().T for k in kraus)
    np.testing.assert_allclose(orc.apply_choi(orc.choi_from_kraus(kraus), rho, 2), direct, atol=1e-14)


@pytest.mark.parametrize("d, outcomes", [(2, 4), (2, 5), (2, 6), (3, 9), (3, 10)])
@pytest.mark.parametrize("seed", range(5))
def test_rank1_setups_have_storability_d(d, outcomes, seed):
    vecs, weights = orc.rank1_setup(np.random.default_rng(seed), d, outcomes)
    effects = [a * orc.projector(v) for a, v in zip(weights, vecs)]
    np.testing.assert_allclose(sum(effects), np.eye(d), atol=1e-12)
    c = orc.born([orc.projector(v) for v in vecs], effects)
    assert abs(orc.storability(c) - d) <= 1e-12


def test_fixture_closed_forms_are_row_stochastic():
    for c in (orc.closed_form_dist(4, 0.5), orc.closed_form_dist(3, 1 / 3), orc.six_state_c(),
              orc.six_state_cprime()):
        np.testing.assert_allclose(c.sum(axis=1), 1.0, atol=1e-15)
    rhos, effects = orc.six_state_setup()
    np.testing.assert_allclose(orc.born(rhos, effects), orc.six_state_c(), atol=1e-15)
