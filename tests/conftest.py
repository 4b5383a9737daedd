import numpy as np
import pytest

from commat import bloch_basis, state_from_bloch, state_from_matrix, validate_povm
from commat.sampling import random_mixed_state, random_povm


@pytest.fixture
def basis2():
    return bloch_basis(2)


@pytest.fixture
def basis3():
    return bloch_basis(3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def rank1_setup(rng, d, n):
    """Random rank-1 set-up (unit vectors phi_k, weights a_k, sum_k a_k |phi_k><phi_k| = I).

    A copy of ``bench/oracles.rank1_setup``, which the tests do not import, so
    that a generator seed names the same set-up here and in the benchmark.
    """
    v = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    ev, u = np.linalg.eigh(v.T @ v.conj())
    w = v @ ((u * ev ** -0.5) @ u.conj().T).T
    a = np.einsum("ki,ki->k", w.conj(), w).real
    return w / np.sqrt(a)[:, None], a


def epsilon_panel_states(basis, eps):
    """Qubit states at Bloch vectors (0, 0, .5), (.5, 0, 0), (0, .5, 0) and (eps, eps, .5 + eps).

    The fourth state leaves the first one's axis by eps, so the states' coordinate
    matrix has full rank and a condition number of about 1.8 / eps.
    """
    vectors = ([0.0, 0.0, 0.5], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [eps, eps, 0.5 + eps])
    return tuple(state_from_bloch(basis, np.array(r)) for r in vectors)


def make_random_setup(basis, rng, n_states, n_outcomes):
    states = tuple(random_mixed_state(basis, rng) for _ in range(n_states))
    povm = random_povm(basis, rng, n_outcomes)
    return states, povm


def make_spanning_setup(basis, rng, n_states, n_outcomes, span_states, span_effects):
    """Random states and POVM whose operator spans have dimensions span_states and span_effects.

    States are random mixtures of span_states random states; effects are a random
    classical post-processing of a random span_effects-outcome POVM.
    """
    base_states, base_povm = make_random_setup(basis, rng, span_states, span_effects)
    mix = rng.dirichlet(np.ones(span_states), size=n_states)
    base = np.array([s.matrix for s in base_states])
    states = tuple(state_from_matrix(basis, m) for m in np.tensordot(mix, base, axes=1))
    post = rng.dirichlet(np.ones(n_outcomes), size=span_effects)
    povm = validate_povm(list(np.tensordot(post.T, np.array(base_povm.effects), axes=1)))
    return states, povm
