"""Canonical states, measurements and distinguishability matrices used in tests and demos."""

import numpy as np

from .errors import InvalidDimensionError, ValidationError, check_integer
from .operators import (
    bloch_basis,
    measure_and_prepare_channel,
    state_from_bloch,
    state_from_matrix,
    validate_povm,
)
from .scenario import CommMatrix


def _message_count(n) -> int:
    """``n`` as an int by ``check_integer``'s rule; fewer than 2 raises ``InvalidDimensionError``."""
    n = check_integer("message count", n, None)
    if n < 2:
        raise InvalidDimensionError(f"need at least 2 messages, got {n}")
    return n


def dist_matrix(n: int) -> CommMatrix:
    """Perfect distinguishability of n messages: the identity matrix."""
    n = _message_count(n)
    return CommMatrix(entries=np.eye(n))


def antidist_matrix(n: int) -> CommMatrix:
    """Uniform antidistinguishability: zero diagonal, 1/(n-1) off-diagonal."""
    n = _message_count(n)
    m = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(m, 0.0)
    return CommMatrix(entries=m)


def noisy_antidist(n: int, eps: float) -> CommMatrix:
    """Noisy uniform (anti)distinguishability: diagonal 1-eps, off-diagonal eps/(n-1)."""
    n = _message_count(n)
    if not 0.0 <= eps <= 1.0:
        raise ValidationError(f"noise parameter {eps} outside [0, 1]")
    m = np.full((n, n), eps / (n - 1))
    np.fill_diagonal(m, 1.0 - eps)
    return CommMatrix(entries=m)


def sic_qubit():
    """Tetrahedral qubit states and the matching four-outcome rank-1 measurement.

    Effects are M_k = rho_k / 2; the induced communication matrix is the
    n=4, eps=1/2 noisy antidistinguishability matrix.
    """
    basis = bloch_basis(2)
    directions = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / np.sqrt(3.0)
    states = tuple(state_from_bloch(basis, r) for r in directions)
    povm = validate_povm([s.matrix / 2.0 for s in states])
    return states, povm


def trine_qubit():
    """Three coplanar qubit states at 120 degrees and effects M_k = (2/3) rho_k."""
    basis = bloch_basis(2)
    directions = np.array(
        [
            [0.0, 0.0, 1.0],
            [np.sqrt(3.0) / 2.0, 0.0, -0.5],
            [-np.sqrt(3.0) / 2.0, 0.0, -0.5],
        ]
    )
    states = tuple(state_from_bloch(basis, r) for r in directions)
    povm = validate_povm([(2.0 / 3.0) * s.matrix for s in states])
    return states, povm


def eb_example():
    """Six-state/six-outcome set-up with a measure-and-prepare channel.

    Returns (states, povm, channel, expected_A, expected_B, expected_Cprime)
    where the expected matrices are the exact factors of the induced
    communication matrix C' = A B.
    """
    basis = bloch_basis(2)
    sx, sy, sz = basis.elements[1], basis.elements[2], basis.elements[3]
    ident = np.eye(2, dtype=complex)

    effects = []
    for sigma in (sx, sy, sz):
        effects.append((ident + sigma) / 6.0)
        effects.append((ident - sigma) / 6.0)
    povm = validate_povm(effects)
    states = tuple(state_from_matrix(basis, 3.0 * e) for e in effects)

    n_effects = []
    prep_states = []
    for sigma in (sx, sy):
        n_effects.append((ident + sigma) / 4.0)
        n_effects.append((ident - sigma) / 4.0)
        xi = state_from_matrix(basis, (ident + sigma) / 2.0)
        prep_states.extend([xi, xi])
    channel = measure_and_prepare_channel(validate_povm(n_effects), prep_states)

    expected_a = np.array(
        [
            [2, 0, 1, 1],
            [0, 2, 1, 1],
            [1, 1, 2, 0],
            [1, 1, 0, 2],
            [1, 1, 1, 1],
            [1, 1, 1, 1],
        ],
        dtype=float,
    ) / 4.0
    expected_b = np.array(
        [
            [2, 0, 1, 1, 1, 1],
            [2, 0, 1, 1, 1, 1],
            [1, 1, 2, 0, 1, 1],
            [1, 1, 2, 0, 1, 1],
        ],
        dtype=float,
    ) / 6.0
    expected_cprime = np.tile(np.array([3, 1, 3, 1, 2, 2], dtype=float) / 12.0, (6, 1))
    return states, povm, channel, expected_a, expected_b, expected_cprime


def eb_example_expected_c() -> np.ndarray:
    """The pre-channel communication matrix of :func:`eb_example`."""
    c = np.full((6, 6), 1.0 / 6.0)
    for i in range(3):
        c[2 * i, 2 * i] = 2.0 / 6.0
        c[2 * i, 2 * i + 1] = 0.0
        c[2 * i + 1, 2 * i + 1] = 2.0 / 6.0
        c[2 * i + 1, 2 * i] = 0.0
    return c


FIXTURE_BUILDERS = {
    "sic-qubit": sic_qubit,
    "d3-trine": trine_qubit,
    "eb-six-state": eb_example,
}
