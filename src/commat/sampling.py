"""Seeded random states, measurements and channels for property suites and fits."""

import numpy as np

from ._linalg import inverse_sqrt
from .operators import (
    BlochBasis,
    DensityOperator,
    Povm,
    QuantumChannel,
    channel_from_kraus,
    state_from_matrix,
    validate_povm,
)


def _ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_mixed_state(basis: BlochBasis, rng, rank: int | None = None) -> DensityOperator:
    d = basis.dim
    g = _ginibre(rng, d, rank or d)
    m = g @ g.conj().T
    return state_from_matrix(basis, m / np.trace(m).real)


def random_povm(basis: BlochBasis, rng, outcomes: int) -> Povm:
    """Normalize random positive operators into a measurement via S^(-1/2)."""
    d = basis.dim
    raw = []
    for _ in range(outcomes):
        g = _ginibre(rng, d, d)
        raw.append(g @ g.conj().T)
    inv_half = inverse_sqrt(sum(raw))
    return validate_povm([inv_half @ p @ inv_half for p in raw])


def random_channel(
    basis_in: BlochBasis,
    basis_out: BlochBasis,
    rng,
    kraus_rank: int | None = None,
) -> QuantumChannel:
    """Haar-style CPTP map from a random Stinespring isometry."""
    di, do = basis_in.dim, basis_out.dim
    k = kraus_rank or di * do
    g = _ginibre(rng, do * k, di)
    q, _ = np.linalg.qr(g)
    kraus = [q[i * do:(i + 1) * do, :] for i in range(k)]
    return channel_from_kraus(kraus, basis_in, basis_out)


def random_unitary(dim: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, dim, dim))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :].conj()
