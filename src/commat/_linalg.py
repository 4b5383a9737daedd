"""Small shared linear-algebra helpers (Hermitian checks, real vectorization, ranks)."""

import numpy as np

HERM_ATOL = 1e-12


def freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def dag(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def is_hermitian(a: np.ndarray, atol: float = HERM_ATOL) -> bool:
    return a.shape[0] == a.shape[1] and frob(a - dag(a)) <= atol


def min_eigval(a: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(a)[0])


def herm_to_real_vec(a: np.ndarray) -> np.ndarray:
    """Isometric real vectorization of a Hermitian matrix.

    Components are the diagonal plus sqrt(2)-scaled real/imaginary parts of the
    upper triangle, so that the Euclidean inner product equals tr(AB).
    """
    d = a.shape[0]
    iu = np.triu_indices(d, k=1)
    return np.concatenate([
        np.real(np.diagonal(a)),
        np.sqrt(2.0) * np.real(a[iu]),
        np.sqrt(2.0) * np.imag(a[iu]),
    ])


def real_vec_to_herm(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`herm_to_real_vec`."""
    a = np.zeros((d, d), dtype=complex)
    a[np.diag_indices(d)] = v[:d]
    iu = np.triu_indices(d, k=1)
    k = len(iu[0])
    upper = (v[d:d + k] + 1j * v[d + k:d + 2 * k]) / np.sqrt(2.0)
    a[iu] = upper
    a[(iu[1], iu[0])] = upper.conj()
    return a


def numerical_rank_of(a: np.ndarray, rel_tol: float = 1e-9) -> int:
    """Number of singular values above rel_tol times the largest one."""
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def null_space_of(a: np.ndarray, rel_tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of a real matrix."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    u, s, vt = np.linalg.svd(a)
    ncols = a.shape[1]
    if s.size == 0 or s[0] == 0.0:
        return np.eye(ncols)
    rank = int(np.count_nonzero(s > rel_tol * s[0]))
    return vt[rank:].T


def stacked_herm_coords(ops: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """Rows are the real vectorizations of the given Hermitian operators."""
    return np.vstack([herm_to_real_vec(op) for op in ops])


def born_matrix(states, effects) -> np.ndarray:
    """Born-rule probabilities tr(states[j] effects[k]) for two stacks of operators."""
    return np.einsum("jab,kba->jk", np.asarray(states), np.asarray(effects)).real
