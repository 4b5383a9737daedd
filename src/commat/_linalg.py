"""Small shared linear-algebra helpers (Hermitian checks, ranks, kernels, Born matrices)."""

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


def born_matrix(states, effects) -> np.ndarray:
    """Born-rule probabilities tr(states[j] effects[k]) for two stacks of operators."""
    return np.einsum("jab,kba->jk", np.asarray(states), np.asarray(effects)).real
