"""Seeded inputs and reference computations made with numpy alone.

Nothing here imports ``commat``: the benchmark checks the program's outputs
against these computations, so they must not share code with it.

Choi convention (the one ``commat`` documents): input-major blocks,
J[i*d_out + a, j*d_out + b] = Phi(|i><j|)[a, b], so that
Phi(rho)[a, b] = sum_ij rho[i, j] J[i*d_out + a, j*d_out + b].
"""

import hashlib

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)


# ----------------------------------------------------------------- generators

def ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_density(rng, d, rank=None):
    g = ginibre(rng, d, rank or d)
    m = g @ g.conj().T
    return (m + m.conj().T) / (2 * np.trace(m).real)


def inv_sqrt(s):
    ev, u = np.linalg.eigh(s)
    return (u * ev ** -0.5) @ u.conj().T


def random_povm(rng, d, outcomes, rank=None):
    """Random positive operators normalised to sum to the identity by S^(-1/2)."""
    raw = [random_density(rng, d, rank) for _ in range(outcomes)]
    h = inv_sqrt(sum(raw))
    effects = [h @ p @ h for p in raw]
    return [(e + e.conj().T) / 2 for e in effects]


def random_kraus(rng, d_in, d_out, rank):
    """Kraus operators of a random Stinespring isometry (QR of a Ginibre matrix)."""
    q, _ = np.linalg.qr(ginibre(rng, d_out * rank, d_in))
    return [q[i * d_out:(i + 1) * d_out, :] for i in range(rank)]


def random_unitary(rng, d):
    q, r = np.linalg.qr(ginibre(rng, d, d))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]


def rank1_setup(rng, d, n):
    """Random rank-1 set-up: effects a_k |phi_k><phi_k|, states |phi_k><phi_k|.

    Returns (vectors, weights). The effects sum to the identity, so the
    information storability sum_k max_j C[j, k] = sum_k a_k = d exactly.
    """
    v = ginibre(rng, n, d)
    w = v @ inv_sqrt(v.T @ v.conj()).T
    a = np.einsum("ki,ki->k", w.conj(), w).real
    return w / np.sqrt(a)[:, None], a


def projector(v):
    return np.outer(v, v.conj())


# ------------------------------------------------------------ channel algebra

def choi_from_kraus(kraus):
    """J = sum_K vec(K) vec(K)^dag in the input-major block convention."""
    k = np.stack([np.asarray(x, dtype=complex) for x in kraus])
    _, d_out, d_in = k.shape
    j4 = np.einsum("kai,kbj->iajb", k, k.conj())
    return j4.reshape(d_in * d_out, d_in * d_out)


def choi_measure_prepare(effects, states):
    """Choi matrix of X -> sum_i tr(N_i X) xi_i."""
    return sum(np.kron(n.T, xi) for n, xi in zip(effects, states))


def choi_depolarizing(d, p):
    """Choi matrix of X -> (1 - p) X + p tr(X) I / d."""
    omega = np.eye(d, dtype=complex).reshape(d * d)
    return (1.0 - p) * np.outer(omega, omega) + p * np.eye(d * d) / d


def apply_choi(choi, rho, d_out):
    d_in = choi.shape[0] // d_out
    j4 = choi.reshape(d_in, d_out, d_in, d_out)
    return np.einsum("ij,iajb->ab", rho, j4)


def born(states, effects):
    """C[j, k] = tr(rho_j M_k)."""
    return np.einsum("jab,kba->jk", np.stack(states), np.stack(effects)).real


def born_with_channel(choi, states, effects):
    """C'[j, k] = tr(Phi(rho_j) M_k)."""
    d_out = effects[0].shape[0]
    return born([apply_choi(choi, r, d_out) for r in states], effects)


def min_partial_transpose_eigenvalue(choi, d_in, d_out):
    j4 = choi.reshape(d_in, d_out, d_in, d_out)
    pt = j4.transpose(2, 1, 0, 3).reshape(d_in * d_out, d_in * d_out)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])


def is_ppt(choi, d_in=2, d_out=2, tol=1e-12):
    """Positive partial transpose; for 2x2 Choi matrices the same as EB."""
    return min_partial_transpose_eigenvalue(choi, d_in, d_out) >= -tol


def is_unital(choi, d, tol=1e-10):
    return float(np.linalg.norm(apply_choi(choi, np.eye(d), d) - np.eye(d))) <= tol


# ---------------------------------------------------------------- properties

def numerical_rank(m, rel_tol=1e-9):
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > rel_tol * s[0]))


def storability(c):
    return float(c.max(axis=0).sum())


def real_coords(ops):
    """Columns are isometric real vectorisations [Re vec, Im vec] of the operators."""
    flat = np.stack([np.asarray(o).ravel() for o in ops], axis=1)
    return np.vstack([flat.real, flat.imag])


def condition_number(ops):
    s = np.linalg.svd(real_coords(ops), compute_uv=False)
    return float(s[0] / s[-1])


def closed_form_dist(n, eps):
    """D_{n,eps}: diagonal 1 - eps, off-diagonal eps / (n - 1)."""
    m = np.full((n, n), eps / (n - 1))
    np.fill_diagonal(m, 1.0 - eps)
    return m


def six_state_c():
    c = np.full((6, 6), 1.0 / 6.0)
    for i in range(3):
        c[2 * i, 2 * i] = c[2 * i + 1, 2 * i + 1] = 2.0 / 6.0
        c[2 * i, 2 * i + 1] = c[2 * i + 1, 2 * i] = 0.0
    return c


def six_state_cprime():
    return np.tile(np.array([3, 1, 3, 1, 2, 2], dtype=float) / 12.0, (6, 1))


def amplitude_damping_kraus(gamma):
    return [
        np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex),
        np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
    ]


def qubit_state(r):
    return (IDENTITY2 + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z) / 2.0


def sic_setup():
    dirs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0)
    states = [qubit_state(r) for r in dirs]
    return states, [s / 2.0 for s in states]


def six_state_setup():
    effects = []
    for s in (PAULI_X, PAULI_Y, PAULI_Z):
        effects += [(IDENTITY2 + s) / 6.0, (IDENTITY2 - s) / 6.0]
    return [3.0 * e for e in effects], effects


# -------------------------------------------------------------- JSON formats

def matrix_json(m):
    m = np.asarray(m, dtype=complex)
    rows, cols = m.shape
    return {
        "rows": rows,
        "cols": cols,
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def matrix_from_json(obj):
    e = np.array(obj["entries"], dtype=float)
    return (e[:, 0] + 1j * e[:, 1]).reshape(obj["rows"], obj["cols"])


class InputDigest:
    """SHA-256 over every generated array, in generation order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *arrays):
        for a in arrays:
            a = np.ascontiguousarray(a)
            self._h.update(str(a.shape).encode())
            self._h.update(a.tobytes())

    def hexdigest(self):
        return self._h.hexdigest()
