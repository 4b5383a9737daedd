"""Certification quantities on communication matrices.

Covers the numerical rank, the information storability (sum of column maxima),
span dimensions of an implementation, informational-completeness reports, the
storability-based self-test with its noise-robustness bounds.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from ._linalg import RANK_REL_TOL, herm_sqrt, min_eigval, multistart, numerical_rank_of
from .errors import (
    DimensionMismatchError,
    DimensionViolationError,
    InconsistentDimensionClaimError,
    InvalidDimensionError,
    PreconditionError,
    ValidationError,
)
from .operators import GAUGE_NOTE, Povm
from .scenario import CommMatrix, Scenario, comm_matrix

GRAM_RESIDUAL_TOL = 1e-8
DEFAULT_SEED = 12345


def numerical_rank(c: CommMatrix, rel_tol: float = RANK_REL_TOL) -> int:
    """Singular values above rel_tol times the largest one."""
    return numerical_rank_of(c.entries, rel_tol)


def information_storability(c: CommMatrix) -> float:
    """Sum over columns of the column maxima."""
    return float(c.entries.max(axis=0).sum())


def span_dims(states, povm: Povm, rel_tol: float = RANK_REL_TOL) -> tuple:
    """(dim V_rho, dim V_M, dim of their intersection) as numerical ranks.

    The intersection dimension uses dim(U) + dim(W) - dim(U + W) on stacked
    Bloch coordinates, so a single SVD tolerance governs all three numbers.
    """
    basis = states[0].basis
    rows_s = basis.coords(np.array([s.matrix for s in states]))
    rows_m = basis.coords(np.array(povm.effects))
    dim_s = numerical_rank_of(rows_s, rel_tol)
    dim_m = numerical_rank_of(rows_m, rel_tol)
    dim_sum = numerical_rank_of(np.vstack([rows_s, rows_m]), rel_tol)
    return dim_s, dim_m, dim_s + dim_m - dim_sum


@dataclass(frozen=True)
class InfoCompletenessReport:
    rank: int
    dim_v_rho: int | None
    dim_v_m: int | None
    dim_intersection: int | None
    lower_bound: int | None
    upper_bound: int | None
    states_complete: bool
    povm_complete: bool
    rank_rel_tol: float = RANK_REL_TOL

    @property
    def bounds_hold(self) -> bool | None:
        if self.lower_bound is None:
            return None
        return self.lower_bound <= self.rank <= self.upper_bound


def certify_info_completeness(
    c: CommMatrix,
    d: int,
    implementation: tuple | None = None,
    rel_tol: float = RANK_REL_TOL,
) -> InfoCompletenessReport:
    """Deduce informational completeness of any implementation from rank(C) = d^2."""
    if d < 2:
        raise InvalidDimensionError(f"dimension must be at least 2, got {d}")
    rank = numerical_rank(c, rel_tol)
    if rank > d * d:
        raise InconsistentDimensionClaimError(
            f"rank {rank} exceeds d^2 = {d * d}; the matrix cannot come from a "
            f"{d}-dimensional system"
        )
    complete = rank == d * d
    dim_s = dim_m = dim_int = lower = upper = None
    if implementation is not None:
        states, povm = implementation
        dim_s, dim_m, dim_int = span_dims(states, povm, rel_tol)
        lower, upper = dim_int, min(dim_s, dim_m)
    return InfoCompletenessReport(
        rank=rank,
        dim_v_rho=dim_s,
        dim_v_m=dim_m,
        dim_intersection=dim_int,
        lower_bound=lower,
        upper_bound=upper,
        states_complete=complete,
        povm_complete=complete,
        rank_rel_tol=rel_tol,
    )


@dataclass(frozen=True, eq=False)
class SelfTestCertificate:
    storability: float
    passes: bool
    weights: np.ndarray
    canonical_vectors: tuple | None
    canonical_weights: np.ndarray | None
    gram_residual: float | None
    storability_tol: float = 1e-6
    residual_tol: float = GRAM_RESIDUAL_TOL
    gauge_note: str = field(default=GAUGE_NOTE, repr=False)

    def overlap_matrix(self) -> np.ndarray:
        """Gauge-invariant squared overlaps |<phi_j|phi_k>|^2 of the canonical vectors."""
        if self.canonical_vectors is None:
            raise PreconditionError("certificate did not pass; no canonical vectors")
        v = np.vstack(self.canonical_vectors)
        return np.abs(v.conj() @ v.T) ** 2

    def reconstructed_matrix(self) -> np.ndarray:
        """C rebuilt from the canonical implementation: C[j, k] = a_k |<phi_k|phi_j>|^2."""
        return self.overlap_matrix() * self.canonical_weights[None, :]


def _unpack_vectors(x, n, d):
    """The n unnormalized vectors of a packing: u_0 = e_0 (gauge), then (re, im) pairs."""
    u = np.empty((n, d), dtype=complex)
    u[0] = 0.0
    u[0, 0] = 1.0
    packed = x.reshape(n - 1, 2, d)
    u[1:] = packed[:, 0, :] + 1j * packed[:, 1, :]
    return u


def _gram_objective(x, c, alpha, d, n, with_grad=True):
    u = _unpack_vectors(x, n, d)
    n2 = np.einsum("ji,ji->j", u.conj(), u).real
    s_raw = u @ u.conj().T
    p = (np.abs(s_raw) ** 2) / np.outer(n2, n2)
    r = p * alpha[None, :] - c
    f = float((r * r).sum())
    if not with_grad:
        return f

    w = 2.0 * r * alpha[None, :]
    a1 = (w * s_raw.conj()).T / n2[None, :]
    m2 = (w * s_raw) / n2[None, :]
    cvec = (w * p).sum(axis=0) + (w * p).sum(axis=1)
    g = ((a1 + m2) @ u) / n2[:, None] - (cvec / n2)[:, None] * u
    grad = np.empty((n - 1, 2, d))
    grad[:, 0, :] = 2.0 * g[1:].real
    grad[:, 1, :] = 2.0 * g[1:].imag
    return f, grad.ravel()


def _polish_implementation(vectors, alpha):
    """Symmetrize so the rank-1 effects sum to the identity at machine precision."""
    s = (vectors.T * alpha) @ vectors.conj()
    if min_eigval(s) <= 1e-12:
        return vectors, np.asarray(alpha, dtype=float)
    w = vectors @ herm_sqrt(s, 0.0, inverse=True).T
    nw2 = np.einsum("ji,ji->j", w.conj(), w).real
    return w / np.sqrt(nw2)[:, None], alpha * nw2


def _fit_canonical_vectors(c, alpha, d, restarts, seed, residual_tol):
    """((vectors, weights), polished Gram residual, restarts run) of the multi-start fit."""
    n = c.shape[0]

    def solve(rng, _):
        x0 = rng.standard_normal((n - 1) * 2 * d)
        res = minimize(
            _gram_objective,
            x0,
            args=(c, alpha, d, n),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 5000, "ftol": 1e-18, "gtol": 1e-14},
        )
        u = _unpack_vectors(res.x, n, d)
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        vectors, weights = _polish_implementation(u, alpha)
        overlaps = np.abs(vectors.conj() @ vectors.T) ** 2
        return (vectors, weights), float(((overlaps * weights[None, :] - c) ** 2).sum())

    return multistart(solve, restarts, seed, residual_tol)


def self_test(
    c: CommMatrix,
    d: int,
    tol: float = 1e-6,
    restarts: int = 32,
    seed: int = DEFAULT_SEED,
    residual_tol: float = GRAM_RESIDUAL_TOL,
) -> SelfTestCertificate:
    """Self-test a square set-up from its information storability.

    Passing requires the storability to reach the dimension d.  The canonical
    rank-1 implementation (unit vectors phi_j, effects C_jj |phi_j><phi_j|) is
    recovered by a multi-restart quasi-Newton fit of the squared-overlap matrix
    with phi_1 gauge-fixed, which stops at the first restart whose polished Gram
    residual is within ``residual_tol``; everything it certifies is modulo a
    global unitary or antiunitary, which no statistics can resolve.

    ``residual_tol`` bounds the sum of squares sum_jk (a_k |<phi_j|phi_k>|^2 - C_jk)^2, so
    one weighted overlap can be off by up to about sqrt(residual_tol) (1e-4 by default).
    """
    m, n = c.shape
    if m != n:
        raise DimensionMismatchError(f"self-test needs a square matrix, got {m}x{n}")
    if d < 2:
        raise InvalidDimensionError(f"dimension must be at least 2, got {d}")
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    col_max = c.entries.max(axis=0)
    if col_max.min() <= 0.0:
        k = int(col_max.argmin())
        raise PreconditionError(f"column {k} is zero; outcome never occurs")
    storability = information_storability(c)
    if storability > d + tol:
        raise DimensionViolationError(
            f"storability {storability:.9f} exceeds dimension {d}; no {d}-dimensional "
            "implementation exists"
        )
    weights = c.entries.diagonal().copy()
    vectors = canon_weights = residual = None
    if abs(storability - d) <= tol:
        (vectors, canon_weights), residual, _ = _fit_canonical_vectors(
            c.entries, weights, d, restarts, seed, residual_tol
        )
    return SelfTestCertificate(
        storability=storability,
        passes=residual is not None and residual <= residual_tol,
        weights=weights,
        canonical_vectors=None if vectors is None else tuple(vectors),
        canonical_weights=canon_weights,
        gram_residual=residual,
        storability_tol=tol,
        residual_tol=residual_tol,
    )


@dataclass(frozen=True, eq=False)
class RobustnessReport:
    epsilon: float
    per_effect_tail: np.ndarray
    bound_holds: bool
    rob1_max: float
    rob2_max: float
    rob1_holds: bool
    rob2_holds: bool
    slack: float = 1e-10


def robustness_gap(scenario: Scenario, slack: float = 1e-10) -> RobustnessReport:
    """Noise bounds for a nearly self-testable set-up.

    epsilon = d - storability; the eigenvalue tails of each effect beyond its
    top eigenvalue must sum to at most epsilon, and for each effect/eigenvector
    pair both displayed inequalities (small-eigenvalue and near-top-eigenvalue)
    are evaluated against the column-maximizing state.
    """
    states, povm = scenario.states, scenario.povm
    c = comm_matrix(states, povm)
    m, n = c.shape
    if m != n:
        raise DimensionMismatchError(f"robustness needs a square matrix, got {m}x{n}")
    d = povm.dim
    eps = d - information_storability(c)
    tails = np.empty(n)
    rob1_max = -np.inf
    rob2_max = -np.inf
    for k, effect in enumerate(povm.effects):
        ev, evec = np.linalg.eigh(effect)
        ev, evec = ev[::-1], evec[:, ::-1]
        tails[k] = float(ev[1:].sum())
        jk = int(np.argmax(c.entries[:, k]))
        rho = states[jk].matrix
        fid = np.einsum("ij,jk,ki->i", evec.conj().T, rho, evec).real
        rob1_max = max(rob1_max, float((ev * (1.0 - fid)).max()))
        rob2_max = max(rob2_max, float(((ev[0] - ev) * fid).max()))
    return RobustnessReport(
        epsilon=float(eps),
        per_effect_tail=tails,
        bound_holds=bool(tails.sum() <= eps + slack),
        rob1_max=rob1_max,
        rob2_max=rob2_max,
        rob1_holds=bool(rob1_max <= eps + slack),
        rob2_holds=bool(rob2_max <= eps + slack),
        slack=slack,
    )
