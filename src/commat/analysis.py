"""Certification quantities on communication matrices.

Covers the numerical rank, the information storability (sum of column maxima),
span dimensions of an implementation, informational-completeness reports, the
storability-based self-test with its noise-robustness bounds.
"""

from dataclasses import dataclass, field

import numpy as np

from ._linalg import (
    RANK_REL_TOL,
    inverse_sqrt,
    numerical_rank_of,
    restart_search,
)
from .errors import (
    DimensionMismatchError,
    DimensionViolationError,
    InconsistentDimensionClaimError,
    NotSelfTestableError,
    PreconditionError,
    ValidationError,
    check_dimension,
    check_integer,
    check_tolerance,
)
from .operators import GAUGE_NOTE, Povm, bloch_basis, states_dim
from .scenario import CommMatrix, Scenario, comm_matrix

GRAM_RESIDUAL_TOL = 1e-8
ROBUSTNESS_SLACK = 1e-10
DEFAULT_SEED = 12345


def _check_rank_tol(rel_tol: float):
    """Raise ``ValidationError`` unless the relative rank rule lies in (0, 1) (NaN fails too)."""
    if not 0.0 < rel_tol < 1.0:
        raise ValidationError(f"rel_tol must be finite and in (0, 1), got {rel_tol}")


def numerical_rank(c: CommMatrix, rel_tol: float = RANK_REL_TOL) -> int:
    """Singular values above rel_tol times the largest one; ``rel_tol`` lies in (0, 1)."""
    _check_rank_tol(rel_tol)
    return numerical_rank_of(c.entries, rel_tol)


def information_storability(c: CommMatrix) -> float:
    """Sum over columns of the column maxima."""
    return float(c.entries.max(axis=0).sum())


def span_dims(states, povm: Povm, rel_tol: float = RANK_REL_TOL) -> tuple:
    """(dim V_rho, dim V_M, dim of their intersection) as numerical ranks.

    The intersection dimension uses dim(U) + dim(W) - dim(U + W) on stacked
    Bloch coordinates, so a single SVD tolerance governs all three numbers.
    ``rel_tol`` lies in (0, 1).  The states and the measurement must share one
    dimension, else ``DimensionMismatchError``.
    """
    _check_rank_tol(rel_tol)
    d = states_dim(states, "span dimensions need at least one state")
    if povm.dim != d:
        raise DimensionMismatchError(
            f"states have dimension {d} but measurement acts on {povm.dim}"
        )
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
    """Deduce informational completeness of any implementation from rank(C) = d^2.

    ``d`` must be an integer of at least 2 (numpy integers pass, 2.0 does not).
    """
    d = check_dimension(d)
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
    restarts: int = 0
    storability_tol: float = 1e-6
    residual_tol: float = GRAM_RESIDUAL_TOL
    pairing: tuple | None = None
    gauge_note: str = field(default=GAUGE_NOTE, repr=False)

    def overlap_matrix(self) -> np.ndarray:
        """Gauge-invariant squared overlaps |<phi_k|phi_l>|^2 of the canonical vectors."""
        if self.canonical_vectors is None:
            raise PreconditionError("certificate did not pass; no canonical vectors")
        v = np.vstack(self.canonical_vectors)
        return np.abs(v.conj() @ v.T) ** 2

    def reconstructed_matrix(self) -> np.ndarray:
        """C rebuilt in the caller's state order: C[pairing[k], l] = a_l |<phi_k|phi_l>|^2."""
        return (self.overlap_matrix() * self.canonical_weights[None, :])[np.argsort(self.pairing)]


def _projector(x, n, d):
    """P = Z (Z^dag Z)^-1 Z^dag and (Z^dag Z)^-1 Z^dag of Z given as (re, im) pairs;
    a stack of points on the leading axes of x gives a stack of each."""
    z = x.view(complex).reshape(*x.shape[:-1], n, d)
    zh = z.conj().swapaxes(-1, -2)
    zinv_zh = np.linalg.solve(zh @ z, zh)
    return z @ zinv_zh, zinv_zh


def _projector_objective(x, target, weight, n, d):
    """f = sum_jk w_jk (|P_jk|^2 - T_jk)^2 and its gradient; x holds Z as (re, im) pairs.

    P = Z (Z^dag Z)^-1 Z^dag is the rank-d projector with entries
    sqrt(a_j a_k) <phi_j|phi_k>, T_jk its squared moduli (a_j C_jk + a_k C_kj) / 2;
    f is unchanged under Z -> Z A for any invertible A.  At x (N,) f is a float;
    at each row of a stack x (k, N) f is (k,) and the gradients (k, N).
    """
    p, zinv_zh = _projector(x, n, d)
    r = np.abs(p) ** 2 - target
    m = zinv_zh @ (4.0 * weight * r * p)
    m -= m @ p
    f = (weight * r * r).sum(axis=(-2, -1))
    grad = (2.0 * m.conj().swapaxes(-1, -2)).reshape(*x.shape[:-1], n * d).view(float)
    return (float(f) if x.ndim == 1 else f), grad


def _projector_residual(x, target, root_weight, n, d):
    """r = sqrt(w) o (|P|^2 - T), flattened, so that ||r||^2 is the objective f."""
    return (root_weight * (np.abs(_projector(x, n, d)[0]) ** 2 - target)).ravel()


def _projector_jacobian(x, root_weight, n, d):
    """d r_jk / dx, with rows in the order of ``_projector_residual`` and x as (re, im) pairs.

    dP = Q dZ B^dag + B dZ^dag Q with Q = I - P and B = Z (Z^dag Z)^-1, so
    d|P_jk|^2 = 2 Re(G_jk . dZ) with G = F + F^T over (j, k) and
    F[j, k, p, c] = conj(P_jk) Q_jp conj(B_kc).  A real dZ_pc then contributes
    2 Re G and an imaginary one -2 Im G: the (re, im) view of 2 conj(G).
    """
    p, zinv_zh = _projector(x, n, d)
    f = p.conj()[:, :, None, None] * (np.eye(n) - p)[:, None, :, None] * zinv_zh.T[None, :, None, :]
    jac = 2.0 * root_weight[:, :, None, None] * (f + f.swapaxes(0, 1)).conj()
    return jac.reshape(n * n, n * d).view(float)


def _gram_start(target, alpha, d):
    """Z of the set-up rebuilt from the Gram matrix of its effects, or None if its rank is below d.

    The effects M_j = a_j |phi_j><phi_j| have tr(M_j M_k) = T_jk, so T - a a^T / d
    is the Gram matrix of their traceless parts.  Its top d^2 - 1 eigenpairs give
    those parts in an orthonormal traceless basis up to an orthogonal map.  At
    d = 2 every such map is a unitary or an antiunitary, so the rebuilt effects
    are the set-up's in another gauge and Z is an exact zero of the fit.  Row j
    of Z is sqrt(a_j) times the conjugate of the top eigenvector of M_j.
    """
    k = min(len(alpha), d * d - 1)
    ev, evec = np.linalg.eigh(target - np.outer(alpha, alpha) / d)
    coords = evec[:, -k:] * np.sqrt(np.clip(ev[-k:], 0.0, None))
    traceless = bloch_basis(d).elements[1 : k + 1] / np.sqrt(d)
    effects = alpha[:, None, None] * np.eye(d) / d + np.tensordot(coords, traceless, axes=1)
    z = np.sqrt(alpha)[:, None] * np.linalg.eigh(effects)[1][:, :, -1].conj()
    return z if numerical_rank_of(z) == d else None


# The self-test fit is ``_linalg.batch_fit``: L-BFGS-B for a batch of one start, the
# numpy L-BFGS for more, and the same polish after either.  Its polish of
# r = sqrt(w) o (|P|^2 - T) reaches a zero fit in 3 to 4 Jacobians, and the
# restarts that end in local minima (f of 1e-4 to 1e-2) stay above the gate.
# At ftol 1e-6 with a gate of 1e-2, selftest-gauge seeds 1-3 take 5,301
# objective evaluations instead of 6,465 with the same 153 restarts; that
# change waits for a self-test panel at d = 3 to 6.
_LBFGS_FTOL = 1e-8
_POLISH_GATE = 1e-3


def _fit_canonical_vectors(c, alpha, d, restarts, seed, residual_tol):
    """((vectors, weights), Gram residual, restarts run); row j of ``c`` is paired with effect j."""
    n = c.shape[0]
    moduli = alpha[:, None] * c
    # w_jk = (a_j^-2 + a_k^-2) / 2 makes f the verdict's sum_jk (|P_jk|^2 / a_j - C_jk)^2
    inv_sq = 1.0 / alpha**2
    target, weight = (moduli + moduli.T) / 2.0, (inv_sq[:, None] + inv_sq[None, :]) / 2.0
    root_weight = np.sqrt(weight)
    rng = np.random.default_rng(seed)

    def draw():
        return rng.standard_normal(2 * n * d)

    def canonical(x):
        z = x.view(complex).reshape(n, d)
        w = z @ inverse_sqrt(z.conj().T @ z)
        weights = np.einsum("ji,ji->j", w.conj(), w).real
        vectors = w.conj() / np.sqrt(weights)[:, None]
        overlaps = np.abs(vectors.conj() @ vectors.T) ** 2
        return (vectors, weights), float(((overlaps * weights[None, :] - c) ** 2).sum())

    gram_start = _gram_start(target, alpha, d) if d == 2 else None
    x, _, ran = restart_search(
        (
            lambda v: _projector_objective(v, target, weight, n, d),
            lambda v: _projector_residual(v, target, root_weight, n, d),
            lambda v: _projector_jacobian(v, root_weight, n, d),
        ),
        (_LBFGS_FTOL, _POLISH_GATE, 5000),
        lambda x, f: canonical(x)[1],
        draw() if gram_start is None else gram_start.ravel().view(float),
        draw, restarts, residual_tol,
    )
    return *canonical(x), ran


def self_test(
    c: CommMatrix,
    d: int,
    tol: float = 1e-6,
    restarts: int = 32,
    seed: int = DEFAULT_SEED,
    residual_tol: float = GRAM_RESIDUAL_TOL,
) -> SelfTestCertificate:
    """Self-test a square set-up from its information storability.

    The weights a_k = max_j C_jk sum to the storability, and passing requires it
    to reach the dimension d.  Effect k is then paired one-to-one with a state
    ``pairing[k]`` attaining a_k (without one, ``NotSelfTestableError`` is raised
    before any fit).  The canonical rank-1 implementation, effects
    a_k |phi_k><phi_k| and state ``pairing[k]`` = |phi_k><phi_k|, is fitted as
    the rank-d projector P = Z (Z^dag Z)^-1 Z^dag, P_kl = sqrt(a_k a_l) <phi_k|phi_l>,
    to its squared moduli a_k C[pairing[k], l].  Rows w_k of the isometry
    Z (Z^dag Z)^-1/2 give the weights |w_k|^2 and vectors conj(w_k) / |w_k|, so
    the effects sum to the identity for every Z.  The starts run in batches
    of 1, 8, 8, ... (``_linalg.restart_search``, the EB search's schedule)
    through one fit driver, ``_linalg.batch_fit``: each start runs L-BFGS
    (scipy's L-BFGS-B in a batch of one, the numpy batch otherwise) and, if it
    ends near zero, a Gauss-Newton polish.  At d = 2 the first start is the
    set-up rebuilt exactly from the Gram matrix of its effects, which skips
    L-BFGS and is only polished.  The fit sees the effects in a canonical
    order: by weight a_k, then by the sorted paired column C[pairing, k].  The
    sort is stable, so exact ties keep the input order.  Reordering the
    effects then only permutes the canonical vectors and weights; the
    residual and ``restarts`` stay bit-equal.
    Later starts are drawn in turn from one generator seeded by ``seed``.
    While no start's Gram residual is within ``residual_tol`` the next batch
    runs; a batch ends at its first start within ``residual_tol``, which is
    kept.  So ``restarts`` records 1, 9, 17, ... or the whole budget.  All is
    certified modulo a global unitary or antiunitary, which no statistics can
    resolve.

    ``residual_tol`` bounds sum_kl (a_l |<phi_k|phi_l>|^2 - C[pairing[k], l])^2,
    so one weighted overlap can be off by up to about sqrt(residual_tol) (1e-4
    by default).  ``tol`` and ``residual_tol`` must be finite and non-negative,
    ``restarts`` an integer of at least 1 and ``seed`` one of at least 0.
    """
    m, n = c.shape
    if m != n:
        raise DimensionMismatchError(f"self-test needs a square matrix, got {m}x{n}")
    d = check_dimension(d)
    check_integer("restarts", restarts, 1)
    check_integer("seed", seed, 0)
    check_tolerance("tol", tol)
    check_tolerance("residual_tol", residual_tol)
    weights = c.entries.max(axis=0)
    if weights.min() <= 0.0:
        raise PreconditionError(f"column {int(weights.argmin())} is zero; outcome never occurs")
    storability = float(weights.sum())
    if storability > d + tol:
        raise DimensionViolationError(
            f"storability {storability:.9f} exceeds dimension {d}; no {d}-dimensional "
            "implementation exists"
        )
    vectors = canon_weights = residual = pairing = None
    ran = 0
    if abs(storability - d) <= tol:
        from scipy.optimize import linear_sum_assignment

        # a maximum-weight assignment attains every column maximum at once if any pairing does
        pairing = linear_sum_assignment(c.entries.T, maximize=True)[1]
        attained = c.entries[pairing, np.arange(n)].sum()
        if attained < storability - tol:
            raise NotSelfTestableError(
                f"storability {storability:.9f} reaches dimension {d}, but no one-to-one pairing "
                f"of states with effects attains the column maxima (best pairing: {attained:.9f})"
            )
        paired = c.entries[pairing]
        order = np.lexsort((*np.sort(paired, axis=0)[::-1], weights))
        back = np.argsort(order)
        (vectors, canon_weights), residual, ran = _fit_canonical_vectors(
            paired[order][:, order], weights[order], d, restarts, seed, residual_tol
        )
        vectors, canon_weights = vectors[back], canon_weights[back]
    return SelfTestCertificate(
        storability=storability,
        passes=residual is not None and residual <= residual_tol,
        weights=weights,
        canonical_vectors=None if vectors is None else tuple(vectors),
        canonical_weights=canon_weights,
        gram_residual=residual,
        restarts=ran,
        storability_tol=tol,
        residual_tol=residual_tol,
        pairing=None if pairing is None else tuple(int(j) for j in pairing),
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
    slack: float = ROBUSTNESS_SLACK


def robustness_gap(scenario: Scenario) -> RobustnessReport:
    """Noise bounds for a nearly self-testable set-up.

    epsilon = d - storability; the eigenvalue tails of each effect beyond its top
    eigenvalue must sum to at most epsilon, and for each effect/eigenvector pair both
    displayed inequalities (small-eigenvalue and near-top-eigenvalue) are evaluated against
    the column-maximizing state.  All three bounds allow ``ROBUSTNESS_SLACK`` of rounding.
    """
    states, povm = scenario.states, scenario.povm
    c = comm_matrix(states, povm)
    m, n = c.shape
    if m != n:
        raise DimensionMismatchError(f"robustness needs a square matrix, got {m}x{n}")
    d = povm.dim
    eps = d - information_storability(c)
    ev, evec = np.linalg.eigh(np.array(povm.effects))
    ev, evec = ev[:, ::-1], evec[:, :, ::-1]
    tails = ev[:, 1:].sum(axis=1)
    rhos = np.array([states[j].matrix for j in c.entries.argmax(axis=0)])
    fid = np.einsum("kji,kjl,kli->ki", evec.conj(), rhos, evec).real
    rob1_max = float((ev * (1.0 - fid)).max())
    rob2_max = float(((ev[:, :1] - ev) * fid).max())
    return RobustnessReport(
        epsilon=float(eps),
        per_effect_tail=tails,
        bound_holds=bool(tails.sum() <= eps + ROBUSTNESS_SLACK),
        rob1_max=rob1_max,
        rob2_max=rob2_max,
        rob1_holds=bool(rob1_max <= eps + ROBUSTNESS_SLACK),
        rob2_holds=bool(rob2_max <= eps + ROBUSTNESS_SLACK),
    )
