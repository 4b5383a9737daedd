"""Channel-property detection and constructive witnesses.

Builds indistinguishable channel pairs for informationally incomplete set-ups,
decides unitality from kernel shifts of communication matrices, and certifies
entanglement-breaking implementability through nonnegative factorizations whose
factors are realized by an explicit measure-and-prepare pair.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, nnls

from ._linalg import (
    born_matrix,
    frob,
    herm_to_real_vec,
    null_space_of,
    numerical_rank_of,
    real_vec_to_herm,
    stacked_herm_coords,
)
from .errors import (
    AmbiguityError,
    CommatError,
    DimensionMismatchError,
    InvalidDimensionError,
    NoWitnessExistsError,
    BadReferenceError,
    PreconditionError,
)
from .analysis import DEFAULT_SEED, RANK_REL_TOL, numerical_rank
from .operators import (
    DensityOperator,
    Povm,
    QuantumChannel,
    bloch_basis,
    completely_depolarizing_channel,
    measure_and_prepare_channel,
    state_from_matrix,
    validate_povm,
)
from .scenario import CommMatrix, choi_distance, comm_matrix

EB_RESIDUAL_TOL = 1e-8
KERNEL_ZERO_FLOOR = 1e-12


@dataclass(frozen=True)
class IndistinguishablePair:
    """Two distinct channels no measurement on this set-up can tell apart."""

    phi1: QuantumChannel
    phi2: QuantumChannel
    witness_operator: np.ndarray
    case_tag: str


def _orthocomplement_operator(ops, dim, rel_tol=RANK_REL_TOL) -> np.ndarray | None:
    """First orthonormal basis element of the span's orthocomplement, as a matrix."""
    null = null_space_of(stacked_herm_coords(ops), rel_tol)
    if null.shape[1] == 0:
        return None
    return real_vec_to_herm(null[:, 0], dim)


def _first_distinct_states(states, min_dist=1e-3):
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if frob(states[i].matrix - states[j].matrix) >= min_dist:
                return states[i], states[j]
    return None


def _basis_projector_states(basis, indices=(0, 1)):
    out = []
    for i in indices:
        m = np.zeros((basis.dim, basis.dim), dtype=complex)
        m[i, i] = 1.0
        out.append(state_from_matrix(basis, m))
    return tuple(out)


def construct_indistinguishable_pair(
    states,
    povm: Povm,
    output_states: tuple | None = None,
    dichotomic_effect: np.ndarray | None = None,
) -> IndistinguishablePair:
    """Constructive counterexample for an informationally incomplete set-up.

    States-incomplete case: a witness A orthogonal to every state splits as
    alpha*I + beta*B1; the dichotomic measurement (I +- t B1)/2 cannot notice
    which of two fixed output states gets prepared.  POVM-incomplete case: a
    traceless B1 orthogonal to every effect shifts the maximally mixed output
    invisibly.  Both channels are measure-and-prepare and produce identical
    statistics on the given set-up.

    ``output_states`` overrides the prepared pair in the first case.  By
    default two sufficiently distinct input states are reused when dimensions
    allow (this keeps the statistics equal for any number of channel uses);
    otherwise the first two computational-basis projectors are taken.
    """
    states = tuple(states)
    di = states[0].dim
    do = povm.dim
    basis_out = bloch_basis(do)

    witness = _orthocomplement_operator([s.matrix for s in states], di)
    if witness is not None:
        alpha = np.trace(witness).real / di
        a0 = witness - alpha * np.eye(di)
        beta = np.sqrt(np.trace(a0 @ a0).real / di)
        if beta <= 1e-12:
            raise CommatError("witness orthogonal to unit-trace states cannot be scalar")
        b1 = a0 / beta
        t = 1.0 / np.sqrt(di - 1.0)
        n_plus = 0.5 * (np.eye(di) + t * b1)
        n_minus = 0.5 * (np.eye(di) - t * b1)
        p = 0.5 * (1.0 - t * alpha / beta)
        if output_states is not None:
            xi1, xi2 = output_states
        else:
            pair = _first_distinct_states(states) if di == do else None
            xi1, xi2 = pair if pair is not None else _basis_projector_states(basis_out)
        mix = state_from_matrix(basis_out, p * xi1.matrix + (1.0 - p) * xi2.matrix)
        phi1 = measure_and_prepare_channel(
            validate_povm([np.eye(di)]), [mix]
        )
        phi2 = measure_and_prepare_channel(
            validate_povm([n_plus, n_minus]), [xi1, xi2]
        )
        pair = IndistinguishablePair(
            phi1=phi1, phi2=phi2, witness_operator=witness, case_tag="states-incomplete"
        )
    else:
        b1 = _orthocomplement_operator(list(povm.effects), do)
        if b1 is None:
            raise NoWitnessExistsError(
                "states and measurement are both informationally complete; every "
                "pair of channels is differentiated"
            )
        b1 = b1 * np.sqrt(do / np.trace(b1 @ b1).real)
        r1 = 1.0 / np.sqrt(do - 1.0)
        zeta_plus = state_from_matrix(basis_out, (np.eye(do) + r1 * b1) / do)
        zeta_minus = state_from_matrix(basis_out, (np.eye(do) - r1 * b1) / do)
        if dichotomic_effect is not None:
            n_plus = np.asarray(dichotomic_effect, dtype=complex)
        else:
            n_plus = np.zeros((di, di), dtype=complex)
            n_plus[0, 0] = 1.0
        phi1 = completely_depolarizing_channel(basis_out) if di == do else (
            measure_and_prepare_channel(
                validate_povm([np.eye(di)]),
                [state_from_matrix(basis_out, np.eye(do) / do)],
            )
        )
        phi2 = measure_and_prepare_channel(
            validate_povm([n_plus, np.eye(di) - n_plus]), [zeta_plus, zeta_minus]
        )
        pair = IndistinguishablePair(
            phi1=phi1, phi2=phi2, witness_operator=b1, case_tag="povm-incomplete"
        )

    c1 = comm_matrix([_out_state(pair.phi1, s, basis_out) for s in states], povm)
    c2 = comm_matrix([_out_state(pair.phi2, s, basis_out) for s in states], povm)
    if np.abs(c1.entries - c2.entries).max() > 1e-12:
        raise CommatError("constructed channels fail to give equal statistics")
    if choi_distance(pair.phi1, pair.phi2) <= 1e-6:
        raise CommatError("constructed channels coincide; output states degenerate")
    return pair


def _out_state(ch: QuantumChannel, s: DensityOperator, basis_out) -> DensityOperator:
    from .operators import apply_channel

    return state_from_matrix(basis_out, apply_channel(ch, s.matrix))


def unital_differentiation_condition(states, d: int, rel_tol: float = RANK_REL_TOL) -> bool:
    """True iff the state Bloch vectors span at least d^2 - 1 dimensions."""
    r = np.column_stack([s.bloch for s in states])
    return numerical_rank_of(r, rel_tol) >= d * d - 1


def _kernel_basis(mat: np.ndarray, rel_tol: float) -> list:
    ncols = mat.shape[1]
    if np.abs(mat).max() < KERNEL_ZERO_FLOOR:
        return [np.eye(ncols)[:, j] for j in range(ncols)]
    null = null_space_of(mat, rel_tol)
    return [null[:, j] for j in range(null.shape[1])]


def kernel_shift(c: CommMatrix, cprime: CommMatrix, tol: float = 1e-9) -> list:
    """Orthonormal basis of the numerical kernel of (C'^T - C^T).

    Vectors alpha in this kernel correspond to operators sum_j alpha_j rho_j
    fixed by the channel.  A numerically zero difference returns the full
    standard basis; a trivial kernel returns an empty list.
    """
    if c.shape != cprime.shape:
        raise DimensionMismatchError(f"shapes differ: {c.shape} vs {cprime.shape}")
    diff = cprime.entries.T - c.entries.T
    return _kernel_basis(diff, tol)


@dataclass(frozen=True)
class UnitalityVerdict:
    kernel_basis: list
    reference_kernel_basis: list
    verdict: str
    fixed_point_witness: np.ndarray | None = None
    setup_unital_differentiating: bool | None = None
    kernel_tol: float = 1e-9


def detect_unitality(
    c: CommMatrix,
    c0: CommMatrix,
    cprime: CommMatrix,
    d: int,
    povm_complete: bool,
    states=None,
    tol: float = 1e-9,
) -> UnitalityVerdict:
    """Decide unitality of the channel behind C' using the depolarizing reference C0.

    With a trivial reference kernel the per-channel question is undecidable and
    the report instead says whether rank(C) >= d^2 - 1 certifies the set-up for
    differentiating unital channels.  Otherwise the channel is unital iff the
    kernels of (C'^T - C^T) and (C0^T - C^T) intersect nontrivially.
    """
    if not (c.shape == c0.shape == cprime.shape):
        raise DimensionMismatchError(
            f"shapes differ: {c.shape}, {c0.shape}, {cprime.shape}"
        )
    if d < 2:
        raise InvalidDimensionError(f"dimension must be at least 2, got {d}")
    row_dev = np.abs(c0.entries - c0.entries[0][None, :]).max()
    if row_dev > 1e-10:
        raise BadReferenceError(
            f"reference matrix rows differ by {row_dev:.3e}; not generated by the "
            "completely depolarizing channel"
        )
    if not povm_complete and numerical_rank(c) < d * d:
        raise PreconditionError(
            "measurement informational completeness neither asserted nor certified"
        )
    diff0 = c0.entries.T - c.entries.T
    diffp = cprime.entries.T - c.entries.T
    ker0 = _kernel_basis(diff0, tol)
    kerp = _kernel_basis(diffp, tol)
    if not ker0:
        return UnitalityVerdict(
            kernel_basis=kerp,
            reference_kernel_basis=ker0,
            verdict="undecidable",
            setup_unital_differentiating=numerical_rank(c) >= d * d - 1,
            kernel_tol=tol,
        )
    common = _kernel_basis(np.vstack([diffp, diff0]), tol)
    verdict = "unital" if common else "non-unital"
    witness = None
    if common and states is not None:
        alpha = common[0]
        witness = sum(a * s.matrix for a, s in zip(alpha, states))
    return UnitalityVerdict(
        kernel_basis=kerp,
        reference_kernel_basis=ker0,
        verdict=verdict,
        fixed_point_witness=witness,
        kernel_tol=tol,
    )


def nonnegative_factorization(
    c: CommMatrix,
    l: int,
    restarts: int = 16,
    seed: int = DEFAULT_SEED,
    max_iter: int = 300,
) -> tuple:
    """Best-of-restarts alternating nonnegative least squares C ~ A B.

    A is renormalized row-stochastic with the scale absorbed into B (exact for
    exact fits of a row-stochastic C); the returned residual is the Frobenius
    norm of C - A B after renormalization.  A poor fit is reported through the
    residual, never through an exception.
    """
    if l < 1:
        raise InvalidDimensionError(f"inner dimension must be >= 1, got {l}")
    target = c.entries
    m, n = target.shape
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        a = rng.uniform(0.1, 1.0, size=(m, l))
        b = rng.uniform(0.1, 1.0, size=(l, n))
        prev = np.inf
        for _ in range(max_iter):
            for j in range(m):
                a[j], _ = nnls(b.T, target[j])
            for k in range(n):
                b[:, k], _ = nnls(a, target[:, k])
            res = frob(target - a @ b)
            if prev - res < 1e-15:
                break
            prev = res
        if best is None or res < best[2]:
            best = (a, b, res)
    a, b, _ = best
    scale = b.sum(axis=1)
    dead = scale < 1e-14
    a = a.copy()
    b = b.copy()
    a[:, dead] = 0.0
    b[dead] = 1.0 / n
    live = ~dead
    a[:, live] *= scale[live][None, :]
    b[live] /= scale[live][:, None]
    residual = frob(target - a @ b)
    return a, b, residual


def psd_rank_lower_bound(c: CommMatrix) -> int:
    """ceil(sqrt(rank C)), from sqrt(rank) <= psd-rank."""
    return int(np.ceil(np.sqrt(numerical_rank(c))))


@dataclass(frozen=True)
class EbCertificate:
    factor_a: np.ndarray
    factor_b: np.ndarray
    inner_dim: int
    residual: float
    psd_rank_lower_a: int
    psd_rank_lower_b: int
    verdict: str
    rank_bounds_report: tuple | None
    dim_v_n: int | None = None
    dim_v_xi: int | None = None
    restarts: int = 0
    residual_tol: float = EB_RESIDUAL_TOL
    note: str = ""


def _herm_sqrt(m: np.ndarray) -> np.ndarray:
    ev, evec = np.linalg.eigh(m)
    ev = np.clip(ev, 0.0, None)
    return evec @ np.diag(np.sqrt(ev)) @ evec.conj().T


def _inv_sqrt(m: np.ndarray) -> np.ndarray:
    ev, evec = np.linalg.eigh(m)
    ev = np.clip(ev, 1e-300, None)
    return evec @ np.diag(1.0 / np.sqrt(ev)) @ evec.conj().T


def _unpack_mp_params(x, l, d):
    """Raw positive effects P_i = H_i^dag H_i and unit-trace states from the packing."""
    blocks = x.reshape(2, l, 2, d, d)
    h = blocks[0, :, 0] + 1j * blocks[0, :, 1]
    g = blocks[1, :, 0] + 1j * blocks[1, :, 1]
    effects_p = np.einsum("iab,iac->ibc", h.conj(), h)
    q = np.einsum("iab,icb->iac", g, g.conj())
    traces = np.maximum(np.einsum("iaa->i", q).real, 1e-12)
    states = q / traces[:, None, None]
    return h, g, effects_p, states, traces


def _mp_objective(x, rho_arr, eff_arr, target, l, d, mu=1.0):
    """Squared fit error plus a completeness penalty, with its analytic gradient.

    Effects are optimized unnormalized (penalty mu * ||sum P_i - I||^2 keeps the
    measurement valid at the optimum); states are trace-normalized inline.
    """
    h, g, effects_p, states, traces = _unpack_mp_params(x, l, d)
    a = born_matrix(rho_arr, effects_p)
    b = born_matrix(states, eff_arr)
    r = target - a @ b
    defect = effects_p.sum(axis=0) - np.eye(d)
    f = float((r * r).sum()) + mu * float(np.abs(defect * defect.conj()).sum())

    w = -2.0 * (r @ b.T)            # df/dA
    v = -2.0 * (a.T @ r)            # df/dB
    grad_h = np.empty_like(h)
    grad_g = np.empty_like(g)
    for i in range(l):
        # effect side: A[j, i] = tr(rho_j P_i), P_i = H_i^dag H_i
        c_eff = np.einsum("j,jab->ab", w[:, i], rho_arr) + 2.0 * mu * defect
        grad_h[i] = h[i] @ c_eff
        # state side: B[i, k] = tr(Q_i M_k) / tr(Q_i), Q_i = G_i G_i^dag
        c_state = np.einsum("k,kab->ab", v[i], eff_arr) - float(v[i] @ b[i]) * np.eye(d)
        grad_g[i] = (c_state / traces[i]) @ g[i]
    grad = np.empty((2, l, 2, d, d))
    grad[0, :, 0], grad[0, :, 1] = 2.0 * grad_h.real, 2.0 * grad_h.imag
    grad[1, :, 0], grad[1, :, 1] = 2.0 * grad_g.real, 2.0 * grad_g.imag
    return f, grad.ravel()


def _anls_seed_params(cprime, rho_arr, eff_arr, l, d, seed):
    """Warm start from a plain nonnegative factorization pulled back to operators."""
    a0, b0, _ = nonnegative_factorization(cprime, l, restarts=4, seed=seed)
    cs = np.vstack([herm_to_real_vec(r) for r in rho_arr])
    cm = np.vstack([herm_to_real_vec(e) for e in eff_arr])
    n_coords = np.linalg.pinv(cs) @ a0
    xi_coords = np.linalg.pinv(cm) @ b0.T
    x = np.zeros((2, l, 2, d, d))
    for i in range(l):
        n_i = _herm_sqrt(real_vec_to_herm(n_coords[:, i], d))
        xi_i = real_vec_to_herm(xi_coords[:, i], d)
        tr = np.trace(xi_i).real
        xi_i = np.eye(d) / d if tr < 1e-12 else xi_i / tr
        g_i = _herm_sqrt(xi_i)
        x[0, i, 0], x[0, i, 1] = n_i.real, n_i.imag
        x[1, i, 0], x[1, i, 1] = g_i.real, g_i.imag
    return x.ravel()


def _fit_measure_prepare(cprime, rho_states, povm, l, restarts, seed):
    """Fit an l-outcome measurement and l states whose factors reproduce C'."""
    d = rho_states[0].dim
    rho_arr = np.stack([s.matrix for s in rho_states])
    eff_arr = np.stack(povm.effects)
    target = cprime.entries
    rng = np.random.default_rng(seed)
    size = 4 * l * d * d
    best_x, best_f = None, np.inf
    for trial in range(restarts):
        if trial == 0:
            x0 = _anls_seed_params(cprime, rho_arr, eff_arr, l, d, seed)
        else:
            x0 = rng.standard_normal(size)
        res = minimize(
            _mp_objective,
            x0,
            args=(rho_arr, eff_arr, target, l, d),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 2000, "ftol": 1e-18, "gtol": 1e-14},
        )
        if res.fun < best_f:
            best_x, best_f = res.x, res.fun
        if best_f < (EB_RESIDUAL_TOL * 0.1) ** 2:
            break
    ran = trial + 1
    _, _, effects_p, xi, _ = _unpack_mp_params(best_x, l, d)
    total = effects_p.sum(axis=0)
    if np.linalg.eigvalsh(total)[0] > 1e-8:
        fix = _inv_sqrt(total)
        effects_n = np.einsum("ab,ibc,cd->iad", fix, effects_p, fix)
    else:
        effects_n = np.stack([np.eye(d, dtype=complex) / l] * l)
        xi = np.stack([np.eye(d, dtype=complex) / d] * l)
    basis = rho_states[0].basis
    n_povm = validate_povm(list(effects_n))
    xi_states = [state_from_matrix(basis, m) for m in xi]
    a, b = _realization_factors(rho_states, povm, n_povm, xi_states)
    residual = frob(target - a @ b)
    return n_povm, xi_states, a, b, residual, ran


def _realization_factors(rho_states, povm, n_povm, xi_states):
    """Factors A[j, i] = tr(rho_j N_i) and B[i, k] = tr(xi_i M_k) of a realization."""
    a = born_matrix([s.matrix for s in rho_states], n_povm.effects)
    b = born_matrix([s.matrix for s in xi_states], povm.effects)
    return a, b


def eb_certificate(
    c: CommMatrix,
    cprime: CommMatrix,
    d: int,
    l_max: int,
    seed: int = DEFAULT_SEED,
    restarts: int = 8,
    claim: str = "matrix",
    realization: tuple | None = None,
    residual_tol: float = EB_RESIDUAL_TOL,
) -> EbCertificate:
    """Certify that C' is implementable by an entanglement-breaking channel.

    A certificate is an explicit measure-and-prepare pair (N, xi) whose induced
    factors A[j, i] = tr(rho_j N_i) and B[i, k] = tr(xi_i M_k) reproduce C'
    within ``residual_tol``; both factors are then communication matrices of the
    trusted dimension, so their psd-rank is at most d.  Without a supplied
    ``realization`` the inner dimension is searched from rank(C') to ``l_max``.

    With ``claim="channel"`` the verdict is about the channel itself, which is
    only sound when rank(C) = d^2; anything less raises an ambiguity error.

    A failed search is non-exhaustive evidence only (exact nonnegative
    factorization is NP-hard); the restart budget and best residual are
    recorded so callers can judge confidence.
    """
    if c.shape[0] != cprime.shape[0] or c.shape[1] != cprime.shape[1]:
        raise DimensionMismatchError(f"shapes differ: {c.shape} vs {cprime.shape}")
    if d < 2:
        raise InvalidDimensionError(f"dimension must be at least 2, got {d}")
    if claim not in ("matrix", "channel"):
        raise ValueError(f"unknown claim level {claim!r}")
    rank_c = numerical_rank(c)
    if claim == "channel" and rank_c < d * d:
        raise AmbiguityError(
            f"rank(C) = {rank_c} < {d * d}: only implementability by some "
            "entanglement-breaking channel can be decided, not the channel itself"
        )
    if c.provenance is None:
        raise PreconditionError(
            "pre-channel matrix carries no implementation; states and measurement "
            "are needed to realize the factors"
        )
    rho_states = c.provenance.states
    povm = c.provenance.povm
    rank_cp = numerical_rank(cprime)

    if realization is not None:
        n_povm, xi_states = realization
        xi_states = tuple(xi_states)
        a, b = _realization_factors(rho_states, povm, n_povm, xi_states)
        l = len(n_povm.effects)
        residual = frob(cprime.entries - a @ b)
        attempts = [(l, n_povm, xi_states, a, b, residual)]
        used_restarts = 0
    else:
        attempts = []
        used_restarts = 0
        for l in range(max(1, rank_cp), l_max + 1):
            n_povm, xi_states, a, b, residual, ran = _fit_measure_prepare(
                cprime, rho_states, povm, l, restarts, seed + l
            )
            used_restarts += ran
            attempts.append((l, n_povm, xi_states, a, b, residual))
            if residual <= residual_tol:
                break
    l, n_povm, xi_states, a, b, residual = min(attempts, key=lambda t: t[5])
    certified = residual <= residual_tol
    dim_v_n = numerical_rank_of(stacked_herm_coords(list(n_povm.effects)))
    dim_v_xi = numerical_rank_of(stacked_herm_coords([s.matrix for s in xi_states]))
    bounds = (
        min(dim_v_xi, dim_v_n) >= rank_cp,
        max(dim_v_xi, dim_v_n) <= l,
    )
    if certified:
        note = ""
    else:
        note = (
            "no certificate found within the restart budget; the search is "
            "non-exhaustive and this is statistical, not conclusive, evidence"
        )
    return EbCertificate(
        factor_a=a,
        factor_b=b,
        inner_dim=l,
        residual=residual,
        psd_rank_lower_a=int(np.ceil(np.sqrt(numerical_rank_of(a)))),
        psd_rank_lower_b=int(np.ceil(np.sqrt(numerical_rank_of(b)))),
        verdict="certified-EB-implementable" if certified else "no-certificate-found",
        rank_bounds_report=bounds,
        dim_v_n=dim_v_n,
        dim_v_xi=dim_v_xi,
        restarts=used_restarts,
        residual_tol=residual_tol,
        note=note,
    )
