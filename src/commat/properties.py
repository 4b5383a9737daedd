"""Channel-property detection and constructive witnesses.

Builds indistinguishable channel pairs for informationally incomplete set-ups,
decides unitality from the combinations of the states with nonzero trace in
the kernels of C'^T - C^T and C0^T - C^T, and certifies entanglement-breaking implementability
through nonnegative factorizations whose factors are realized by an explicit
measure-and-prepare pair.  Each decides completeness by the rule ``tomography``
inverts frames by (``analysis.certify_info_completeness`` on C's implementation):
a side is complete when it has no kernel vector under ``_linalg.RANK_REL_TOL``.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    RANK_REL_TOL,
    best_start,
    born_matrix,
    frob,
    null_space_of,
    numerical_rank_of,
    restart_search,
)
from .errors import (
    AmbiguityError,
    ArityError,
    CommatError,
    DimensionMismatchError,
    FrameDeficientError,
    NoWitnessExistsError,
    BadReferenceError,
    PreconditionError,
    ValidationError,
    check_dimension,
    check_integer,
    check_tolerance,
)
from .analysis import DEFAULT_SEED, certify_info_completeness, numerical_rank
from .operators import (
    Povm,
    QuantumChannel,
    _states_from_matrices,
    bloch_basis,
    measure_and_prepare_channel,
    state_from_matrix,
    states_dim,
    validate_povm,
)
from .scenario import CommMatrix, Scenario, choi_distance, comm_matrix_with_channel

EB_RESIDUAL_TOL = 1e-8
KERNEL_ZERO_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class IndistinguishablePair:
    """Two distinct channels no measurement on this set-up can tell apart."""

    phi1: QuantumChannel
    phi2: QuantumChannel
    witness_operator: np.ndarray
    case_tag: str


def _orthocomplement_operator(ops, basis) -> np.ndarray | None:
    """First orthonormal basis element of the span's orthocomplement, as a matrix.

    A unit coordinate vector is an operator of Hilbert-Schmidt norm sqrt(d), hence the rescaling.
    """
    null = null_space_of(basis.coords(np.array(ops)))
    if null.shape[1] == 0:
        return None
    return np.tensordot(null[:, 0], basis.elements, axes=1) / np.sqrt(basis.dim)


def _first_distinct_states(states):
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if frob(states[i].matrix - states[j].matrix) >= 1e-3:
                return states[i], states[j]
    return None


def _basis_projector_states(basis):
    """The states |0><0| and |1><1|."""
    units = np.eye(basis.dim, dtype=complex)
    return tuple(state_from_matrix(basis, np.outer(u, u)) for u in units[:2])


def construct_indistinguishable_pair(states, povm: Povm) -> IndistinguishablePair:
    """Constructive counterexample for an informationally incomplete set-up.

    States-incomplete case: a witness A orthogonal to every state splits as
    alpha*I + beta*B1; the dichotomic measurement (I +- t B1)/2 cannot notice
    which of two fixed output states gets prepared.  POVM-incomplete case: a
    traceless B1 orthogonal to every effect shifts the maximally mixed output
    invisibly.  Both channels are measure-and-prepare and produce identical
    statistics on the given set-up.

    The first case prepares two sufficiently distinct input states when
    dimensions allow (this keeps the statistics equal for any number of channel
    uses), and otherwise the first two computational-basis projectors.  No
    states, or states of several dimensions, raise ``DimensionMismatchError``.

    Completeness is full tomography's: with no kernel vector on either side
    under ``RANK_REL_TOL`` both frames invert, and ``NoWitnessExistsError`` is
    raised.  A nearly dependent side whose kernel vector leaves the pair's
    statistics more than 1e-12 apart raises its ``FrameDeficientError``.
    """
    states = tuple(states)
    di = states_dim(states, "an indistinguishable pair needs at least one state")
    do = povm.dim
    basis_out = bloch_basis(do)

    witness = _orthocomplement_operator([s.matrix for s in states], states[0].basis)
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
        b1 = _orthocomplement_operator(povm.effects, basis_out)
        if b1 is None:
            raise NoWitnessExistsError(
                "states and measurement are both informationally complete; every "
                "pair of channels is differentiated"
            )
        b1 = b1 * np.sqrt(do / np.trace(b1 @ b1).real)
        r1 = 1.0 / np.sqrt(do - 1.0)
        zeta_plus = state_from_matrix(basis_out, (np.eye(do) + r1 * b1) / do)
        zeta_minus = state_from_matrix(basis_out, (np.eye(do) - r1 * b1) / do)
        n_plus = np.zeros((di, di), dtype=complex)
        n_plus[0, 0] = 1.0
        phi1 = measure_and_prepare_channel(
            validate_povm([np.eye(di)]), [state_from_matrix(basis_out, np.eye(do) / do)]
        )
        phi2 = measure_and_prepare_channel(
            validate_povm([n_plus, np.eye(di) - n_plus]), [zeta_plus, zeta_minus]
        )
        pair = IndistinguishablePair(
            phi1=phi1, phi2=phi2, witness_operator=b1, case_tag="povm-incomplete"
        )

    c1 = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=pair.phi1))
    c2 = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=pair.phi2))
    gap = np.abs(c1.entries - c2.entries).max()
    if gap > 1e-12:  # a kernel vector of a nearly dependent side is only nearly orthogonal
        side = "states" if pair.case_tag == "states-incomplete" else "effects"
        raise FrameDeficientError(
            f"{side} are nearly dependent: the channels built on their kernel vector "
            f"give statistics that differ by {gap:.3e}, above 1e-12"
        )
    if choi_distance(pair.phi1, pair.phi2) <= 1e-6:
        raise CommatError("constructed channels coincide; output states degenerate")
    return pair


def unital_differentiation_condition(states, d: int) -> bool:
    """True iff the state Bloch vectors span at least d^2 - 1 dimensions.

    ``d`` must be an integer of at least 2 (``InvalidDimensionError``), and the
    states at least one, all of dimension d (``DimensionMismatchError``).
    """
    d, states = check_dimension(d), tuple(states)
    dim = states_dim(states, "the unital differentiation condition needs at least one state")
    if dim != d:
        raise DimensionMismatchError(f"states have dimension {dim}, not d = {d}")
    r = np.column_stack([s.bloch for s in states])
    return numerical_rank_of(r) >= d * d - 1


def _kernel_basis(mat: np.ndarray) -> list:
    ncols = mat.shape[1]
    if np.abs(mat).max() < KERNEL_ZERO_FLOOR:
        return [np.eye(ncols)[:, j] for j in range(ncols)]
    null = null_space_of(mat)
    return [null[:, j] for j in range(null.shape[1])]


@dataclass(frozen=True, eq=False)
class UnitalityVerdict:
    kernel_basis: list
    reference_kernel_basis: list
    verdict: str
    fixed_point_witness: np.ndarray | None = None
    setup_unital_differentiating: bool | None = None
    kernel_tol: float = RANK_REL_TOL


def _trace_direction(kernel: list) -> np.ndarray | None:
    """The all-ones vector's projection onto the span of ``kernel``; None when its
    norm is under ``RANK_REL_TOL`` of the all-ones vector's, so that every kernel
    direction has sum_j alpha_j = 0 (a combination of the states of trace zero)."""
    if not kernel:
        return None
    k = np.array(kernel)
    alpha = k.sum(axis=1) @ k
    return alpha if np.linalg.norm(alpha) > RANK_REL_TOL * np.sqrt(k.shape[1]) else None


def detect_unitality(c: CommMatrix, c0: CommMatrix, cprime: CommMatrix, d: int) -> UnitalityVerdict:
    """Decide unitality of the channel behind C' using the depolarizing reference C0.

    alpha in the kernel of (C'^T - C^T) stands for X = sum_j alpha_j rho_j with
    Phi(X) = X (the measurement being complete), and in that of (C0^T - C^T) for
    X proportional to I.  The states' dependences (X = 0) lie in both, so only
    directions with tr(X) = sum_j alpha_j != 0 count: with none in the reference
    kernel the question is undecidable and the report says instead whether the
    set-up differentiates unital channels; else the channel is unital iff the
    common kernel has one, and the witness is X for alpha the projection of the
    all-ones vector onto it, a multiple of I.  C must carry its implementation
    (``c.provenance``), from which completeness (else ``PreconditionError``), the
    witness and the differentiation condition come.
    """
    if not (c.shape == c0.shape == cprime.shape):
        raise DimensionMismatchError(f"shapes differ: {c.shape}, {c0.shape}, {cprime.shape}")
    d = check_dimension(d)
    row_dev = np.abs(c0.entries - c0.entries[0][None, :]).max()
    if row_dev > 1e-10:
        raise BadReferenceError(
            f"reference matrix rows differ by {row_dev:.3e}; not generated by the "
            "completely depolarizing channel"
        )
    setup = c.provenance
    if setup is None:
        raise PreconditionError(
            "pre-channel matrix carries no implementation; the measurement's "
            "completeness and the witness are read from it"
        )
    report = certify_info_completeness(c, d, (setup.states, setup.povm))
    if not report.povm_complete:
        raise PreconditionError(
            f"effects span only {report.dim_v_m} of {d * d} dimensions: unitality "
            "needs an informationally complete measurement"
        )
    diff0 = c0.entries.T - c.entries.T
    diffp = cprime.entries.T - c.entries.T
    ker0 = _kernel_basis(diff0)
    kerp = _kernel_basis(diffp)
    if _trace_direction(ker0) is None:
        return UnitalityVerdict(
            kernel_basis=kerp,
            reference_kernel_basis=ker0,
            verdict="undecidable",
            setup_unital_differentiating=unital_differentiation_condition(setup.states, d),
        )
    alpha = _trace_direction(_kernel_basis(np.vstack([diffp, diff0])))
    witness = None
    if alpha is not None:
        witness = np.tensordot(alpha, np.array([s.matrix for s in setup.states]), axes=1)
    return UnitalityVerdict(
        kernel_basis=kerp,
        reference_kernel_basis=ker0,
        verdict="non-unital" if alpha is None else "unital",
        fixed_point_witness=witness,
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
    residual, never through an exception.  The starts draw in turn from one
    generator seeded by ``seed``; the search stops at an exact fit, and the
    start kept is ``_linalg.best_start``'s.  ``l`` and ``restarts`` must be
    integers of at least 1 and ``seed`` one of at least 0.
    """
    from scipy.optimize import nnls  # only this search needs scipy.optimize

    check_integer("l", l, 1)
    check_integer("restarts", restarts, 1)
    check_integer("seed", seed, 0)
    target = c.entries
    m, n = target.shape
    rng = np.random.default_rng(seed)
    fits = []
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
        fits.append(((a, b), res))
        if res <= 0.0:
            break
    (a, b), _ = fits[best_start([res for _, res in fits], 0.0)]
    scale = b.sum(axis=1)
    dead = scale < 1e-14
    a[:, dead] = 0.0
    b[dead] = 1.0 / n
    live = ~dead
    a[:, live] *= scale[live][None, :]
    b[live] /= scale[live][:, None]
    residual = frob(target - a @ b)
    return a, b, residual


def _psd_rank_lower_of(a: np.ndarray) -> int:
    """ceil(sqrt(rank a)), from sqrt(rank) <= psd-rank."""
    return int(np.ceil(np.sqrt(numerical_rank_of(a))))


def psd_rank_lower_bound(c: CommMatrix) -> int:
    """ceil(sqrt(rank C)), from sqrt(rank) <= psd-rank."""
    return _psd_rank_lower_of(c.entries)


@dataclass(frozen=True, eq=False)
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


def _embed(z):
    """E(Z) = [[Re Z, -Im Z], [Im Z, Re Z]] of each matrix of a stack.

    E is real-linear and multiplicative, E(Z^dag) = E(Z)^T, and
    <E(X), E(Y)> = 2 Re tr(X^dag Y), so tr(X Y) = <E(X), E(Y)> / 2 for Hermitian X, Y.
    """
    re, im = z.real, z.imag
    return np.concatenate(
        (np.concatenate((re, -im), axis=-1), np.concatenate((im, re), axis=-1)), axis=-2
    )


def _unembed(e):
    """The complex Z of the embedding E(Z) nearest to each real 2d x 2d matrix of a stack.

    Exact on an embedding.  The polar factor of an ill-conditioned stacked E(H) leaves
    the image of E by about eps times the condition number (1e-8 at 1e8), and the
    orthogonal projection onto the image keeps the effects read back Hermitian,
    positive and complete.
    """
    d = e.shape[-1] // 2
    return (e[..., :d, :d] + e[..., d:, d:] + 1j * (e[..., d:, :d] - e[..., :d, d:])) / 2.0


class _MeasurePrepareFit:
    """The EB fit at inner dimension l: r(x) = vec(C' - A B), its Jacobian, ||r||^2, its gradient.

    x is the float view of the stacked complex blocks (H_1 .. H_l, G_1 .. G_l).  The
    effects N_i = T P_i T of P_i = H_i^dag H_i, T = S^(-1/2), S = sum_i P_i, sum to the
    identity by construction, and the states are xi_i = Q_i / tr(Q_i), Q_i = G_i G_i^dag;
    A[j, i] = tr(rho_j N_i) and B[i, k] = tr(xi_i M_k).  All of it runs in real
    arithmetic on the embeddings E(Z) of ``_embed``: numpy multiplies a stack of complex
    matrices with one BLAS call per matrix, so at the qubit and qutrit sizes of the fits
    the same stacks of real 2d x 2d embeddings cost 2 to 5 times less.  The embedding
    doubles the flops: the objective breaks even near d = 4, l = 16 and costs about 25%
    more for one point (60% more for a stack of 7) at d = 6, l = 36.  Each block of x is
    lifted by one fixed (2d^2, 4d^2) matrix, and a gradient comes back through its
    transpose.  The objective, the residual, the Jacobian and the realization share one
    forward pass and one pullback, which take a stack of points on leading axes; the
    set-up's embeddings are built once.
    """

    def __init__(self, rho_arr, eff_arr, target, l):
        self.target, self.l = target, l
        self.d = d = rho_arr.shape[-1]
        # row p of the lift is E of the block whose float view is the unit vector p
        self.lift = _embed(np.eye(2 * d * d).view(complex).reshape(-1, d, d)).reshape(
            2 * d * d, -1
        )
        # halved, so that tr(rho N) = <rho_e, E(N)> and tr(Q M) = <E(Q), eff_e>
        self.rho_e, self.eff_e = _embed(rho_arr) / 2.0, _embed(eff_arr) / 2.0
        self.rho_f = self.rho_e.reshape(len(rho_arr), -1)
        self.eff_f = self.eff_e.reshape(len(eff_arr), -1)
        self.half_eye = np.eye(2 * d) / 2.0           # tr(Q) = tr(E(Q) half_eye)

    def _lift(self, x):
        """E(H_i) and E(G_i), stacked as (..., 2, l, 2d, 2d), of a point or a stack of points."""
        two_d = 2 * self.d
        lifted = x.reshape(-1, self.lift.shape[0]) @ self.lift
        return lifted.reshape(*x.shape[:-1], 2, self.l, two_d, two_d)

    def _forward(self, x):
        """The chain of the pullback, E(N_i), E(Q_i), A, B and r at x.

        The stacked Y_i = E(H_i) T is the polar factor W V^T of the stacked E(H) =
        W diag(sigma) V^T, so the effects Y_i^T Y_i sum to the identity to rounding
        whatever the condition of S.  The eigenvalues of E(S) are sigma^2 and its
        eigenvectors the rows of V^T.
        """
        l, two_d = self.l, 2 * self.d
        lifted = self._lift(x)
        h, g = lifted[..., 0, :, :, :], lifted[..., 1, :, :, :]
        w, sigma, vt = np.linalg.svd(
            h.reshape(*h.shape[:-3], l * two_d, two_d), full_matrices=False
        )
        y = (w @ vt).reshape(h.shape)
        effects = y.swapaxes(-1, -2) @ y
        q = g @ g.swapaxes(-1, -2)
        traces = np.maximum(np.einsum("...iaa->...i", q) / 2.0, 1e-12)   # tr(Q_i)
        a = (effects.reshape(-1, self.lift.shape[1]) @ self.rho_f.T).reshape(*x.shape[:-1], l, -1)
        a = a.swapaxes(-1, -2)                              # A[j, i] = tr(rho_j N_i)
        b = (q.reshape(-1, self.lift.shape[1]) @ self.eff_f.T).reshape(*x.shape[:-1], l, -1)
        b /= traces[..., None]                              # B[i, k] = tr(xi_i M_k)
        return (h, g, traces, y, sigma, vt), effects, q, a, b, self.target - a @ b

    def _pullback(self, chain, w_ops, c_state):
        """Gradients in the packing of x of a batch (leading axes) of cotangents.

        w_ops[..., i] = W_i is the cotangent of E(N_i) and c_state[..., i] that of
        E(Q_i) = E(G_i) E(G_i)^T, both symmetric.  Through N_i = T P_i T, the
        cotangent of P_i is T W_i T plus, through T = S^(-1/2), the term
        E = V (Gamma o V^T K V) V^T common to all i, with K = sum_i (P_i T W_i + its
        transpose) and Gamma the Daleckii-Krein kernel of s^(-1/2).  The chain's stack
        of points broadcasts against the trailing batch axes of the cotangents.
        """
        h, g, _, y, sigma, vt = chain
        l, two_d = self.l, 2 * self.d
        yw = y @ w_ops
        k = h.reshape(*h.shape[:-3], l * two_d, two_d).swapaxes(-1, -2) @ yw.reshape(
            *yw.shape[:-3], l * two_d, two_d
        )
        v = vt.swapaxes(-1, -2)
        k = vt @ (k + k.swapaxes(-1, -2)) @ v
        root = np.maximum(sigma, 1e-100)                # s^(1/2); 1 / s^(3/2) stays finite
        t = (v / root[..., None, :]) @ vt
        rows, cols = root[..., :, None], root[..., None, :]
        gamma = -1.0 / (rows * cols * (rows + cols))
        e = v @ (gamma * k) @ vt
        # d/dE(H_i) = 2 E(H_i) dP_i = 2 (Y_i W_i T + E(H_i) E), and d/dE(G_i) = 2 c_state_i E(G_i)
        grads = np.empty((*yw.shape[:-3], 2, l, two_d, two_d))
        np.matmul(yw, t[..., None, :, :], out=grads[..., 0, :, :, :])
        grads[..., 0, :, :, :] += h @ e[..., None, :, :]
        np.matmul(c_state, g, out=grads[..., 1, :, :, :])
        back = 2.0 * (grads.reshape(-1, self.lift.shape[1]) @ self.lift.T)
        return back.reshape(*yw.shape[:-3], -1)

    def objective(self, x):
        """f = ||r||^2 and its gradient at x (N,), or at each row of a stack x (k, N),
        where f is (k,) and the gradients (k, N)."""
        chain, _, _, a, b, r = self._forward(x)
        l, two_d, traces = self.l, 2 * self.d, chain[2]
        w = -2.0 * (r @ b.swapaxes(-1, -2))             # df/dA
        v = -2.0 * (a.swapaxes(-1, -2) @ r) / traces[..., None]  # df/dB[i, k] / tr(Q_i)
        w_ops = (w.swapaxes(-1, -2) @ self.rho_f).reshape(*x.shape[:-1], l, two_d, two_d)
        # d/dE(Q_i) = sum_k v[i, k] E(M_k) / 2 - (v_i . b_i) I / 2, from the trace normalization
        c_state = (v @ self.eff_f).reshape(*x.shape[:-1], l, two_d, two_d)
        c_state -= np.einsum("...ik,...ik->...i", v, b)[..., None, None] * self.half_eye
        f = np.einsum("...jk,...jk->...", r, r)
        return (float(f) if x.ndim == 1 else f), self._pullback(chain, w_ops, c_state)

    def residual(self, x):
        return self._forward(x)[5].ravel()

    def jacobian(self, x):
        """d r_jk / dx, batched over the unit cotangents of the m n residual entries.

        The cotangent of r_jk puts W_i = -B[i, k] E(rho_j) / 2 on the effects and
        -A[j, i] (E(M_k) - B[i, k] I) / (2 tr(Q_i)) on E(Q_i).
        """
        chain, _, _, a, b, _ = self._forward(x)
        traces = chain[2]
        w_ops = -b.T[None, :, :, None, None] * self.rho_e[:, None, None]
        dq = (self.eff_e - b[:, :, None, None] * self.half_eye) / traces[:, None, None, None]
        c_state = -a[:, None, :, None, None] * dq.swapaxes(0, 1)
        return self._pullback(chain, w_ops, c_state).reshape(-1, x.size)


def _realize_measure_prepare(fit, x, rho_states, povm):
    """The measurement N and states xi that the fit's point x stands for, read off its
    forward pass, with their factors and the residual of C' they leave."""
    chain, effects, q, *_ = fit._forward(x)
    traces = chain[2]
    n_povm = validate_povm(list(_unembed(effects)))
    xi_states = _states_from_matrices(rho_states[0].basis, _unembed(q) / traces[:, None, None])
    a, b = _realization_factors(rho_states, povm, n_povm, xi_states)
    return n_povm, xi_states, a, b, frob(fit.target - a @ b)


# The EB fit is ``_linalg.batch_fit``: L-BFGS-B for a batch of one start, the numpy
# L-BFGS for more, and the same polish after either.  Sweep, run with L-BFGS-B on every
# start (eb-search seeds 1-8, 96 EB inputs; the qutrit panel of the tests, 20
# inputs): ftol 1e-12 with a gate of 1e-3 certifies 96/96 and 20/20 in 33,615 and 10,584
# objective evaluations, ftol 1e-7 with a gate of 1e-2 the same in 21,794 and 1,402.  The fits break
# at ftol 1e-5 (panel 13/20) and with the gate at 1e-3 (ftol 1e-6: 80/96).  No
# non-EB end point came within 4.8e-2 of zero at either setting.  An
# uncertified search reports its floor only to about ftol / (2 r).
_LBFGS_FTOL = 1e-7
_POLISH_GATE = 1e-2
_LBFGS_MAXITER = 2000


def _fit_measure_prepare(cprime, rho_states, povm, l, restarts, seed, residual_tol):
    """Fit an l-outcome measurement and l states whose factors reproduce C'.

    The measurement is complete by construction (``_MeasurePrepareFit``), so the
    objective is the squared residual of the realization the verdict tests.
    Every start is a standard normal draw from one generator seeded by ``seed``.
    The starts run on ``_linalg.restart_search``'s schedule, the self-test's: a
    batch of one, then batches of ``_linalg.BATCH_STARTS`` that end at their
    first start within ``residual_tol``.  Each runs L-BFGS on ||r||^2 to
    ``_LBFGS_FTOL`` then, only if its end point's residual is at most
    ``_POLISH_GATE``, a Gauss-Newton polish of r(x) with the analytic Jacobian.
    Only the start kept is realized, once, after the search.  Returns its
    realization (N, xi, A, B, residual) and the number of starts run.
    """
    rho_arr = np.stack([s.matrix for s in rho_states])
    fit = _MeasurePrepareFit(rho_arr, np.stack(povm.effects), cprime.entries, l)
    rng = np.random.default_rng(seed)

    def draw():
        # drawing in the order (H, G) x (re, im) x d x d fixes each seed's starts
        return rng.standard_normal((2, l, 2, fit.d, fit.d)).transpose(0, 1, 3, 4, 2).ravel()

    x, _, ran = restart_search(
        (fit.objective, fit.residual, fit.jacobian),
        (_LBFGS_FTOL, _POLISH_GATE, _LBFGS_MAXITER),
        lambda x, f: np.sqrt(f),                        # f = ||r(x)||^2
        draw(), draw, restarts, residual_tol,
    )
    return _realize_measure_prepare(fit, x, rho_states, povm), ran


def _realization_factors(rho_states, povm, n_povm, xi_states):
    """Factors A[j, i] = tr(rho_j N_i) and B[i, k] = tr(xi_i M_k) of a realization."""
    a = born_matrix([s.matrix for s in rho_states], n_povm.effects)
    b = born_matrix([s.matrix for s in xi_states], povm.effects)
    return a, b


def _checked_realization(realization, rho_states, povm) -> tuple:
    """A given (N, xi) as a measurement and a tuple of states, once they fit the set-up:
    N on the dimension of its states, each xi on that of its measurement, and as many
    states as effects, at least one."""
    n_povm, xi_states = realization
    xi_states = tuple(xi_states)
    if not xi_states or len(xi_states) != len(n_povm.effects):
        raise ArityError(
            f"realization has {len(n_povm.effects)} effects and {len(xi_states)} states; "
            "it needs one state per effect and at least one of each"
        )
    d_in, d_out = rho_states[0].dim, povm.dim
    if n_povm.dim != d_in or any(xi.dim != d_out for xi in xi_states):
        dims = sorted({xi.dim for xi in xi_states})
        raise DimensionMismatchError(
            f"realization measures dimension {n_povm.dim} and prepares dimension "
            f"{', '.join(map(str, dims))}; the set-up's states have dimension {d_in} and "
            f"its measurement {d_out}"
        )
    return n_povm, xi_states


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
    ``realization`` the inner dimension is searched from rank(C') to ``l_max``;
    since rank(A B) <= l, rank(C') above ``l_max`` raises a precondition error
    before any search.  Each fit keeps its measurement complete by construction
    and minimizes exactly the squared residual that the verdict then tests:
    a loose L-BFGS stop (``ftol`` 1e-7), then, for fits that end within 1e-2
    of zero, a Gauss-Newton polish with minimum-norm steps that reaches
    ``residual_tol`` where L-BFGS's stop rule cannot.  Fits that end far from
    zero are not polished, and only the best start of each inner dimension is
    realized.  The starts of an inner dimension run on the self-test's
    schedule (``_linalg.restart_search``) through its fit driver
    (``_linalg.batch_fit``): a batch of one start, which runs scipy's
    L-BFGS-B, then, while none is within ``residual_tol``, batches of 8, which
    run the numpy L-BFGS with the same stop rule, and a batch ends at its
    first start within tolerance (a last batch of one start runs L-BFGS-B).
    So each inner dimension adds 1, 9, 17, ... or ``restarts`` to the
    certificate's ``restarts`` (1 or 8 at the default budget), also when a
    start early in a batch certifies.

    With ``claim="channel"`` the verdict is about the channel itself, which is
    only sound when ``certify_info_completeness`` finds both sides of C's
    implementation complete; else an ambiguity error names the side that is not.
    ``claim`` is ``"matrix"`` or ``"channel"``; any other value is a
    validation error, and so is a ``residual_tol`` that is not finite and
    non-negative, a ``restarts`` or ``l_max`` that is not an integer of at
    least 1 and a ``seed`` that is not one of at least 0.

    A failed search is non-exhaustive evidence only (exact nonnegative
    factorization is NP-hard); the restart budget and best residual are
    recorded so callers can judge confidence.  A best residual above the polish
    gate is an L-BFGS-B end point, precise only to about ftol / (2 residual):
    0.3849002 for the identity channel on the SIC qubit set-up.
    """
    if c.shape[0] != cprime.shape[0] or c.shape[1] != cprime.shape[1]:
        raise DimensionMismatchError(f"shapes differ: {c.shape} vs {cprime.shape}")
    d = check_dimension(d)
    if claim not in ("matrix", "channel"):
        raise ValidationError(f"unknown claim level {claim!r}; expected 'matrix' or 'channel'")
    check_integer("restarts", restarts, 1)
    check_integer("seed", seed, 0)
    check_integer("l_max", l_max, 1)
    check_tolerance("residual_tol", residual_tol)
    if c.provenance is None:
        raise PreconditionError(
            "pre-channel matrix carries no implementation; states and measurement "
            "are needed to realize the factors"
        )
    rho_states = c.provenance.states
    povm = c.provenance.povm
    if claim == "channel":
        r = certify_info_completeness(c, d, (rho_states, povm))
        sides = (("states", r.dim_v_rho, r.states_complete), ("effects", r.dim_v_m, r.povm_complete))
        short = [f"{side} span only {dim} of {d * d} dimensions"
                 for side, dim, complete in sides if not complete]
        if short:
            raise AmbiguityError(
                f"{' and '.join(short)}: only implementability by some "
                "entanglement-breaking channel can be decided, not the channel itself"
            )
    if realization is not None:
        realization = _checked_realization(realization, rho_states, povm)
    rank_cp = numerical_rank(cprime)
    if realization is None and rank_cp > l_max:
        raise PreconditionError(
            f"rank(C') = {rank_cp} exceeds l_max = {l_max}: no factorization C' = A B "
            "with inner dimension at most l_max exists, since rank(A B) <= l"
        )
    used_restarts = 0
    if realization is not None:
        n_povm, xi_states = realization
        a, b = _realization_factors(rho_states, povm, n_povm, xi_states)
        l = len(n_povm.effects)
        residual = frob(cprime.entries - a @ b)
        attempts = [(l, n_povm, xi_states, a, b, residual)]
    else:
        attempts = []
        for l in range(max(1, rank_cp), l_max + 1):
            (n_povm, xi_states, a, b, residual), ran = _fit_measure_prepare(
                cprime, rho_states, povm, l, restarts, seed + l, residual_tol
            )
            used_restarts += ran
            attempts.append((l, n_povm, xi_states, a, b, residual))
            if residual <= residual_tol:
                break
    l, n_povm, xi_states, a, b, residual = min(attempts, key=lambda t: t[5])
    certified = residual <= residual_tol
    xi_arr = np.array([s.matrix for s in xi_states])
    dim_v_n = numerical_rank_of(rho_states[0].basis.coords(np.array(n_povm.effects)))
    dim_v_xi = numerical_rank_of(xi_states[0].basis.coords(xi_arr))
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
        psd_rank_lower_a=_psd_rank_lower_of(a),
        psd_rank_lower_b=_psd_rank_lower_of(b),
        verdict="certified-EB-implementable" if certified else "no-certificate-found",
        rank_bounds_report=bounds,
        dim_v_n=dim_v_n,
        dim_v_xi=dim_v_xi,
        restarts=used_restarts,
        residual_tol=residual_tol,
        note=note,
    )
