"""Channel reconstruction from communication matrices by linear inversion.

Three routes: full tomography through a dual frame of a known informationally
complete set-up, unital-channel tomography through the right pseudoinverse of
the state Bloch-vector matrix, and gauge-level tomography where the set-up is
first recovered by self-testing so the result is fixed only up to a global
unitary or antiunitary conjugation.  The three routes share one rule for
inverting a frame: each side's coordinate matrix must have full row rank and a
condition number of at most ``FRAME_MAX_COND``, else the side's own error.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._linalg import RANK_REL_TOL, frob, rank_of_spectrum
from .errors import (
    DimensionMismatchError,
    FrameDeficientError,
    InsufficientStatesError,
    NotInformationallyCompleteError,
    NotSelfTestableError,
    PreconditionError,
    check_dimension,
)
from .analysis import (
    DEFAULT_SEED,
    GRAM_RESIDUAL_TOL,
    SelfTestCertificate,
    numerical_rank,
    self_test,
)
from .operators import (
    BlochBasis,
    Povm,
    QuantumChannel,
    bloch_basis,
    channel_from_bloch,
)
from .scenario import CommMatrix

FRAME_MAX_COND = 1e7
CPTP_WARN_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class TomographyFrame:
    """Dual-frame coefficients expanding each basis element in states/effects."""

    alpha: np.ndarray
    beta: np.ndarray
    basis_in: BlochBasis = field(repr=False)
    basis_out: BlochBasis = field(repr=False)

    @property
    def n_states(self) -> int:
        return self.alpha.shape[1]

    @property
    def n_effects(self) -> int:
        return self.beta.shape[1]


def _dual_frame(coords: np.ndarray, error: type, name: str, detail: str = "") -> np.ndarray:
    """Minimum-norm dual pinv(coords)^T of a coordinate matrix, one column per operator.

    The singular values s of coords give the rank and the condition number
    s_max / s_min.  A smaller rank than coords has rows raises ``error``:
    "<name> span only <rank> of <rows> dimensions<detail>".  A condition number
    above ``FRAME_MAX_COND`` raises it too, naming that number: the dual
    reproduces the basis only to about it times eps.  A square coords that
    passes is invertible, and its dual is inv(coords)^T from one LU
    factorization; a wider one (more operators than dimensions) takes its dual
    (U / s) V^T from the same SVD coords = U diag(s) V^T that gave s.
    """
    square = coords.shape[0] == coords.shape[1]
    if square:
        s = np.linalg.svd(coords, compute_uv=False)
    else:
        u, s, vt = np.linalg.svd(coords, full_matrices=False)
    rank = rank_of_spectrum(s, RANK_REL_TOL)
    if rank < len(coords):
        raise error(f"{name} span only {rank} of {len(coords)} dimensions{detail}")
    if s[-1] * FRAME_MAX_COND < s[0]:
        raise error(f"{name} have condition number {s[0] / s[-1]:.3e} above {FRAME_MAX_COND:.0e}")
    return np.linalg.inv(coords).T if square else (u / s) @ vt


def _check_basis(basis: BlochBasis, name: str, dims):
    """Raise ``DimensionMismatchError`` unless every operator dimension in ``dims`` is the basis's."""
    wrong = sorted(set(dims) - {basis.dim})
    if wrong:
        raise DimensionMismatchError(
            f"{name} have dimension {wrong[0]} but the basis has dimension {basis.dim}"
        )


def _frame(state_mats, effect_mats, basis_in: BlochBasis, basis_out: BlochBasis) -> TomographyFrame:
    alpha = _dual_frame(basis_in.coords(state_mats).T, FrameDeficientError, "states")
    beta = _dual_frame(basis_out.coords(effect_mats).T, FrameDeficientError, "effects")
    return TomographyFrame(alpha=alpha, beta=beta, basis_in=basis_in, basis_out=basis_out)


def build_frame(states, povm: Povm, basis_in: BlochBasis, basis_out: BlochBasis) -> TomographyFrame:
    """Minimum-norm expansion coefficients via pseudoinverse of the coordinate matrices.

    Requires both sides informationally complete and well conditioned; the
    failing side is named in the error.  Each basis must have its operators'
    dimension, else ``DimensionMismatchError``.
    """
    states = tuple(states)
    _check_basis(basis_in, "states", (s.dim for s in states))
    _check_basis(basis_out, "effects", [povm.dim])
    return _frame(np.array([s.matrix for s in states]), np.array(povm.effects), basis_in, basis_out)


def _check_shape(frame, cprime: CommMatrix):
    m, n = cprime.shape
    if (m, n) != (frame.n_states, frame.n_effects):
        raise DimensionMismatchError(
            f"matrix is {m}x{n} but frame expects {frame.n_states}x{frame.n_effects}"
        )


def _warn_if_noncptp(ch: QuantumChannel):
    if not ch.is_cptp(CPTP_WARN_TOL):
        warnings.warn(
            f"reconstructed map violates CPTP beyond {CPTP_WARN_TOL} "
            f"(min Choi eigenvalue {ch.choi_min_eigval:.3e}, trace deviation "
            f"{ch.tp_deviation:.3e}); treating as noisy data",
            stacklevel=3,
        )


def reconstruct_channel(frame: TomographyFrame, cprime: CommMatrix) -> QuantumChannel:
    """Linear inversion: Phi[b, a] = sum_jk alpha[a, j] beta[b, k] C'[j, k] / d_out.

    The result is returned even when slightly non-CPTP (a warning is emitted
    and the Choi diagnostics stay attached); no projection is applied.
    """
    _check_shape(frame, cprime)
    do = frame.basis_out.dim
    bloch = frame.beta @ cprime.entries.T @ frame.alpha.T / do
    first_row = np.zeros(bloch.shape[1])
    first_row[0] = frame.basis_in.dim / do
    if np.abs(bloch[0] - first_row).max() > 1e-8:
        raise PreconditionError(
            "reconstructed Bloch matrix violates the fixed first-row structure; "
            "the input matrix is not row-stochastic against this frame"
        )
    ch = channel_from_bloch(bloch, frame.basis_in, frame.basis_out, require_cptp=False)
    _warn_if_noncptp(ch)
    return ch


@dataclass(frozen=True, eq=False)
class UnitalFrame:
    """Effect coefficients, the state Bloch vectors as columns of R, and (R^+)^T."""

    beta: np.ndarray
    r_matrix: np.ndarray
    r_dual: np.ndarray
    basis: BlochBasis = field(repr=False)

    @property
    def n_states(self) -> int:
        return self.r_matrix.shape[1]

    @property
    def n_effects(self) -> int:
        return self.beta.shape[1]


def build_unital_frame(states, povm: Povm, basis: BlochBasis) -> UnitalFrame:
    """Frame for unital-channel tomography: needs d^2-1 independent Bloch vectors.

    The states, the effects and the basis must share one dimension, else
    ``DimensionMismatchError``.
    """
    states = tuple(states)
    _check_basis(basis, "states", (s.dim for s in states))
    _check_basis(basis, "effects", [povm.dim])
    beta = _dual_frame(basis.coords(np.array(povm.effects)).T, FrameDeficientError, "effects")
    r = np.column_stack([s.bloch for s in states])
    r_dual = _dual_frame(
        r, InsufficientStatesError, "state Bloch vectors", "; right pseudoinverse does not exist"
    )
    return UnitalFrame(beta=beta, r_matrix=r, r_dual=r_dual, basis=basis)


def reconstruct_unital(frame: UnitalFrame, c: CommMatrix, cprime: CommMatrix) -> QuantumChannel:
    """Unital-channel tomography: T = (C' B)^T R^+ on the traceless block.

    The pre-channel matrix validates the frame: (C B)^T must reproduce R itself
    (the identity-channel instance of the same equation).
    """
    if c.shape != cprime.shape:
        raise DimensionMismatchError(f"shapes differ: {c.shape} vs {cprime.shape}")
    _check_shape(frame, cprime)
    d = frame.basis.dim
    b = frame.beta[1:, :].T
    if frob((c.entries @ b).T - frame.r_matrix) > 1e-8:
        raise PreconditionError(
            "pre-channel matrix is inconsistent with the frame's states and effects"
        )
    t = (cprime.entries @ b).T @ frame.r_dual.T
    bloch = np.zeros((d * d, d * d))
    bloch[0, 0] = 1.0
    bloch[1:, 1:] = t
    ch = channel_from_bloch(bloch, frame.basis, frame.basis, require_cptp=False)
    _warn_if_noncptp(ch)
    return ch


@dataclass(frozen=True)
class GaugeChannelEstimate:
    """Channel recovered from a self-tested set-up, fixed up to gauge."""

    channel: QuantumChannel
    certificate: SelfTestCertificate
    gauge_note: str

    def gauge_invariant_singular_values(self) -> np.ndarray:
        """Singular values of the traceless Bloch block (unchanged by the gauge)."""
        block = self.channel.bloch_matrix[1:, 1:]
        return np.linalg.svd(block, compute_uv=False)


def reconstruct_up_to_gauge(
    c: CommMatrix,
    cprime: CommMatrix,
    d: int,
    restarts: int = 32,
    seed: int = DEFAULT_SEED,
    residual_tol: float = GRAM_RESIDUAL_TOL,
) -> GaugeChannelEstimate:
    """Self-test the set-up, then run linear inversion through the canonical frame.

    ``restarts``, ``seed`` and ``residual_tol`` are passed to ``self_test``.  The
    canonical frame keeps the caller's order of states and effects.  The
    returned channel equals the true one conjugated on both sides by one unknown
    unitary or antiunitary; gauge-invariant scalars are faithful.
    """
    d = check_dimension(d)
    rank = numerical_rank(c)
    if rank < d * d:
        raise NotInformationallyCompleteError(
            f"rank {rank} < {d * d}; set-up cannot be certified complete"
        )
    cert = self_test(c, d, restarts=restarts, seed=seed, residual_tol=residual_tol)
    if not cert.passes:
        if cert.gram_residual is not None:  # the fit ran: the storability reached d
            raise NotSelfTestableError(
                f"storability {cert.storability:.9f} reaches dimension {d}, but the best "
                f"canonical-vector fit ({cert.restarts} restarts run) has Gram residual "
                f"{cert.gram_residual:.3e} above residual_tol {cert.residual_tol:.1e}"
            )
        raise NotSelfTestableError(
            f"storability {cert.storability:.9f} does not certify the set-up at dimension {d}"
        )
    if c.provenance is not None:
        basis = c.provenance.states[0].basis
    else:
        basis = bloch_basis(d)
    # effect k is a_k |phi_k><phi_k|, and state pairing[k] is |phi_k><phi_k|
    vectors = np.asarray(cert.canonical_vectors)
    projectors = vectors[:, :, None] * vectors.conj()[:, None, :]
    weights = np.asarray(cert.canonical_weights)[:, None, None]
    frame = _frame(projectors[np.argsort(cert.pairing)], weights * projectors, basis, basis)
    try:
        channel = reconstruct_channel(frame, cprime)
    except PreconditionError as err:
        raise NotSelfTestableError(
            f"the canonical-vector fit passed with Gram residual {cert.gram_residual:.3e} "
            f"within residual_tol {cert.residual_tol:.1e}, but its frame does not fit the "
            f"input: {err}"
        ) from err
    return GaugeChannelEstimate(channel=channel, certificate=cert, gauge_note=cert.gauge_note)
