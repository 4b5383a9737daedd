"""Channel reconstruction from communication matrices by linear inversion.

Three routes: full tomography through a dual frame of a known informationally
complete set-up, unital-channel tomography through the right pseudoinverse of
the state Bloch-vector matrix, and gauge-level tomography where the set-up is
first recovered by self-testing so the result is fixed only up to a global
unitary or antiunitary conjugation.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._linalg import frob
from .errors import (
    CommatError,
    DimensionMismatchError,
    FrameDeficientError,
    InsufficientStatesError,
    NotInformationallyCompleteError,
    NotSelfTestableError,
    PreconditionError,
)
from .analysis import (
    DEFAULT_SEED,
    RANK_REL_TOL,
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
    state_from_matrix,
    validate_povm,
)
from .scenario import CommMatrix

FRAME_ATOL = 1e-9
CPTP_WARN_TOL = 1e-6


@dataclass(frozen=True)
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


def _coords_matrix(ops, basis: BlochBasis) -> np.ndarray:
    return basis.coords(np.asarray(ops)).T


def build_frame(states, povm: Povm, basis_in: BlochBasis, basis_out: BlochBasis) -> TomographyFrame:
    """Minimum-norm expansion coefficients via pseudoinverse of the coordinate matrices.

    Requires both sides informationally complete; the failing side is named in
    the error.
    """
    state_mats = np.array([s.matrix for s in states])
    coords_in = _coords_matrix(state_mats, basis_in)
    coords_out = _coords_matrix(povm.effects, basis_out)
    di, do = basis_in.dim, basis_out.dim
    rank_in = np.linalg.matrix_rank(coords_in, tol=RANK_REL_TOL * max(1.0, frob(coords_in)))
    if rank_in < di * di:
        raise FrameDeficientError(
            f"states span only {rank_in} of {di * di} dimensions"
        )
    rank_out = np.linalg.matrix_rank(coords_out, tol=RANK_REL_TOL * max(1.0, frob(coords_out)))
    if rank_out < do * do:
        raise FrameDeficientError(
            f"effects span only {rank_out} of {do * do} dimensions"
        )
    alpha = np.linalg.pinv(coords_in).T
    beta = np.linalg.pinv(coords_out).T
    synth = np.tensordot(alpha, state_mats, axes=1)
    errors = np.linalg.norm((synth - basis_in.elements).reshape(di * di, -1), axis=1)
    bad = np.flatnonzero(errors > FRAME_ATOL)
    if bad.size:
        raise CommatError(f"frame reconstruction identity fails at index {bad[0]}")
    return TomographyFrame(alpha=alpha, beta=beta, basis_in=basis_in, basis_out=basis_out)


def _warn_if_noncptp(ch: QuantumChannel):
    if not ch.is_cptp(CPTP_WARN_TOL):
        warnings.warn(
            "reconstructed map violates CPTP beyond 1e-6 "
            f"(min Choi eigenvalue {ch.choi_min_eigval:.3e}, trace deviation "
            f"{ch.tp_deviation:.3e}); treating as noisy data",
            stacklevel=3,
        )


def reconstruct_channel(frame: TomographyFrame, cprime: CommMatrix) -> QuantumChannel:
    """Linear inversion: Phi[b, a] = sum_jk alpha[a, j] beta[b, k] C'[j, k] / d_out.

    The result is returned even when slightly non-CPTP (a warning is emitted
    and the Choi diagnostics stay attached); no projection is applied.
    """
    m, n = cprime.shape
    if (m, n) != (frame.n_states, frame.n_effects):
        raise DimensionMismatchError(
            f"matrix is {m}x{n} but frame expects {frame.n_states}x{frame.n_effects}"
        )
    do = frame.basis_out.dim
    bloch = frame.beta @ cprime.entries.T @ frame.alpha.T / do
    first_row = np.zeros(bloch.shape[1])
    first_row[0] = frame.basis_in.dim / do
    if np.abs(bloch[0] - first_row).max() > 1e-8:
        raise CommatError(
            "reconstructed Bloch matrix violates the fixed first-row structure; "
            "the input matrix is not row-stochastic against this frame"
        )
    ch = channel_from_bloch(bloch, frame.basis_in, frame.basis_out, require_cptp=False)
    _warn_if_noncptp(ch)
    return ch


@dataclass(frozen=True)
class UnitalFrame:
    """Effect coefficients plus the state Bloch vectors as columns of R."""

    beta: np.ndarray
    r_matrix: np.ndarray
    basis: BlochBasis = field(repr=False)

    @property
    def n_states(self) -> int:
        return self.r_matrix.shape[1]

    @property
    def n_effects(self) -> int:
        return self.beta.shape[1]


def build_unital_frame(states, povm: Povm, basis: BlochBasis) -> UnitalFrame:
    """Frame for unital-channel tomography: needs d^2-1 independent Bloch vectors."""
    d = basis.dim
    coords_out = _coords_matrix(povm.effects, basis)
    rank_out = np.linalg.matrix_rank(coords_out, tol=RANK_REL_TOL * max(1.0, frob(coords_out)))
    if rank_out < d * d:
        raise FrameDeficientError(
            f"effects span only {rank_out} of {d * d} dimensions"
        )
    beta = np.linalg.pinv(coords_out).T
    r = np.column_stack([s.bloch for s in states])
    rank_r = np.linalg.matrix_rank(r, tol=RANK_REL_TOL * max(1.0, frob(r)))
    if rank_r < d * d - 1:
        raise InsufficientStatesError(
            f"state Bloch vectors span only {rank_r} of {d * d - 1} dimensions; "
            "right pseudoinverse does not exist"
        )
    return UnitalFrame(beta=beta, r_matrix=r, basis=basis)


def reconstruct_unital(frame: UnitalFrame, c: CommMatrix, cprime: CommMatrix) -> QuantumChannel:
    """Unital-channel tomography: T = (C' B)^T R^+ on the traceless block.

    The pre-channel matrix validates the frame: (C B)^T must reproduce R itself
    (the identity-channel instance of the same equation).
    """
    if c.shape != cprime.shape:
        raise DimensionMismatchError(f"shapes differ: {c.shape} vs {cprime.shape}")
    m, n = cprime.shape
    if (m, n) != (frame.n_states, frame.n_effects):
        raise DimensionMismatchError(
            f"matrix is {m}x{n} but frame expects {frame.n_states}x{frame.n_effects}"
        )
    d = frame.basis.dim
    b = frame.beta[1:, :].T
    if frob((c.entries @ b).T - frame.r_matrix) > 1e-8:
        raise PreconditionError(
            "pre-channel matrix is inconsistent with the frame's states and effects"
        )
    r_pinv = np.linalg.pinv(frame.r_matrix)
    t = (cprime.entries @ b).T @ r_pinv
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
) -> GaugeChannelEstimate:
    """Self-test the set-up, then run linear inversion through the canonical frame.

    The returned channel equals the true one conjugated on both sides by one
    unknown unitary or antiunitary; gauge-invariant scalars are faithful.
    """
    if numerical_rank(c) < d * d:
        raise NotInformationallyCompleteError(
            f"rank {numerical_rank(c)} < {d * d}; set-up cannot be certified complete"
        )
    cert = self_test(c, d, restarts=restarts, seed=seed)
    if not cert.passes:
        if abs(cert.storability - d) <= cert.storability_tol:
            raise NotSelfTestableError(
                f"storability {cert.storability:.9f} reaches dimension {d}, but the best "
                f"canonical-vector fit has Gram residual {cert.gram_residual:.3e} above "
                f"residual_tol {cert.residual_tol:.1e}"
            )
        raise NotSelfTestableError(
            f"storability {cert.storability:.9f} does not certify the set-up at dimension {d}"
        )
    if c.provenance is not None:
        basis = c.provenance.states[0].basis
    else:
        basis = bloch_basis(d)
    states = [
        state_from_matrix(basis, np.outer(v, v.conj())) for v in cert.canonical_vectors
    ]
    povm = validate_povm(
        [a * np.outer(v, v.conj()) for a, v in zip(cert.canonical_weights, cert.canonical_vectors)]
    )
    frame = build_frame(states, povm, basis, basis)
    channel = reconstruct_channel(frame, cprime)
    return GaugeChannelEstimate(channel=channel, certificate=cert, gauge_note=cert.gauge_note)
