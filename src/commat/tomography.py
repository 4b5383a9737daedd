"""Channel reconstruction from communication matrices by linear inversion.

Three routes: full tomography through a dual frame of a known informationally
complete set-up, unital-channel tomography through the right pseudoinverse of
the state Bloch vectors, and gauge-level tomography through the canonical
frame of a self-tested set-up, fixed only up to a global unitary or
antiunitary conjugation.  All three take Phi = beta C'^T alpha^T / d_out from
one product (the unital state dual is alpha = [0; d (R^+)^T]) and warn from one
place when it is not CPTP.  A frame side is complete when its coordinate matrix
has full row rank and a condition number of at most ``FRAME_MAX_COND``, else
the side's own error; ``properties``' witness asks the same rule.  Each dual is
minimum-norm but for the effects' identity row, all ones (exact, as the effects
sum to I), so reconstructions are trace-preserving by design.
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
    ValidationError,
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
    states_dim,
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


def _effect_dual(effect_mats, basis: BlochBasis) -> np.ndarray:
    """``_dual_frame`` of the effects with identity row all ones, exact as they sum to I:
    coords(I) = e_0.  The minimum-norm row equals it only when the effects are d^2."""
    beta = _dual_frame(basis.coords(effect_mats).T, FrameDeficientError, "effects")
    beta[0] = 1.0
    return beta


def _checked_states(states, povm: Povm, basis_in: BlochBasis, basis_out: BlochBasis) -> tuple:
    """The states as a tuple; no states, or states or effects of another dimension than
    their basis, raise ``DimensionMismatchError``."""
    states = tuple(states)
    d_states = states_dim(states, "a frame needs at least one state")
    for name, dim, basis in (("states", d_states, basis_in), ("effects", povm.dim, basis_out)):
        if dim != basis.dim:
            raise DimensionMismatchError(
                f"{name} have dimension {dim} but the basis has dimension {basis.dim}"
            )
    return states


def _frame(state_mats, effect_mats, basis_in: BlochBasis, basis_out: BlochBasis) -> TomographyFrame:
    alpha = _dual_frame(basis_in.coords(state_mats).T, FrameDeficientError, "states")
    beta = _effect_dual(effect_mats, basis_out)
    return TomographyFrame(alpha=alpha, beta=beta, basis_in=basis_in, basis_out=basis_out)


def build_frame(states, povm: Povm, basis_in: BlochBasis, basis_out: BlochBasis) -> TomographyFrame:
    """Minimum-norm expansion coefficients via pseudoinverse of the coordinate matrices,
    but for the effects' identity row: all ones, exact since the effects sum to I.

    Requires both sides informationally complete and well conditioned; the
    failing side is named in the error.  No states, or a basis of another
    dimension than its operators', is a ``DimensionMismatchError``.
    """
    states = _checked_states(states, povm, basis_in, basis_out)
    return _frame(np.array([s.matrix for s in states]), np.array(povm.effects), basis_in, basis_out)


def _check_frame(frame, kind: type, builder: str):
    """Raise ``ValidationError`` unless ``frame`` is a ``kind``, naming the builder that makes one."""
    if not isinstance(frame, kind):
        raise ValidationError(f"needs a {kind.__name__} from {builder}, got {type(frame).__name__}")


def _invert(alpha: np.ndarray, beta: np.ndarray, cprime: CommMatrix, d_out: int) -> np.ndarray:
    """Phi = beta C'^T alpha^T / d_out; C' needs one row per state and one column per effect."""
    (m, n), (j, k) = cprime.shape, (alpha.shape[1], beta.shape[1])
    if (m, n) != (j, k):
        raise DimensionMismatchError(f"matrix is {m}x{n} but frame expects {j}x{k}")
    return beta @ cprime.entries.T @ alpha.T / d_out


def _channel(bloch: np.ndarray, basis_in: BlochBasis, basis_out: BlochBasis) -> QuantumChannel:
    """The reconstructed map, warning (at the public route's caller) when it is not CPTP."""
    ch = channel_from_bloch(bloch, basis_in, basis_out, require_cptp=False)
    if not ch.is_cptp(CPTP_WARN_TOL):
        warnings.warn(
            f"reconstructed map violates CPTP beyond {CPTP_WARN_TOL} "
            f"(min Choi eigenvalue {ch.choi_min_eigval:.3e}, trace deviation "
            f"{ch.tp_deviation:.3e}); treating as noisy data",
            stacklevel=3,
        )
    return ch


def reconstruct_channel(frame: TomographyFrame, cprime: CommMatrix) -> QuantumChannel:
    """Linear inversion: Phi[b, a] = sum_jk alpha[a, j] beta[b, k] C'[j, k] / d_out.

    The all-ones identity row of beta makes row 0 alpha . rowsums(C') / d_out =
    (d_in / d_out) e_0 to ``CommMatrix``'s row-sum tolerance: the map is
    trace-preserving by construction.  It is returned even when slightly
    non-CPTP (a warning is emitted and the Choi diagnostics stay attached).
    Another frame type, such as a ``UnitalFrame``, raises ``ValidationError``.
    """
    _check_frame(frame, TomographyFrame, "build_frame")
    bloch = _invert(frame.alpha, frame.beta, cprime, frame.basis_out.dim)
    return _channel(bloch, frame.basis_in, frame.basis_out)


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

    There must be at least one state, and the states, the effects and the
    basis must share one dimension, else ``DimensionMismatchError``.
    """
    states = _checked_states(states, povm, basis, basis)
    beta = _effect_dual(np.array(povm.effects), basis)
    r = np.column_stack([s.bloch for s in states])
    r_dual = _dual_frame(
        r, InsufficientStatesError, "state Bloch vectors", "; right pseudoinverse does not exist"
    )
    return UnitalFrame(beta=beta, r_matrix=r, r_dual=r_dual, basis=basis)


def reconstruct_unital(frame: UnitalFrame, c: CommMatrix, cprime: CommMatrix) -> QuantumChannel:
    """Unital-channel tomography: full tomography's inversion through the state dual
    alpha = [0; d (R^+)^T], whose traceless block is T = (C' B)^T R^+; row 0 and
    column 0 are then pinned to e_0, as for every unital trace-preserving map.

    The pre-channel matrix validates the frame: (C B)^T must reproduce R itself
    (the identity-channel instance of the same equation).  Another frame
    type, such as a ``TomographyFrame``, raises ``ValidationError``.
    """
    _check_frame(frame, UnitalFrame, "build_unital_frame")
    if c.shape != cprime.shape:
        raise DimensionMismatchError(f"shapes differ: {c.shape} vs {cprime.shape}")
    d = frame.basis.dim
    alpha = np.vstack([np.zeros(frame.n_states), d * frame.r_dual])
    bloch = _invert(alpha, frame.beta, cprime, d)
    if frob(frame.beta[1:] @ c.entries.T - frame.r_matrix) > 1e-8:
        raise PreconditionError(
            "pre-channel matrix is inconsistent with the frame's states and effects"
        )
    bloch[0] = bloch[:, 0] = np.eye(d * d)[0]
    return _channel(bloch, frame.basis, frame.basis)


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
    channel = _channel(_invert(frame.alpha, frame.beta, cprime, basis.dim), basis, basis)
    return GaugeChannelEstimate(channel=channel, certificate=cert, gauge_note=cert.gauge_note)
