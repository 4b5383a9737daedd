"""States, measurements and channels in the orthogonal Hermitian (Bloch) representation.

The operator basis is the generalized Gell-Mann family rescaled so that
tr(sigma_a sigma_b) = d * delta_ab, with the identity at index 0.  Channels are
stored both as a Choi matrix (input-major block convention, partial trace over
the output equals the input identity) and as the real affine matrix
Phi[b, a] = tr(Phi(sigma_a) sigma'_b) / d_out.  Both are coordinates of one
linear map: reshaped to (d_in, d_out, d_in, d_out), the Choi matrix holds
Phi(E_ij)[p, q] at [i, p, j, q], so each conversion is a single contraction
with the stacked basis.
"""

from dataclasses import dataclass, field

import numpy as np

from ._linalg import (
    HERM_ATOL,
    freeze as _freeze,
    dag,
    frob,
    is_hermitian,
    min_eigval,
)
from .errors import (
    ArityError,
    DimensionMismatchError,
    InvalidChannelError,
    InvalidDimensionError,
    InvalidOperatorError,
    NotAStateError,
    PovmError,
)

PSD_ATOL = 1e-10
CPTP_ATOL = 1e-10

GAUGE_NOTE = (
    "Canonical vectors are determined only up to a global unitary or antiunitary "
    "transformation applied jointly to all states and effects; the two cases cannot "
    "be distinguished from the statistics. Only gauge-invariant quantities "
    "(weights and squared overlaps) are certified."
)


@dataclass(frozen=True)
class BlochBasis:
    """Orthogonal Hermitian operator basis with the identity at index 0."""

    dim: int
    elements: np.ndarray

    def __post_init__(self):
        d = self.dim
        elements = _freeze(np.array(self.elements, dtype=complex))
        if elements.shape != (d * d, d, d):
            raise InvalidDimensionError(
                f"expected {d * d} basis elements of shape ({d}, {d}), got {elements.shape}"
            )
        object.__setattr__(self, "elements", elements)

    @property
    def traceless(self) -> np.ndarray:
        return self.elements[1:]

    def coords(self, m: np.ndarray) -> np.ndarray:
        """Real coordinates tr(m sigma_a) / d of a Hermitian matrix, or of a stack of them."""
        return np.einsum("...ij,aji->...a", m, self.elements).real / self.dim


def bloch_basis(d: int) -> BlochBasis:
    """Deterministic generalized Gell-Mann basis with tr(sigma_a^2) = d.

    Ordering after the identity: symmetric pair operators (j < k, lexicographic),
    then antisymmetric pairs, then the diagonal ladder.
    """
    if d < 2:
        raise InvalidDimensionError(f"dimension must be at least 2, got {d}")
    scale = np.sqrt(d / 2.0)
    idx = np.arange(d)
    units = np.eye(d * d).reshape(d * d, d, d)
    # the unit matrices E_jk with j < k, in lexicographic order
    upper = units[(idx[:, None] < idx).ravel()]
    lower = upper.transpose(0, 2, 1)
    # row l - 1 of the ladder: ones before position l, then -l
    l = idx[1:, None]
    ladder = (idx < l) - l * (idx == l)
    diag = (scale * np.sqrt(2.0 / (l * (l + 1))))[:, :, None] * ladder[:, :, None] * np.eye(d)
    elements = np.concatenate(
        [np.eye(d)[None], scale * (upper + lower), scale * (1j * lower - 1j * upper), diag]
    )
    return BlochBasis(dim=d, elements=elements)


@dataclass(frozen=True)
class DensityOperator:
    """Positive semidefinite unit-trace operator with its Bloch vector."""

    dim: int
    matrix: np.ndarray
    bloch: np.ndarray
    basis: BlochBasis = field(repr=False)

    def __post_init__(self):
        _freeze(self.matrix)
        _freeze(self.bloch)


def state_from_bloch(basis: BlochBasis, r: np.ndarray) -> DensityOperator:
    """Build (1/d)(identity + r . sigma) and validate positivity."""
    d = basis.dim
    r = np.asarray(r, dtype=float)
    if r.shape != (d * d - 1,):
        raise DimensionMismatchError(
            f"Bloch vector must have length {d * d - 1}, got {r.shape}"
        )
    m = (np.eye(d) + np.tensordot(r, basis.traceless, axes=1)) / d
    lo = min_eigval(m)
    if lo < -PSD_ATOL:
        raise NotAStateError(
            f"operator has negative eigenvalue {lo:.3e}", min_eigenvalue=lo
        )
    return DensityOperator(dim=d, matrix=m, bloch=r.copy(), basis=basis)


def bloch_from_state(basis: BlochBasis, m: np.ndarray) -> np.ndarray:
    """Bloch vector r_u = tr(m sigma_u) of a Hermitian unit-trace matrix."""
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise InvalidOperatorError("matrix is not Hermitian")
    if abs(np.trace(m).real - 1.0) > HERM_ATOL * 10:
        raise InvalidOperatorError(f"matrix trace {np.trace(m):.6g} is not 1")
    return basis.dim * basis.coords(m)[1:]


def state_from_matrix(basis: BlochBasis, m: np.ndarray) -> DensityOperator:
    """Validate a density matrix and attach its Bloch vector."""
    m = np.asarray(m, dtype=complex)
    r = bloch_from_state(basis, m)
    lo = min_eigval(m)
    if lo < -PSD_ATOL:
        raise NotAStateError(
            f"matrix has negative eigenvalue {lo:.3e}", min_eigenvalue=lo
        )
    return DensityOperator(dim=basis.dim, matrix=m, bloch=r, basis=basis)


def inball_radius(d: int) -> float:
    """Radius of the largest Bloch ball fully inside the state space: 1/sqrt(d-1)."""
    if d < 2:
        raise InvalidDimensionError(f"dimension must be at least 2, got {d}")
    return 1.0 / np.sqrt(d - 1.0)


@dataclass(frozen=True)
class Povm:
    """Ordered collection of effects summing to the identity."""

    dim: int
    effects: tuple

    def __post_init__(self):
        for e in self.effects:
            _freeze(e)

    def __len__(self):
        return len(self.effects)


def validate_povm(effects) -> Povm:
    """Check Hermiticity, effect spectra and completeness; name the first failure."""
    effects = [np.asarray(e, dtype=complex) for e in effects]
    if not effects:
        raise PovmError("measurement needs at least one effect")
    d = effects[0].shape[0]
    for k, e in enumerate(effects):
        if e.shape != (d, d):
            raise PovmError(f"effect {k} has shape {e.shape}, expected ({d}, {d})")
        if not is_hermitian(e):
            raise PovmError(f"effect {k} is not Hermitian")
        ev = np.linalg.eigvalsh(e)
        if ev[0] < -PSD_ATOL:
            raise PovmError(f"effect {k} has negative eigenvalue {ev[0]:.3e}")
        if ev[-1] > 1.0 + PSD_ATOL:
            raise PovmError(f"effect {k} has eigenvalue {ev[-1]:.6f} above 1")
    total = sum(effects)
    if frob(total - np.eye(d)) > CPTP_ATOL:
        raise PovmError(
            f"effects sum deviates from the identity by {frob(total - np.eye(d)):.3e}"
        )
    return Povm(dim=d, effects=tuple(effects))


@dataclass(frozen=True)
class QuantumChannel:
    """CPTP map stored both as a Choi matrix and as a Bloch affine matrix."""

    dim_in: int
    dim_out: int
    choi: np.ndarray
    bloch_matrix: np.ndarray
    basis_in: BlochBasis = field(repr=False)
    basis_out: BlochBasis = field(repr=False)
    choi_min_eigval: float = 0.0
    tp_deviation: float = 0.0
    mp_realization: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        _freeze(self.choi)
        _freeze(self.bloch_matrix)

    def is_cptp(self, tol: float = CPTP_ATOL) -> bool:
        return self.choi_min_eigval >= -tol and self.tp_deviation <= tol


def _choi4(choi: np.ndarray, di: int, do: int) -> np.ndarray:
    """Choi matrix as the tensor [i, p, j, q] = Phi(E_ij)[p, q]."""
    return choi.reshape(di, do, di, do)


def _choi_to_bloch(choi: np.ndarray, basis_in: BlochBasis, basis_out: BlochBasis) -> np.ndarray:
    di, do = basis_in.dim, basis_out.dim
    return np.einsum(
        "aij,ipjq,bqp->ba", basis_in.elements, _choi4(choi, di, do), basis_out.elements,
        optimize=True,
    ).real / do


def _bloch_to_choi(bloch: np.ndarray, basis_in: BlochBasis, basis_out: BlochBasis) -> np.ndarray:
    di, do = basis_in.dim, basis_out.dim
    choi4 = np.einsum(
        "ba,aji,bpq->ipjq", bloch, basis_in.elements, basis_out.elements, optimize=True
    ) / di
    return choi4.reshape(di * do, di * do)


def _channel(
    choi: np.ndarray,
    bloch: np.ndarray,
    basis_in: BlochBasis,
    basis_out: BlochBasis,
    require_cptp: bool,
    mp_realization: tuple | None = None,
) -> QuantumChannel:
    """Record CPTP diagnostics of a map given in both coordinates."""
    di = basis_in.dim
    lo = min_eigval(0.5 * (choi + dag(choi)))
    tp = frob(np.einsum("ipjp->ij", _choi4(choi, di, basis_out.dim)) - np.eye(di))
    if require_cptp and (lo < -CPTP_ATOL or tp > CPTP_ATOL):
        raise InvalidChannelError(
            f"map is not CPTP (min Choi eigenvalue {lo:.3e}, trace deviation {tp:.3e})"
        )
    return QuantumChannel(
        dim_in=di,
        dim_out=basis_out.dim,
        choi=choi,
        bloch_matrix=bloch,
        basis_in=basis_in,
        basis_out=basis_out,
        choi_min_eigval=lo,
        tp_deviation=tp,
        mp_realization=mp_realization,
    )


def channel_from_choi(
    choi: np.ndarray,
    basis_in: BlochBasis,
    basis_out: BlochBasis,
    require_cptp: bool = True,
    mp_realization: tuple | None = None,
) -> QuantumChannel:
    """Build a channel from its Choi matrix, recording CPTP diagnostics."""
    di, do = basis_in.dim, basis_out.dim
    choi = np.asarray(choi, dtype=complex)
    if choi.shape != (di * do, di * do):
        raise DimensionMismatchError(
            f"Choi matrix has shape {choi.shape}, expected {(di * do, di * do)}"
        )
    bloch = _choi_to_bloch(choi, basis_in, basis_out)
    return _channel(choi, bloch, basis_in, basis_out, require_cptp, mp_realization)


def channel_from_bloch(
    bloch: np.ndarray,
    basis_in: BlochBasis,
    basis_out: BlochBasis,
    require_cptp: bool = True,
) -> QuantumChannel:
    """Build a channel from its Bloch affine matrix, recording CPTP diagnostics."""
    di, do = basis_in.dim, basis_out.dim
    bloch = np.array(bloch, dtype=float)
    if bloch.shape != (do * do, di * di):
        raise DimensionMismatchError(
            f"Bloch matrix has shape {bloch.shape}, expected {(do * do, di * di)}"
        )
    choi = _bloch_to_choi(bloch, basis_in, basis_out)
    return _channel(choi, bloch, basis_in, basis_out, require_cptp)


def channel_from_kraus(kraus, basis_in: BlochBasis, basis_out: BlochBasis) -> QuantumChannel:
    """Channel from Kraus operators; requires sum K^dag K = identity."""
    kraus = [np.asarray(k, dtype=complex) for k in kraus]
    di, do = basis_in.dim, basis_out.dim
    for k in kraus:
        if k.shape != (do, di):
            raise DimensionMismatchError(
                f"Kraus operator has shape {k.shape}, expected ({do}, {di})"
            )
    kraus = np.array(kraus).reshape(-1, do, di)
    total = np.einsum("kpi,kpj->ij", kraus.conj(), kraus)
    if frob(total - np.eye(di)) > CPTP_ATOL:
        raise InvalidChannelError(
            f"Kraus operators violate trace preservation by {frob(total - np.eye(di)):.3e}"
        )
    choi = np.einsum("kpi,kqj->ipjq", kraus, kraus.conj()).reshape(di * do, di * do)
    return channel_from_choi(choi, basis_in, basis_out)


def measure_and_prepare_channel(n: Povm, states) -> QuantumChannel:
    """Channel X -> sum_i tr(N_i X) xi_i for a measurement N and states xi."""
    states = tuple(states)
    if len(states) != len(n.effects):
        raise ArityError(
            f"{len(n.effects)} effects but {len(states)} re-prepared states"
        )
    di = n.dim
    do = states[0].dim
    choi = np.einsum(
        "kji,kpq->ipjq", np.array(n.effects), np.array([xi.matrix for xi in states])
    ).reshape(di * do, di * do)
    basis_in = bloch_basis(di)
    basis_out = states[0].basis
    return channel_from_choi(
        choi, basis_in, basis_out, mp_realization=(n, states)
    )


def apply_channel(ch: QuantumChannel, x: np.ndarray) -> np.ndarray:
    """Apply the channel to a matrix: sum_ij x[i, j] Phi(E_ij)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (ch.dim_in, ch.dim_in):
        raise DimensionMismatchError(
            f"input has shape {x.shape}, channel expects ({ch.dim_in}, {ch.dim_in})"
        )
    return np.einsum("ij,ipjq->pq", x, _choi4(ch.choi, ch.dim_in, ch.dim_out))


def is_unital_map(ch: QuantumChannel, tol: float = CPTP_ATOL) -> bool:
    """True iff the channel maps the identity to the identity."""
    if ch.dim_in != ch.dim_out:
        raise DimensionMismatchError("unitality is defined only for square channels")
    image = apply_channel(ch, np.eye(ch.dim_in, dtype=complex))
    return frob(image - np.eye(ch.dim_out)) <= tol


def identity_channel(basis: BlochBasis) -> QuantumChannel:
    return channel_from_kraus([np.eye(basis.dim, dtype=complex)], basis, basis)


def depolarizing_channel(basis: BlochBasis, p: float) -> QuantumChannel:
    """Mix with the maximally mixed state: X -> (1-p) X + p tr(X) identity / d."""
    d = basis.dim
    if not 0.0 <= p <= 1.0 + 1e-12:
        raise InvalidChannelError(f"depolarizing strength {p} outside [0, 1]")
    ident = identity_channel(basis)
    bloch = (1.0 - p) * ident.bloch_matrix
    bloch[0, 0] = 1.0
    return channel_from_bloch(bloch, basis, basis)


def completely_depolarizing_channel(basis: BlochBasis) -> QuantumChannel:
    return depolarizing_channel(basis, 1.0)


def amplitude_damping_channel(basis: BlochBasis, gamma: float) -> QuantumChannel:
    if basis.dim != 2:
        raise InvalidDimensionError("amplitude damping is defined for qubits")
    if not 0.0 <= gamma <= 1.0:
        raise InvalidChannelError(f"damping rate {gamma} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return channel_from_kraus([k0, k1], basis, basis)


def unitary_channel(basis: BlochBasis, u: np.ndarray) -> QuantumChannel:
    u = np.asarray(u, dtype=complex)
    if frob(dag(u) @ u - np.eye(basis.dim)) > CPTP_ATOL:
        raise InvalidChannelError("matrix is not unitary")
    return channel_from_kraus([u], basis, basis)
