"""States, measurements and channels in the orthogonal Hermitian (Bloch) representation.

The operator basis is the generalized Gell-Mann family rescaled so that
tr(sigma_a sigma_b) = d * delta_ab, with the identity at index 0.  Channels are
stored both as a Choi matrix (input-major block convention, partial trace over
the output equals the input identity) and as the real affine matrix
Phi[b, a] = tr(Phi(sigma_a) sigma'_b) / d_out.  Both are coordinates of one
linear map: reshaped to (d_in, d_out, d_in, d_out), the Choi matrix holds
Phi(E_ij)[p, q] at [i, p, j, q].  Permuted to K[(i, j), (p, q)], it is the
matrix of the map on flattened operators, and each conversion is two matrix
products of K or Phi with the basis flattened to (d^2, d^2).
"""

import functools
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
    check_dimension,
)

PSD_ATOL = 1e-10
CPTP_ATOL = 1e-10
_TRACE_ATOL = 10 * HERM_ATOL

GAUGE_NOTE = (
    "Canonical vectors are determined only up to a global unitary or antiunitary "
    "transformation applied jointly to all states and effects; the two cases cannot "
    "be distinguished from the statistics. Only gauge-invariant quantities "
    "(weights and squared overlaps) are certified."
)


@dataclass(frozen=True, eq=False)
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
        # row a is sigma_a^T flattened: flat(x) @ _flat_t.T = tr(x sigma_a)
        object.__setattr__(
            self, "_flat_t", _freeze(elements.transpose(0, 2, 1).reshape(d * d, d * d).copy())
        )

    @property
    def traceless(self) -> np.ndarray:
        return self.elements[1:]

    def coords(self, m: np.ndarray) -> np.ndarray:
        """Real coordinates tr(m sigma_a) / d of a Hermitian matrix, or of a stack of them.

        Re tr(m sigma_a) = Re(m).Re(sigma_a) + Im(m).Im(sigma_a) entrywise, a real
        dot product of the interleaved float views.  It stays an einsum, not a
        matmul: BLAS rounds a single matrix (gemv) and a stack (gemm) differently,
        and a matrix's coordinates must not depend on the stack it came in.
        """
        d = self.dim
        m = np.ascontiguousarray(m, dtype=complex)
        flat = m.reshape(*m.shape[:-2], d * d).view(float)
        return np.einsum("...k,ak->...a", flat, self.elements.reshape(d * d, d * d).view(float)) / d


def _require_finite(a: np.ndarray, error: type, what: str):
    """Raise ``error`` before any arithmetic on a NaN or infinite entry can warn or fail."""
    if not np.isfinite(a).all():
        raise error(f"{what} is not finite")


def bloch_basis(d: int) -> BlochBasis:
    """Deterministic generalized Gell-Mann basis with tr(sigma_a^2) = d.

    Ordering after the identity: symmetric pair operators (j < k, lexicographic),
    then antisymmetric pairs, then the diagonal ladder.  Built once per dimension
    and process; its arrays are read-only.  ``d`` must be an integer of at least
    2 (``errors.check_dimension``): a float such as 2.0 raises
    ``InvalidDimensionError`` instead of reaching the integer 2's basis.
    """
    return _bloch_basis(check_dimension(d))


@functools.lru_cache(maxsize=16)
def _bloch_basis(d: int) -> BlochBasis:
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


@dataclass(frozen=True, eq=False)
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
    _require_finite(r, InvalidOperatorError, "Bloch vector")
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


def _square_stack(matrices: list, d: int) -> tuple:
    """The matrices before the first one that is not (d, d), as one new array, the
    verdict "not finite" of each, and the stack with those replaced by I/d so that
    no later check warns (the stack itself when every matrix is finite)."""
    n = next((k for k, m in enumerate(matrices) if m.shape != (d, d)), len(matrices))
    stack = np.array(matrices[:n], dtype=complex).reshape(n, d, d)
    finite = np.isfinite(stack).all(axis=(1, 2))
    clean = stack if finite.all() else np.where(finite[:, None, None], stack, np.eye(d) / d)
    return stack, ~finite, clean


def _raise_first_fault(checks, count: int, shape_error):
    """Raise the error of the first of ``count`` matrices that fails a check, for
    its first failed check, as checking one matrix at a time would.

    ``checks`` lists (fails, error) pairs in the order the checks apply: ``fails``
    holds one verdict per matrix of the stack, True where it fails, and
    ``error(k)`` is the exception for matrix k.  The matrices past the stack
    failed the shape check; if no matrix in it fails, the first of them raises
    ``shape_error(k)``.
    """
    table = np.array([fails for fails, _ in checks])
    if table.any():
        k = int(table.any(axis=0).argmax())
        raise checks[int(table[:, k].argmax())][1](k)
    if table.shape[1] < count:
        raise shape_error(table.shape[1])


def _validated_states(basis: BlochBasis, matrices, positive: bool) -> tuple:
    """Stack matrices that are Hermitian, unit-trace (d, d) and, if ``positive``,
    without an eigenvalue below -``PSD_ATOL``; return the stack and its Bloch vectors.

    Each check runs once over the whole stack.  The stack is a read-only copy,
    so no caller can change what was validated.
    """
    d = basis.dim
    matrices = [np.asarray(m, dtype=complex) for m in matrices]
    stack, not_finite, clean = _square_stack(matrices, d)
    traces = clean.trace(axis1=1, axis2=2)
    lo = np.linalg.eigvalsh(clean)[:, 0] if positive else np.zeros(len(clean))
    _raise_first_fault(
        [
            (not_finite, lambda k: InvalidOperatorError("matrix is not finite")),
            (~is_hermitian(clean), lambda k: InvalidOperatorError("matrix is not Hermitian")),
            (np.abs(traces.real - 1.0) > _TRACE_ATOL,
             lambda k: InvalidOperatorError(f"matrix trace {traces[k]:.6g} is not 1")),
            (lo < -PSD_ATOL, lambda k: NotAStateError(
                f"matrix has negative eigenvalue {lo[k]:.3e}", min_eigenvalue=float(lo[k]))),
        ],
        len(matrices),
        lambda k: DimensionMismatchError(
            f"matrix has shape {matrices[k].shape}, expected ({d}, {d})"
        ),
    )
    return _freeze(stack), d * basis.coords(stack)[:, 1:]


def _states_from_matrices(basis: BlochBasis, matrices) -> list:
    """``state_from_matrix`` of each matrix, every check run once over the whole stack."""
    stack, blochs = _validated_states(basis, matrices, positive=True)
    return [
        DensityOperator(dim=basis.dim, matrix=m, bloch=r, basis=basis)
        for m, r in zip(stack, blochs)
    ]


def bloch_from_state(basis: BlochBasis, m: np.ndarray) -> np.ndarray:
    """Bloch vector r_u = tr(m sigma_u) of a Hermitian unit-trace matrix."""
    return _validated_states(basis, [m], positive=False)[1][0]


def state_from_matrix(basis: BlochBasis, m: np.ndarray) -> DensityOperator:
    """Validate a density matrix and attach its Bloch vector."""
    return _states_from_matrices(basis, [m])[0]


def inball_radius(d: int) -> float:
    """Radius of the largest Bloch ball fully inside the state space: 1/sqrt(d-1)."""
    return 1.0 / np.sqrt(check_dimension(d) - 1.0)


@dataclass(frozen=True, eq=False)
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
    """Check shapes, finiteness, Hermiticity and spectra, each once over all effects,
    then completeness; name the first effect that fails, with its first failed check."""
    effects = [np.asarray(e, dtype=complex) for e in effects]
    if not effects:
        raise PovmError("measurement needs at least one effect")
    shape = effects[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0:
        raise PovmError(f"effect 0 has shape {shape}, expected a nonempty square matrix")
    d = shape[0]
    stack, not_finite, clean = _square_stack(effects, d)
    ev = np.linalg.eigvalsh(clean)
    _raise_first_fault(
        [
            (not_finite, lambda k: PovmError(f"effect {k} is not finite")),
            (~is_hermitian(clean), lambda k: PovmError(f"effect {k} is not Hermitian")),
            (ev[:, 0] < -PSD_ATOL,
             lambda k: PovmError(f"effect {k} has negative eigenvalue {ev[k, 0]:.3e}")),
            (ev[:, -1] > 1.0 + PSD_ATOL,
             lambda k: PovmError(f"effect {k} has eigenvalue {ev[k, -1]:.6f} above 1")),
        ],
        len(effects),
        lambda k: PovmError(f"effect {k} has shape {effects[k].shape}, expected ({d}, {d})"),
    )
    effects = tuple(_freeze(stack))  # read-only views of a copy no caller holds
    total = sum(effects)
    if frob(total - np.eye(d)) > CPTP_ATOL:
        raise PovmError(
            f"effects sum deviates from the identity by {frob(total - np.eye(d)):.3e}"
        )
    return Povm(dim=d, effects=effects)


@dataclass(frozen=True, eq=False)
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


def _choi_kernel(choi: np.ndarray, di: int, do: int) -> np.ndarray:
    """K[(i, j), (p, q)] = Phi(E_ij)[p, q], so that flat(Phi(x)) = flat(x) @ K."""
    return _choi4(choi, di, do).transpose(0, 2, 1, 3).reshape(di * di, do * do)


def _kernel_to_choi(k: np.ndarray, di: int, do: int) -> np.ndarray:
    """Inverse of ``_choi_kernel``: the same swap of the middle axes."""
    return k.reshape(di, di, do, do).transpose(0, 2, 1, 3).reshape(di * do, di * do)


def _choi_to_bloch(choi: np.ndarray, basis_in: BlochBasis, basis_out: BlochBasis) -> np.ndarray:
    """Phi[b, a] = tr(Phi(sigma_a) sigma'_b) / d_out = (T' K^T F^T)[b, a] / d_out.

    F and T hold the flattened sigma_a and sigma_a^T as rows, (d^2, d^2) each.
    """
    di, do = basis_in.dim, basis_out.dim
    flat_in = basis_in.elements.reshape(di * di, di * di)
    return (basis_out._flat_t @ _choi_kernel(choi, di, do).T @ flat_in.T).real / do


def _bloch_to_choi(bloch: np.ndarray, basis_in: BlochBasis, basis_out: BlochBasis) -> np.ndarray:
    """K = T^T Phi^T F' / d_in, with F and T as in ``_choi_to_bloch``; its inverse."""
    di, do = basis_in.dim, basis_out.dim
    flat_out = basis_out.elements.reshape(do * do, do * do)
    return _kernel_to_choi(basis_in._flat_t.T @ (bloch.T @ flat_out) / di, di, do)


def _channel_images(ch: QuantumChannel, xs: np.ndarray) -> np.ndarray:
    """Phi(x) of each (d_in, d_in) matrix in the stack xs, flattened: one row per matrix."""
    xs = np.asarray(xs, dtype=complex)
    return xs.reshape(len(xs), -1) @ _choi_kernel(ch.choi, ch.dim_in, ch.dim_out)


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
    choi = np.array(choi, dtype=complex)
    _require_finite(choi, InvalidChannelError, "Choi matrix")
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
    _require_finite(bloch, InvalidChannelError, "Bloch matrix")
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
        _require_finite(k, InvalidChannelError, "Kraus operator")
    kraus = np.array(kraus).reshape(-1, do, di)
    stacked = kraus.reshape(-1, di)
    total = dag(stacked) @ stacked
    if frob(total - np.eye(di)) > CPTP_ATOL:
        raise InvalidChannelError(
            f"Kraus operators violate trace preservation by {frob(total - np.eye(di)):.3e}"
        )
    # row k is K_k^T flattened, whose entry (i, p) is K_k[p, i]
    rows = kraus.transpose(0, 2, 1).reshape(len(kraus), di * do)
    choi = rows.T @ rows.conj()
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
    return _channel_images(ch, x[None]).reshape(ch.dim_out, ch.dim_out)


def is_unital_map(ch: QuantumChannel) -> bool:
    """True iff the channel maps the identity to the identity, to ``CPTP_ATOL`` (Frobenius)."""
    if ch.dim_in != ch.dim_out:
        raise DimensionMismatchError("unitality is defined only for square channels")
    image = apply_channel(ch, np.eye(ch.dim_in, dtype=complex))
    return frob(image - np.eye(ch.dim_out)) <= CPTP_ATOL


def identity_channel(basis: BlochBasis) -> QuantumChannel:
    return channel_from_kraus([np.eye(basis.dim, dtype=complex)], basis, basis)


def depolarizing_channel(basis: BlochBasis, p: float) -> QuantumChannel:
    """Mix with the maximally mixed state: X -> (1-p) X + p tr(X) identity / d.

    The identity's Bloch matrix is the identity in an orthogonal basis with
    sigma_0 = identity, so this one is (1-p) identity with Phi[0, 0] = 1.
    """
    d = basis.dim
    if not 0.0 <= p <= 1.0 + 1e-12:
        raise InvalidChannelError(f"depolarizing strength {p} outside [0, 1]")
    bloch = (1.0 - p) * np.eye(d * d)
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
    """X -> U X U^dag; for a single Kraus operator, trace preservation is unitarity."""
    return channel_from_kraus([u], basis, basis)
