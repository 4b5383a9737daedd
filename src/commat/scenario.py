"""Prepare-and-measure scenarios and their communication matrices."""

from dataclasses import dataclass, field

import numpy as np

from ._linalg import born_matrix, freeze as _freeze, frob
from .errors import CommMatrixError, DimensionMismatchError, InvalidChannelError, check_integer
from .operators import (
    Povm,
    QuantumChannel,
    _channel_images,
    channel_from_bloch,
)

ENTRY_CLAMP = 1e-12
ROW_SUM_ATOL = 1e-10


@dataclass(frozen=True)
class Scenario:
    """States, a measurement, and optionally a channel applied ``repeat`` times."""

    states: tuple
    povm: Povm
    channel: QuantumChannel | None = None
    repeat: int = 1

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if not self.states:
            raise DimensionMismatchError("scenario needs at least one state")
        ds = {s.dim for s in self.states}
        if len(ds) != 1:
            raise DimensionMismatchError(f"states have mixed dimensions {sorted(ds)}")
        d = self.states[0].dim
        if self.channel is not None:
            if self.channel.dim_in != d:
                raise DimensionMismatchError(
                    f"states have dimension {d} but channel input is {self.channel.dim_in}"
                )
            if self.channel.dim_out != self.povm.dim:
                raise DimensionMismatchError(
                    f"channel output is {self.channel.dim_out} but measurement acts on {self.povm.dim}"
                )
        elif self.povm.dim != d:
            raise DimensionMismatchError(
                f"states have dimension {d} but measurement acts on {self.povm.dim}"
            )
        object.__setattr__(self, "repeat", _repeat_count(self.repeat))

    @property
    def dim_in(self) -> int:
        return self.states[0].dim

    @property
    def dim_out(self) -> int:
        return self.povm.dim


@dataclass(frozen=True, eq=False)
class CommMatrix:
    """Row-stochastic matrix of outcome probabilities with optional provenance."""

    entries: np.ndarray
    provenance: Scenario | None = field(default=None, repr=False)

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise CommMatrixError(f"expected a nonempty 2d matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            j, k = np.argwhere(~np.isfinite(m))[0]
            raise CommMatrixError(f"entry ({j}, {k}) is {m[j, k]}, not a finite number")
        lo = m.min()
        if lo < -ENTRY_CLAMP:
            raise CommMatrixError(f"entry {lo:.3e} is negative beyond tolerance")
        if m.max() > 1.0 + ENTRY_CLAMP:
            raise CommMatrixError(f"entry {m.max():.6f} exceeds 1 beyond tolerance")
        clip = m < 0.0
        if clip.any():
            m[clip] = 0.0
            rows = clip.any(axis=1)
            m[rows] /= m[rows].sum(axis=1, keepdims=True)
        sums = m.sum(axis=1)
        if np.abs(sums - 1.0).max() > ROW_SUM_ATOL:
            j = int(np.abs(sums - 1.0).argmax())
            raise CommMatrixError(f"row {j} sums to {sums[j]:.12f}, expected 1")
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def shape(self) -> tuple:
        return self.entries.shape


def comm_matrix(states, povm: Povm, provenance: Scenario | None = None) -> CommMatrix:
    """C[j, k] = tr(rho_j M_k)."""
    states = tuple(states)
    d = {s.dim for s in states}
    if d != {povm.dim}:
        raise DimensionMismatchError(
            f"states of dimension {sorted(d)} measured by a {povm.dim}-dimensional POVM"
        )
    if provenance is None:
        provenance = Scenario(states=states, povm=povm)
    entries = born_matrix([s.matrix for s in states], povm.effects)
    return CommMatrix(entries=entries, provenance=provenance)


def _repeat_count(lam) -> int:
    """``lam`` as an int by ``check_integer``'s rule; a count below 1 raises ``InvalidChannelError``."""
    lam = check_integer("repeat count", lam, None)
    if lam < 1:
        raise InvalidChannelError(f"repeat count must be >= 1, got {lam}")
    return lam


def iterate_channel(ch: QuantumChannel, lam: int) -> QuantumChannel:
    """lam-fold composition of a square channel, realized as a Bloch-matrix power."""
    if ch.dim_in != ch.dim_out:
        raise DimensionMismatchError("only square channels can be iterated")
    lam = _repeat_count(lam)
    if lam == 1:
        return ch
    power = np.linalg.matrix_power(ch.bloch_matrix, lam)
    return channel_from_bloch(power, ch.basis_in, ch.basis_out)


def compose_channels(outer: QuantumChannel, inner: QuantumChannel) -> QuantumChannel:
    """outer after inner; Bloch matrices multiply."""
    if inner.dim_out != outer.dim_in:
        raise DimensionMismatchError(
            f"cannot compose: inner output {inner.dim_out} != outer input {outer.dim_in}"
        )
    return channel_from_bloch(
        outer.bloch_matrix @ inner.bloch_matrix, inner.basis_in, outer.basis_out
    )


def comm_matrix_with_channel(scenario: Scenario) -> CommMatrix:
    """C'[j, k] = tr(Phi^repeat(rho_j) M_k); reduces to comm_matrix without a channel.

    With the states flattened to rows R and the channel as its matrix K on
    flattened operators, C' = R K M^T: two products for all the states at once.
    """
    if scenario.channel is None:
        return comm_matrix(scenario.states, scenario.povm, provenance=scenario)
    ch = scenario.channel
    if scenario.repeat > 1:
        ch = iterate_channel(ch, scenario.repeat)
    do = ch.dim_out
    images = _channel_images(ch, [s.matrix for s in scenario.states])
    entries = born_matrix(images.reshape(-1, do, do), scenario.povm.effects)
    return CommMatrix(entries=entries, provenance=scenario)


def choi_distance(a: QuantumChannel, b: QuantumChannel) -> float:
    return frob(a.choi - b.choi)
