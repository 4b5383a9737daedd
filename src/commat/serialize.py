"""JSON schemas: complex matrices as row-major [re, im] pairs, with explicit dimensions.

The same matrix encoding is shared by scenario files, frame files, channel
payloads and report envelopes, so any certificate can be re-verified by
replaying trace computations on its serialized operators.
"""

import re

import numpy as np

from .errors import ParseError
from .operators import (
    BlochBasis,
    Povm,
    QuantumChannel,
    amplitude_damping_channel,
    bloch_basis,
    channel_from_choi,
    channel_from_kraus,
    depolarizing_channel,
    identity_channel,
    measure_and_prepare_channel,
    state_from_matrix,
    unitary_channel,
    validate_povm,
)
from .scenario import CommMatrix, Scenario

SCHEMA_VERSION = "commat/1"


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m)
    rows, cols = m.shape
    entries = [[float(z.real), float(z.imag)] for z in m.astype(complex).ravel()]
    return {"rows": rows, "cols": cols, "entries": entries}


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: expected rows/cols/entries, got {obj!r}") from exc
    if len(entries) != rows * cols:
        raise ParseError(
            f"{where}: {rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
        )
    flat = []
    for idx, pair in enumerate(entries):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"{where}: entry {idx} is not an [re, im] pair: {pair!r}")
        try:
            flat.append(complex(float(pair[0]), float(pair[1])))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{where}: entry {idx} is not a pair of numbers: {pair!r}") from exc
    m = np.array(flat, dtype=complex)
    bad = np.flatnonzero(~np.isfinite(m))
    if bad.size:
        raise ParseError(f"{where}: entry {bad[0]} is not finite: {entries[bad[0]]!r}")
    return m.reshape(rows, cols)


def _square_matrices(objs, name: str, dim: int) -> list:
    """The dim x dim matrices of a JSON list, named name[i] in errors."""
    mats = [matrix_from_json(obj, f"{name}[{i}]") for i, obj in enumerate(objs)]
    for i, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise ParseError(f"{name}[{i}] has shape {m.shape}, expected ({dim}, {dim})")
    return mats


def real_matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    m = matrix_from_json(obj, where)
    if np.abs(m.imag).max() > 1e-12:
        raise ParseError(f"{where}: expected a real matrix, found imaginary parts")
    return m.real


_NAMED_RE = re.compile(r"^([a-z_]+)(?:\(([-0-9.eE]+)\))?$")

_PAULI = {
    "pauli_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "pauli_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "pauli_z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def named_channel(name: str, basis: BlochBasis) -> QuantumChannel:
    match = _NAMED_RE.match(name.strip())
    if not match:
        raise ParseError(f"cannot parse channel name {name!r}")
    kind, arg = match.group(1), match.group(2)
    if kind == "identity":
        return identity_channel(basis)
    if kind == "depolarizing":
        if arg is None:
            raise ParseError("depolarizing channel needs a strength, e.g. depolarizing(1.0)")
        return depolarizing_channel(basis, float(arg))
    if kind == "amplitude_damping":
        if arg is None:
            raise ParseError("amplitude damping needs a rate, e.g. amplitude_damping(0.3)")
        return amplitude_damping_channel(basis, float(arg))
    if kind in _PAULI:
        return unitary_channel(basis, _PAULI[kind])
    raise ParseError(f"unknown named channel {name!r}")


def channel_to_json(ch: QuantumChannel) -> dict:
    if ch.mp_realization is not None:
        povm, states = ch.mp_realization
        return {
            "kind": "measure_prepare",
            "povm": [matrix_to_json(e) for e in povm.effects],
            "states": [matrix_to_json(s.matrix) for s in states],
        }
    return {"kind": "choi", "choi": matrix_to_json(ch.choi), "dim_in": ch.dim_in, "dim_out": ch.dim_out}


def channel_from_json(obj, dim_in: int, dim_out: int) -> QuantumChannel:
    basis_in = bloch_basis(dim_in)
    basis_out = bloch_basis(dim_out)
    kind = obj.get("kind")
    if kind == "named":
        if dim_in != dim_out:
            raise ParseError("named channels are square")
        return named_channel(obj["name"], basis_in)
    if kind == "kraus":
        kraus = [matrix_from_json(k, f"kraus[{i}]") for i, k in enumerate(obj["kraus"])]
        return channel_from_kraus(kraus, basis_in, basis_out)
    if kind == "choi":
        return channel_from_choi(matrix_from_json(obj["choi"], "choi"), basis_in, basis_out)
    if kind == "measure_prepare":
        povm = validate_povm(_square_matrices(obj["povm"], "channel.povm", dim_in))
        states = _square_matrices(obj["states"], "channel.states", dim_out)
        return measure_and_prepare_channel(povm, [state_from_matrix(basis_out, m) for m in states])
    raise ParseError(f"unknown channel kind {kind!r}")


def scenario_to_json(scenario: Scenario) -> dict:
    out = {
        "schema": SCHEMA_VERSION,
        "dim_in": scenario.dim_in,
        "dim_out": scenario.dim_out,
        "states": [matrix_to_json(s.matrix) for s in scenario.states],
        "povm": [matrix_to_json(e) for e in scenario.povm.effects],
        "repeat": scenario.repeat,
    }
    out["channel"] = None if scenario.channel is None else channel_to_json(scenario.channel)
    return out


def scenario_from_json(obj) -> Scenario:
    try:
        dim_in = int(obj["dim_in"])
        dim_out = int(obj["dim_out"])
        state_objs = obj["states"]
        povm_objs = obj["povm"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"scenario file misses or mangles a required field: {exc}") from exc
    try:
        repeat = int(obj.get("repeat", 1))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"scenario repeat must be an integer, got {obj['repeat']!r}") from exc
    basis_in = bloch_basis(dim_in)
    states = [state_from_matrix(basis_in, m) for m in _square_matrices(state_objs, "states", dim_in)]
    povm = validate_povm(_square_matrices(povm_objs, "povm", dim_out))
    channel_obj = obj.get("channel")
    channel = None
    if channel_obj is not None:
        channel = channel_from_json(channel_obj, dim_in, dim_out)
    return Scenario(
        states=tuple(states),
        povm=povm,
        channel=channel,
        repeat=repeat,
    )


def comm_matrix_to_json(c: CommMatrix) -> dict:
    return {"schema": SCHEMA_VERSION, "comm_matrix": matrix_to_json(c.entries)}


def comm_matrix_from_json(obj) -> CommMatrix:
    if "comm_matrix" in obj:
        obj = obj["comm_matrix"]
    return CommMatrix(entries=real_matrix_from_json(obj, "comm_matrix"))


def frame_to_json(frame) -> dict:
    from .tomography import TomographyFrame, UnitalFrame

    if isinstance(frame, TomographyFrame):
        return {
            "schema": SCHEMA_VERSION,
            "kind": "full",
            "alpha": matrix_to_json(frame.alpha),
            "beta": matrix_to_json(frame.beta),
            "basis_in": {"kind": "gellmann", "dim": frame.basis_in.dim},
            "basis_out": {"kind": "gellmann", "dim": frame.basis_out.dim},
        }
    if isinstance(frame, UnitalFrame):
        return {
            "schema": SCHEMA_VERSION,
            "kind": "unital",
            "beta": matrix_to_json(frame.beta),
            "r_matrix": matrix_to_json(frame.r_matrix),
            "basis": {"kind": "gellmann", "dim": frame.basis.dim},
        }
    raise TypeError(f"not a frame: {frame!r}")


def frame_from_json(obj):
    from .tomography import TomographyFrame, UnitalFrame

    kind = obj.get("kind")
    if kind == "full":
        return TomographyFrame(
            alpha=real_matrix_from_json(obj["alpha"], "alpha"),
            beta=real_matrix_from_json(obj["beta"], "beta"),
            basis_in=bloch_basis(int(obj["basis_in"]["dim"])),
            basis_out=bloch_basis(int(obj["basis_out"]["dim"])),
        )
    if kind == "unital":
        return UnitalFrame(
            beta=real_matrix_from_json(obj["beta"], "beta"),
            r_matrix=real_matrix_from_json(obj["r_matrix"], "r_matrix"),
            basis=bloch_basis(int(obj["basis"]["dim"])),
        )
    raise ParseError(f"unknown frame kind {kind!r}")


def channel_payload(ch: QuantumChannel) -> dict:
    """Channel as emitted in reports: Choi plus Bloch, with CPTP diagnostics."""
    return {
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "choi": matrix_to_json(ch.choi),
        "bloch_matrix": matrix_to_json(ch.bloch_matrix),
        "cptp": {
            "is_cptp": bool(ch.is_cptp(1e-6)),
            "choi_min_eigval": float(ch.choi_min_eigval),
            "tp_deviation": float(ch.tp_deviation),
        },
    }


def to_jsonable(obj):
    """Recursively convert report dataclasses / numpy values to JSON-safe types."""
    import dataclasses

    from .operators import DensityOperator

    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, QuantumChannel):
        return channel_payload(obj)
    if isinstance(obj, Povm):
        return [matrix_to_json(e) for e in obj.effects]
    if isinstance(obj, DensityOperator):
        return matrix_to_json(obj.matrix)
    if isinstance(obj, Scenario):
        return scenario_to_json(obj)
    if isinstance(obj, CommMatrix):
        return matrix_to_json(obj.entries)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2:
            return matrix_to_json(obj)
        if np.iscomplexobj(obj):
            return [[float(z.real), float(z.imag)] for z in obj]
        return [float(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")
