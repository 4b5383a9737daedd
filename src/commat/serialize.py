"""JSON schemas: complex matrices as row-major [re, im] pairs, with explicit dimensions.

The same matrix encoding is shared by scenario files, channel payloads and
report envelopes, so any certificate can be re-verified by replaying trace
computations on its serialized operators.  Malformed input raises ParseError.
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
from .tomography import CPTP_WARN_TOL

SCHEMA_VERSION = "commat/1"


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m)
    rows, cols = m.shape
    entries = [[float(z.real), float(z.imag)] for z in m.astype(complex).ravel()]
    return {"rows": rows, "cols": cols, "entries": entries}


def _integer(value, what: str) -> int:
    """A JSON integer field: an int or an integral float, so not true, 2.5 or "2"."""
    if type(value) is not int and not (type(value) is float and value.is_integer()):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return int(value)


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{where}: expected rows/cols/entries, got {obj!r}") from exc
    rows, cols = _integer(rows, f"{where}: rows"), _integer(cols, f"{where}: cols")
    if rows < 1 or cols < 1:
        raise ParseError(f"{where}: rows and cols must be positive, got {rows}x{cols}")
    if not isinstance(entries, list):
        raise ParseError(f"{where}: entries must be a list of [re, im] pairs, got {entries!r}")
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


def _matrices(objs, name: str) -> list:
    """The matrices of a JSON list, named name[i] in errors."""
    if not isinstance(objs, list):
        raise ParseError(f"{name} must be a list of matrices, got {objs!r}")
    return [matrix_from_json(obj, f"{name}[{i}]") for i, obj in enumerate(objs)]


def _square_matrices(objs, name: str, dim: int) -> list:
    """The dim x dim matrices of a JSON list, named name[i] in errors."""
    mats = _matrices(objs, name)
    for i, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise ParseError(f"{name}[{i}] has shape {m.shape}, expected ({dim}, {dim})")
    return mats


def real_matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    m = matrix_from_json(obj, where)
    if np.abs(m.imag).max() > 1e-12:
        raise ParseError(f"{where}: expected a real matrix, found imaginary parts")
    return m.real


_NAMED_RE = re.compile(r"^([a-z_]+)(?:\(([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\))?$")

_PAULI = {
    "pauli_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "pauli_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "pauli_z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def named_channel(name: str, basis: BlochBasis) -> QuantumChannel:
    if not isinstance(name, str):
        raise ParseError(f"channel name must be a string, got {name!r}")
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


def _field(obj: dict, key: str, kind: str):
    if key not in obj:
        raise ParseError(f"{kind} channel misses its {key!r} field")
    return obj[key]


def channel_from_json(obj, dim_in: int, dim_out: int) -> QuantumChannel:
    if not isinstance(obj, dict):
        raise ParseError(f"channel must be an object, got {obj!r}")
    basis_in = bloch_basis(dim_in)
    basis_out = bloch_basis(dim_out)
    kind = obj.get("kind")
    if kind == "named":
        if dim_in != dim_out:
            raise ParseError("named channels are square")
        return named_channel(_field(obj, "name", kind), basis_in)
    if kind == "kraus":
        return channel_from_kraus(_matrices(_field(obj, "kraus", kind), "kraus"), basis_in, basis_out)
    if kind == "choi":
        return channel_from_choi(matrix_from_json(_field(obj, "choi", kind), "choi"), basis_in, basis_out)
    if kind == "measure_prepare":
        povm = validate_povm(_square_matrices(_field(obj, "povm", kind), "channel.povm", dim_in))
        states = _square_matrices(_field(obj, "states", kind), "channel.states", dim_out)
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
        dim_in, dim_out = obj["dim_in"], obj["dim_out"]
        state_objs, povm_objs = obj["states"], obj["povm"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"scenario file misses or mangles a required field: {exc}") from exc
    dim_in, dim_out = _integer(dim_in, "scenario dim_in"), _integer(dim_out, "scenario dim_out")
    repeat = _integer(obj.get("repeat", 1), "scenario repeat")
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
    if isinstance(obj, dict) and "comm_matrix" in obj:
        obj = obj["comm_matrix"]
    return CommMatrix(entries=real_matrix_from_json(obj, "comm_matrix"))


def channel_payload(ch: QuantumChannel) -> dict:
    """Channel as emitted in reports: Choi plus Bloch, with CPTP diagnostics."""
    return {
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "choi": matrix_to_json(ch.choi),
        "bloch_matrix": matrix_to_json(ch.bloch_matrix),
        "cptp": {
            "is_cptp": bool(ch.is_cptp(CPTP_WARN_TOL)),
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
