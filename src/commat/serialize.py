"""JSON schemas: complex matrices as row-major [re, im] pairs, with explicit dimensions.

The same matrix encoding is shared by scenario files, channel payloads and
report envelopes, so any certificate can be re-verified by replaying trace
computations on its serialized operators.  Malformed input raises ParseError.
Every document is written by ``dumps``.
"""

import dataclasses
import json
import math
import re
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ParseError
from .operators import (
    BlochBasis,
    QuantumChannel,
    _states_from_matrices,
    amplitude_damping_channel,
    bloch_basis,
    channel_from_choi,
    channel_from_kraus,
    depolarizing_channel,
    identity_channel,
    measure_and_prepare_channel,
    unitary_channel,
    validate_povm,
)
from .scenario import CommMatrix, Scenario
from .tomography import CPTP_WARN_TOL

SCHEMA_VERSION = "commat/1"


def _pairs(a: np.ndarray) -> list:
    """The entries of a complex or real array, row-major, as [re, im] lists of Python floats."""
    return np.ascontiguousarray(a, dtype=complex).reshape(-1).view(float).reshape(-1, 2).tolist()


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m)
    rows, cols = m.shape
    return {"rows": rows, "cols": cols, "entries": _pairs(m)}


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
    m = _numeric_pairs(entries)
    if m is None:
        m = _complex_entries(entries, where)
    bad = np.flatnonzero(~np.isfinite(m))
    if bad.size:
        raise ParseError(f"{where}: entry {bad[0]} is not finite: {entries[bad[0]]!r}")
    return m.reshape(rows, cols)


def _numeric_pairs(entries: list):
    """The complex vector of a list of [re, im] lists of numbers, in one array
    conversion, or None if ``entries`` is anything else (for ``_complex_entries``).

    A bool or an int converts to the same float as under ``float()``.  Strings,
    objects, ragged or nested pairs, and ints beyond the int64 and uint64 ranges
    give no numeric (n, 2) array.
    """
    if {*map(type, entries)} != {list}:
        return None
    try:
        a = np.array(entries)
    except (TypeError, ValueError, OverflowError):
        return None
    if a.shape != (len(entries), 2) or a.dtype.kind not in "biuf":
        return None
    return np.ascontiguousarray(a, dtype=float).view(complex).reshape(-1)


def _complex_entries(entries: list, where: str) -> np.ndarray:
    """The complex vector of ``entries`` one pair at a time, naming the first bad entry."""
    flat = []
    for idx, pair in enumerate(entries):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"{where}: entry {idx} is not an [re, im] pair: {pair!r}")
        try:
            flat.append(complex(float(pair[0]), float(pair[1])))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{where}: entry {idx} is not a pair of numbers: {pair!r}") from exc
    return np.array(flat, dtype=complex)


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
        return measure_and_prepare_channel(povm, _states_from_matrices(basis_out, states))
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
    states = _states_from_matrices(basis_in, _square_matrices(state_objs, "states", dim_in))
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
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, QuantumChannel):
        return channel_payload(obj)
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
            return _pairs(obj)
        return obj.astype(float).tolist()
    if dataclasses.is_dataclass(obj):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# the encoder json.dumps(sort_keys=True, indent=2, allow_nan=False) builds; with an
# indent it runs in pure Python
_INDENTED = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False)


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``, byte for byte.

    The json module writes an indented document with its pure-Python encoder.
    This writer walks dicts and lists itself and renders each list of
    [re, im] pairs (a matrix's ``entries``) from one compact dump by the C
    encoder, whose numbers are the same ``float.__repr__`` text.  NaN and
    infinities raise ``ValueError`` as under ``json.dumps``.
    """
    return _dumps(obj, "\n")


def _dumps(obj, newline: str) -> str:
    """``obj`` as ``dumps`` writes it inside a document, where its own line
    starts with ``newline`` (a line break and the indent of its depth)."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is float and math.isfinite(obj):
        return float.__repr__(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    inner = newline + "  "
    if isinstance(obj, dict) and obj and all(type(key) is str for key in obj):
        items = [
            encode_basestring_ascii(key) + ": " + _dumps(value, inner)
            for key, value in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)) and obj:
        return _pair_list(obj, newline) or (
            "[" + inner + ("," + inner).join(_dumps(v, inner) for v in obj) + newline + "]"
        )
    # non-finite floats (which raise), subclasses, empty containers, dicts with
    # keys that are not strings, and objects json rejects; strings hold no raw line break
    return _INDENTED.encode(obj).replace("\n", newline)


def _pair_list(value, newline: str):
    """A non-empty list of two-item lists of numbers as ``_dumps`` writes it, or
    None for any other list, which ``_dumps`` then walks (and rejects, if it must)."""
    if {*map(type, value)} != {list} or {*map(len, value)} != {2}:
        return None
    try:
        text = json.dumps(value, allow_nan=False)
    except (TypeError, ValueError):
        return None
    # no string (an object's keys are strings too) and no bracket but the pairs'
    # own: the items are numbers, literals or {}, whose text holds no separator
    if '"' in text or text.count("[") != len(value) + 1:
        return None
    pair, number = newline + "  ", newline + "    "
    body = text[2:-2].replace("], [", pair + "]," + pair + "[" + number).replace(", ", "," + number)
    return "[" + pair + "[" + number + body + pair + "]" + newline + "]"
