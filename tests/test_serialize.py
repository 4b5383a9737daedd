"""JSON round trips for matrices, scenarios, channels and reports."""

import json

import numpy as np
import pytest

from commat import (
    Scenario,
    bloch_basis,
    comm_matrix,
    eb_example,
    self_test,
    sic_qubit,
    noisy_antidist,
)
from commat.errors import DimensionMismatchError, ParseError
from commat.sampling import random_channel, random_mixed_state
from commat.serialize import (
    _numeric_pairs,
    channel_from_json,
    channel_to_json,
    comm_matrix_from_json,
    comm_matrix_to_json,
    dumps,
    matrix_from_json,
    matrix_to_json,
    named_channel,
    scenario_from_json,
    scenario_to_json,
    to_jsonable,
)


def test_complex_matrix_round_trip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = matrix_from_json(matrix_to_json(m))
    assert np.abs(back - m).max() == 0.0


def test_matrix_entry_count_checked():
    with pytest.raises(ParseError, match="4 entries"):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})


def test_matrix_entry_shape_checked():
    with pytest.raises(ParseError, match="entry 1"):
        matrix_from_json({"rows": 1, "cols": 2, "entries": [[1.0, 0.0], [1.0]]})


def test_scenario_round_trip(basis2, rng):
    states, povm = sic_qubit()
    ch = random_channel(basis2, basis2, rng)
    scenario = Scenario(states=states, povm=povm, channel=ch, repeat=2)
    back = scenario_from_json(scenario_to_json(scenario))
    assert back.repeat == 2
    for a, b in zip(back.states, states):
        assert np.abs(a.matrix - b.matrix).max() < 1e-15
    assert np.abs(back.channel.choi - ch.choi).max() < 1e-12


def test_measure_prepare_channel_round_trip():
    states, povm, channel, _, _, _ = eb_example()
    doc = channel_to_json(channel)
    assert doc["kind"] == "measure_prepare"
    back = channel_from_json(doc, 2, 2)
    assert np.abs(back.choi - channel.choi).max() < 1e-12
    assert back.mp_realization is not None


@pytest.mark.parametrize("part, dims", [("states", (2, 3)), ("povm", (3, 2))])
def test_measure_prepare_operator_shapes_checked(part, dims):
    # a measure-prepare channel from dim_in to dim_out read with other dimensions
    _, _, channel, _, _, _ = eb_example()
    with pytest.raises(ParseError, match=rf"channel\.{part}\[0\] has shape"):
        channel_from_json(channel_to_json(channel), *dims)


def test_named_channels(basis2):
    ident = named_channel("identity", basis2)
    assert np.abs(ident.bloch_matrix - np.eye(4)).max() < 1e-14
    dep = named_channel("depolarizing(1.0)", basis2)
    assert np.abs(dep.bloch_matrix[1:, 1:]).max() < 1e-14
    px = named_channel("pauli_x", basis2)
    assert np.allclose(np.diag(px.bloch_matrix), [1, 1, -1, -1])
    ad = named_channel("amplitude_damping(0.3)", basis2)
    assert not np.allclose(ad.bloch_matrix[1:, 0], 0.0)
    with pytest.raises(ParseError):
        named_channel("squeeze(2)", basis2)
    with pytest.raises(ParseError):
        named_channel("depolarizing", basis2)


def test_malformed_state_names_index():
    states, povm = sic_qubit()
    doc = scenario_to_json(Scenario(states=states, povm=povm))
    doc["states"][1]["entries"] = doc["states"][1]["entries"][:-1]
    with pytest.raises(ParseError, match=r"states\[1\]"):
        scenario_from_json(doc)


def test_scenario_without_states_is_rejected():
    states, povm = sic_qubit()
    doc = scenario_to_json(Scenario(states=states, povm=povm))
    doc["states"] = []
    with pytest.raises(DimensionMismatchError, match="^scenario needs at least one state$"):
        scenario_from_json(doc)


def test_comm_matrix_round_trip():
    c = noisy_antidist(4, 0.5)
    back = comm_matrix_from_json(comm_matrix_to_json(c))
    assert np.abs(back.entries - c.entries).max() == 0.0


def test_reports_become_json_safe():
    import json

    cert = self_test(noisy_antidist(4, 0.5), 2)
    doc = to_jsonable(cert)
    json.dumps(doc)  # must not raise
    assert doc["passes"] is True
    assert "unitary or antiunitary" in doc["gauge_note"]


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


_EDGE_DOCUMENTS = {
    "empty dict": {},
    "empty list": [],
    "nested empties": {"a": {}, "b": [], "c": [[], {}, [[]]], "d": {"e": {"f": {}}}},
    "non-ascii and control characters": {
        "ключ": "значение \u2028 \U0001f600",
        "\x00\x1f\t": "tab\there\nnew line \\ \"quoted\"",
        "é": ["ü", "\x7f"],
    },
    "floats": [-0.0, 5e-324, 1e308, -1e308, 0.1, 1 / 3, 1e16, 1e-7],
    "ints, bools and None": {"i": [0, -1, 2**70], "b": [True, False], "n": None, "t": (1, 2)},
    "matrix": matrix_to_json(np.arange(12.0).reshape(3, 4) - 1j * np.arange(12.0).reshape(3, 4)),
    "matrices at depth": [{"m": {"rows": 1, "cols": 2, "entries": [[0.5, -0.0], [1e308, 5e-324]]}}],
    "scalar pairs that are not numbers": {"entries": [[True, None], [False, 7]]},
    "strings with the separators": {"entries": [["a, b", "c"], ["d", "e, f"]]},
    "strings with brackets": {"entries": [["a], [b", "c"], ["[1, 2]", "d"]]},
    "empty objects in pairs": {"entries": [[{}, 1.0], [2.0, {}]]},
    "nested lists": {"entries": [[1.0, [2.0, 3.0]], [4.0, 5.0]]},
    "pairs of other lengths": {"entries": [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]]},
    "an object in a pair": {"entries": [[1.0, {"re": 2.0}], [3.0, 4.0]]},
    "tuple pairs": {"entries": [(1.0, 2.0), (3.0, 4.0)]},
    "empty and non-list entries": [{"entries": []}, {"entries": "text"}, {"entries": [[]]}],
    "keys that are not strings": {1: {"entries": [[1.0, 2.0]]}, 2: [0.5]},
    "numpy float": [np.float64(0.1), {"x": np.float64(-0.0)}],
}


@pytest.mark.parametrize("doc", list(_EDGE_DOCUMENTS.values()), ids=list(_EDGE_DOCUMENTS))
def test_dumps_writes_what_json_dumps_writes(doc):
    assert dumps(doc) == _json_dumps(doc)


def test_dumps_writes_reports_and_scenarios_as_json_dumps_does(basis2, rng):
    states, povm = sic_qubit()
    scenario = Scenario(states=states, povm=povm, channel=random_channel(basis2, basis2, rng))
    for doc in (to_jsonable(self_test(noisy_antidist(4, 0.5), 2)), scenario_to_json(scenario)):
        assert dumps(doc) == _json_dumps(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "place", [lambda x: x, lambda x: {"a": [1.0, x]}, lambda x: {"entries": [[0.0, 1.0], [x, 0.0]]}]
)
def test_dumps_rejects_non_finite_numbers_as_json_dumps_does(bad, place):
    doc = place(bad)
    with pytest.raises(ValueError) as expected:
        _json_dumps(doc)
    with pytest.raises(ValueError) as got:
        dumps(doc)
    assert str(got.value) == str(expected.value)


def _per_entry_matrix(obj, where="matrix"):
    """matrix_from_json as it read entries before its array path: one pair at a time."""
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
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


def _outcome(parse, obj):
    """The bits of the parsed matrix, or the ParseError text."""
    try:
        m = parse(obj)
    except ParseError as exc:
        return "error", str(exc)
    return m.shape, m.view(np.uint64).tobytes()


def _random_number(rng):
    kind = rng.integers(6)
    if kind == 0:
        return bool(rng.integers(2))
    if kind == 1:
        return int(rng.integers(-(2**62), 2**62)) * int(rng.integers(1, 3))
    if kind == 2:
        return int(rng.integers(2**63, 2**64, dtype=np.uint64))
    if kind == 3:
        return float(rng.choice([-0.0, 5e-324, 1e308, -1e308, 0.0]))
    return float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))


def test_matrix_from_json_array_path_matches_the_per_entry_parse(rng):
    for case in range(300):
        rows, cols = (int(n) for n in rng.integers(1, 7, size=2))
        if case % 3:
            entries = rng.standard_normal((rows * cols, 2)).tolist()
        else:
            entries = [[_random_number(rng), _random_number(rng)] for _ in range(rows * cols)]
        obj = {"rows": rows, "cols": cols, "entries": entries}
        assert _numeric_pairs(entries) is not None
        assert _outcome(matrix_from_json, obj) == _outcome(_per_entry_matrix, obj)


@pytest.mark.parametrize(
    "pair",
    [
        [True, False],
        [3, -7],
        ["1.5", 0.0],
        [" 2.5 ", "1e3"],
        ["1_000", 0.0],
        ["abc", 0.0],
        [10**400, 0.0],
        [2**64, 1.0],
        [1.0],
        [1.0, 2.0, 3.0],
        [[1.0], 0.0],
        [1 + 2j, 0.0],
        [1.0, None],
        (2.0, 0.5),
        "ab",
        None,
        np.array([1.0, 0.0]),
        [float("nan"), 0.0],
        [0.0, float("-inf")],
        ["inf", 0.0],
    ],
    ids=repr,
)
def test_matrix_from_json_reads_odd_entries_as_the_per_entry_parse(pair):
    obj = {"rows": 2, "cols": 2, "entries": [[0.5, -0.5], [1.0, 0.0], pair, [0.0, 1.0]]}
    assert _outcome(matrix_from_json, obj) == _outcome(_per_entry_matrix, obj)
