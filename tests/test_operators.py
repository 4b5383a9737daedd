"""Operator-basis, state, measurement and channel foundations."""

import re

import numpy as np
import pytest

from commat import (
    amplitude_damping_channel,
    apply_channel,
    bloch_basis,
    bloch_from_state,
    channel_from_bloch,
    channel_from_choi,
    channel_from_kraus,
    completely_depolarizing_channel,
    depolarizing_channel,
    identity_channel,
    inball_radius,
    is_unital_map,
    measure_and_prepare_channel,
    sic_qubit,
    state_from_bloch,
    state_from_matrix,
    unitary_channel,
    validate_povm,
)
from commat.errors import (
    DimensionMismatchError,
    InvalidChannelError,
    InvalidDimensionError,
    InvalidOperatorError,
    NotAStateError,
    PovmError,
)
from commat.operators import BlochBasis, _bloch_to_choi, _choi_to_bloch, _states_from_matrices
from commat.sampling import random_channel, random_mixed_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def standard_gellmann_qutrit():
    """The eight textbook qutrit matrices, used as an independent oracle."""
    l1 = np.zeros((3, 3), complex); l1[0, 1] = l1[1, 0] = 1
    l2 = np.zeros((3, 3), complex); l2[0, 1] = -1j; l2[1, 0] = 1j
    l3 = np.diag([1, -1, 0]).astype(complex)
    l4 = np.zeros((3, 3), complex); l4[0, 2] = l4[2, 0] = 1
    l5 = np.zeros((3, 3), complex); l5[0, 2] = -1j; l5[2, 0] = 1j
    l6 = np.zeros((3, 3), complex); l6[1, 2] = l6[2, 1] = 1
    l7 = np.zeros((3, 3), complex); l7[1, 2] = -1j; l7[2, 1] = 1j
    l8 = np.diag([1, 1, -2]).astype(complex) / np.sqrt(3)
    return [l1, l2, l3, l4, l5, l6, l7, l8]


class TestBlochBasis:
    def test_qubit_basis_is_pauli(self, basis2):
        expected = [np.eye(2), SX, SY, SZ]
        for got, want in zip(basis2.elements, expected):
            assert np.allclose(got, want, atol=1e-15)

    def test_qutrit_basis_is_rescaled_gellmann(self, basis3):
        oracle = [np.sqrt(1.5) * g for g in standard_gellmann_qutrit()]
        for el in basis3.traceless:
            assert np.trace(el @ el).real == pytest.approx(3.0, abs=1e-12)
            assert any(np.allclose(el, g, atol=1e-12) for g in oracle)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_gram_matrix(self, d):
        basis = bloch_basis(d)
        gram = np.array(
            [[np.trace(a @ b).real for b in basis.elements] for a in basis.elements]
        )
        assert np.abs(gram - d * np.eye(d * d)).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_hermitian_and_traceless(self, d):
        basis = bloch_basis(d)
        for a, el in enumerate(basis.elements):
            assert np.abs(el - el.conj().T).max() < 1e-12
            expected_trace = d if a == 0 else 0.0
            assert np.trace(el).real == pytest.approx(expected_trace, abs=1e-12)

    def test_rejects_dimension_below_two(self):
        with pytest.raises(InvalidDimensionError):
            bloch_basis(1)

    def test_one_basis_per_dimension(self):
        assert bloch_basis(3) is bloch_basis(3) is bloch_basis(np.int64(3))
        assert bloch_basis(3).dim == 3 and type(bloch_basis(np.int64(3)).dim) is int
        for bad in (3.0, 2.5):
            with pytest.raises(InvalidDimensionError, match="must be an integer"):
                bloch_basis(bad)
        with pytest.raises(InvalidDimensionError):
            bloch_basis(True)

    def test_elements_are_one_frozen_array(self, basis3):
        assert basis3.elements.shape == (9, 3, 3)
        with pytest.raises(ValueError):
            basis3.elements[1, 0, 0] = 5.0

    def test_coords_of_a_stack(self, basis3, rng):
        mats = np.stack([random_mixed_state(basis3, rng).matrix for _ in range(5)])
        stacked = basis3.coords(mats)
        assert stacked.shape == (5, 9)
        for m, row in zip(mats, stacked):
            reference = [np.trace(m @ s).real / 3 for s in basis3.elements]
            assert np.abs(row - reference).max() < 1e-14
            assert np.array_equal(basis3.coords(m), row)


def channel_from_choi_on(basis, m):
    return channel_from_choi(m, basis, basis)


def channel_from_bloch_on(basis, m):
    return channel_from_bloch(m, basis, basis)


def apply_identity_channel(basis, m):
    return apply_channel(identity_channel(basis), m)


class TestStates:
    def test_zero_vector_is_maximally_mixed(self, basis3):
        s = state_from_bloch(basis3, np.zeros(8))
        assert np.allclose(s.matrix, np.eye(3) / 3)

    def test_north_pole_is_projector(self, basis2):
        s = state_from_bloch(basis2, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(s.matrix, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_inball_directions_always_valid(self, d, rng):
        basis = bloch_basis(d)
        radius = inball_radius(d)
        for _ in range(20):
            direction = rng.standard_normal(d * d - 1)
            direction /= np.linalg.norm(direction)
            state_from_bloch(basis, radius * direction)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_worst_case_direction_beyond_ball_is_invalid(self, d):
        # extremal spectrum: one eigenvalue -sqrt(d-1), the rest 1/sqrt(d-1)
        basis = bloch_basis(d)
        mu = np.full(d, 1.0 / np.sqrt(d - 1.0))
        mu[0] = -np.sqrt(d - 1.0)
        h = np.diag(mu).astype(complex)
        direction = np.array([np.trace(h @ s).real for s in basis.traceless]) / d
        assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(NotAStateError) as exc:
            state_from_bloch(basis, 1.01 * np.sqrt(d - 1.0) * direction)
        assert exc.value.min_eigenvalue < -1e-10

    def test_bloch_of_maximally_mixed_is_zero(self, basis2):
        assert np.abs(bloch_from_state(basis2, np.eye(2) / 2)).max() < 1e-15

    def test_bloch_of_first_sic_state(self, basis2):
        states, _ = sic_qubit()
        r = bloch_from_state(basis2, states[0].matrix)
        assert np.allclose(r, np.ones(3) / np.sqrt(3), atol=1e-14)

    def test_roundtrip_on_random_hermitian(self, basis3, rng):
        for _ in range(20):
            m = random_mixed_state(basis3, rng).matrix
            r = bloch_from_state(basis3, m)
            back = state_from_bloch(basis3, r)
            assert np.abs(back.matrix - m).max() < 1e-10

    def test_roundtrip_inside_ball(self, basis2, basis3, rng):
        for basis in (basis2, basis3):
            d = basis.dim
            for _ in range(20):
                r = rng.standard_normal(d * d - 1)
                r *= rng.uniform(0, inball_radius(d)) / np.linalg.norm(r)
                assert np.abs(bloch_from_state(basis, state_from_bloch(basis, r).matrix) - r).max() < 1e-10

    def test_non_hermitian_rejected(self, basis2):
        with pytest.raises(InvalidOperatorError):
            bloch_from_state(basis2, np.array([[0.5, 1.0], [0.0, 0.5]]))

    @pytest.mark.parametrize(
        "build",
        [
            state_from_matrix,
            bloch_from_state,
            unitary_channel,
            channel_from_choi_on,
            channel_from_bloch_on,
            apply_identity_channel,
        ],
    )
    @pytest.mark.parametrize("m", [np.eye(3) / 3, np.array([0.5, 0.5]), np.array(1.0)])
    def test_wrong_shape_is_a_dimension_mismatch(self, basis2, build, m):
        # the shape is checked before anything reshapes or indexes the matrix
        with pytest.raises(DimensionMismatchError, match=re.escape(f"shape {m.shape}")):
            build(basis2, m)


def _defective_qubit_matrices():
    """2 x 2 matrices by the first check of ``state_from_matrix`` that each one fails."""
    nan = np.eye(2, dtype=complex) / 2
    nan[0, 1] = np.nan
    return {
        "valid": np.diag([0.25, 0.75]),
        "shape": np.eye(3) / 3,
        "not finite": nan,
        "not Hermitian": np.array([[0.5, 1.0], [0.0, 0.5]]),
        "not Hermitian, trace 2": np.array([[1.0, 1.0], [0.0, 1.0]]),
        "trace": np.diag([0.7, 0.7]),
        "trace, negative": np.diag([2.0, -0.5]),
        "negative": np.diag([1.5, -0.5]),
    }


class TestStatesFromMatrices:
    """One pass of each check over a stack, with the errors of one call per matrix."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_every_stack_size_matches_one_call_per_matrix_bit_for_bit(self, d, rng):
        basis = bloch_basis(d)
        mats = [random_mixed_state(basis, rng).matrix for _ in range(36)]
        mats[0] = np.eye(d) / d
        singles = [state_from_matrix(basis, m) for m in mats]
        for n in range(1, 37):
            stacked = _states_from_matrices(basis, mats[:n])
            assert len(stacked) == n
            for one, s in zip(singles, stacked):
                assert np.array_equal(s.matrix, one.matrix)
                assert np.array_equal(s.bloch, one.bloch)
                assert s.dim == d and s.basis is basis

    def test_first_failing_state_raises_its_own_error(self, basis2):
        # state 0 has a negative eigenvalue, the fifth and last check; state 1 fails the third
        bad = _defective_qubit_matrices()
        with pytest.raises(NotAStateError) as expected:
            state_from_matrix(basis2, bad["negative"])
        with pytest.raises(NotAStateError) as raised:
            _states_from_matrices(basis2, [bad["negative"], bad["not Hermitian"]])
        assert str(raised.value) == str(expected.value)
        assert raised.value.min_eigenvalue == expected.value.min_eigenvalue

    @pytest.mark.parametrize("first", list(_defective_qubit_matrices()))
    @pytest.mark.parametrize("second", list(_defective_qubit_matrices()))
    def test_error_is_the_one_a_loop_would_raise(self, basis2, first, second):
        bad = _defective_qubit_matrices()
        mats = [bad["valid"], bad[first], bad["valid"], bad[second]]
        expected = None
        for m in mats:
            try:
                state_from_matrix(basis2, m)
            except Exception as err:  # noqa: BLE001 - the first error of the loop, whatever it is
                expected = err
                break
        if expected is None:
            assert len(_states_from_matrices(basis2, mats)) == 4
            return
        with pytest.raises(type(expected)) as raised:
            _states_from_matrices(basis2, mats)
        assert str(raised.value) == str(expected)

    def test_empty_stack_gives_no_states(self, basis2):
        assert _states_from_matrices(basis2, []) == []


class TestConstructorsOwnTheirArrays:
    """The stored operators are read-only copies; the caller's arrays stay writable."""

    def test_state_from_matrix(self, basis2):
        m = np.diag([0.25, 0.75]).astype(complex)
        s = state_from_matrix(basis2, m)
        assert m.flags.writeable and s.matrix is not m
        assert not s.matrix.flags.writeable and not s.bloch.flags.writeable
        m[0, 0] = 9.0
        assert s.matrix[0, 0] == 0.25

    def test_validate_povm(self):
        e0, e1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
        povm = validate_povm([e0, e1])
        assert e0.flags.writeable and e1.flags.writeable
        assert not any(e.flags.writeable for e in povm.effects)
        e0[0, 0] = e1[1, 1] = 9.0
        assert povm.effects[0][0, 0] == 1.0 and povm.effects[1][1, 1] == 1.0

    def test_channel_from_choi(self, basis2):
        choi = identity_channel(basis2).choi.copy()
        ch = channel_from_choi(choi, basis2, basis2)
        assert choi.flags.writeable and not ch.choi.flags.writeable
        choi[0, 0] = 9.0
        assert ch.choi[0, 0] == 1.0


class TestInballRadius:
    @pytest.mark.parametrize("d,expected", [(2, 1.0), (3, 1 / np.sqrt(2)), (4, 1 / np.sqrt(3))])
    def test_values(self, d, expected):
        assert inball_radius(d) == pytest.approx(expected, abs=1e-15)

    def test_rejects_bad_dimension(self):
        with pytest.raises(InvalidDimensionError):
            inball_radius(1)

    def test_needs_an_integer_dimension(self):
        assert inball_radius(np.int64(3)) == inball_radius(3)
        for bad in (2.5, 2.0):
            with pytest.raises(InvalidDimensionError, match="must be an integer"):
                inball_radius(bad)


def _defective_qubit_effects():
    """Faulty effects of a qubit measurement, each with the message of the first
    check of ``validate_povm`` that it fails."""
    nan = np.eye(2, dtype=complex) / 2
    nan[0, 1] = np.nan
    return {
        "shape": (np.eye(3) / 3, "has shape (3, 3), expected (2, 2)"),
        "not finite": (nan, "is not finite"),
        "not Hermitian": (np.array([[0.5, 1.0], [0.0, 0.5]]), "is not Hermitian"),
        "not Hermitian, above 1": (np.array([[1.5, 1.0], [0.0, 0.5]]), "is not Hermitian"),
        "negative": (np.diag([-0.5, 1.0]), "has negative eigenvalue -5.000e-01"),
        "negative, above 1": (np.diag([1.5, -0.5]), "has negative eigenvalue -5.000e-01"),
        "above 1": (np.diag([1.5, 0.0]), "has eigenvalue 1.500000 above 1"),
    }


class TestPovm:
    @pytest.mark.parametrize("first", list(_defective_qubit_effects()))
    @pytest.mark.parametrize("second", list(_defective_qubit_effects()))
    def test_error_names_the_first_faulty_effect_by_its_first_failed_check(self, first, second):
        # the rule of the states: which effect is named does not depend on the other faults
        bad = _defective_qubit_effects()
        valid = np.diag([0.25, 0.75])
        with pytest.raises(PovmError) as raised:
            validate_povm([valid, bad[first][0], valid, bad[second][0]])
        assert str(raised.value) == f"effect 1 {bad[first][1]}"

    def test_no_effects_is_a_povm_error(self):
        with pytest.raises(PovmError, match="measurement needs at least one effect"):
            validate_povm([])

    def test_projective_measurement(self):
        povm = validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert len(povm) == 2

    def test_sic_effects(self):
        states, _ = sic_qubit()
        povm = validate_povm([s.matrix / 2 for s in states])
        assert povm.dim == 2

    def test_completeness_failure(self):
        with pytest.raises(PovmError, match="sum"):
            validate_povm([np.eye(2), np.eye(2)])

    def test_negative_effect(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(PovmError, match="negative"):
            validate_povm([bad, np.eye(2) - bad])

    @pytest.mark.parametrize("effects", [[1.0], [np.zeros((0, 0))]])
    def test_first_effect_that_is_no_square_matrix_is_a_povm_error(self, effects):
        # the first effect fixes d, so its shape is checked before it is indexed
        shape = np.shape(effects[0])
        with pytest.raises(PovmError, match=re.escape(f"effect 0 has shape {shape}")):
            validate_povm(effects)

    def test_non_hermitian_effect(self):
        e = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(PovmError, match="Hermitian"):
            validate_povm([e, np.eye(2) - e])


class TestChannels:
    def test_single_identity_kraus(self, basis2):
        ch = channel_from_kraus([np.eye(2)], basis2, basis2)
        assert np.abs(ch.bloch_matrix - np.eye(4)).max() < 1e-14

    def test_depolarizing_kraus_p1(self, basis2):
        p = 1.0
        kraus = [
            np.sqrt(1 - 3 * p / 4) * np.eye(2),
            np.sqrt(p / 4) * SX,
            np.sqrt(p / 4) * SY,
            np.sqrt(p / 4) * SZ,
        ]
        ch = channel_from_kraus(kraus, basis2, basis2)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(ch.bloch_matrix - expected).max() < 1e-14

    def test_sigma_x_conjugation_block(self, basis2):
        ch = channel_from_kraus([SX], basis2, basis2)
        # oracle: conjugate each basis element by sigma_x directly
        oracle = np.array(
            [
                [np.trace(sb @ SX @ sa @ SX).real / 2 for sa in basis2.elements]
                for sb in basis2.elements
            ]
        )
        assert np.allclose(oracle[1:, 1:], np.diag([1.0, -1.0, -1.0]), atol=1e-14)
        assert np.abs(ch.bloch_matrix - oracle).max() < 1e-14

    def test_trace_preservation_enforced(self, basis2):
        with pytest.raises(InvalidChannelError):
            channel_from_kraus([0.9 * np.eye(2)], basis2, basis2)

    def test_transpose_map_rejected(self, basis2):
        # positive but not completely positive: Choi has a negative eigenvalue
        choi = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                eij = np.zeros((2, 2), dtype=complex)
                eij[i, j] = 1.0
                choi[i * 2:(i + 1) * 2, j * 2:(j + 1) * 2] = eij.T
        with pytest.raises(InvalidChannelError):
            channel_from_choi(choi, basis2, basis2)

    def test_point_contraction(self, basis2):
        xi = state_from_bloch(basis2, np.array([0.0, 0.0, 1.0]))
        ch = measure_and_prepare_channel(validate_povm([np.eye(2)]), [xi])
        x = np.array([[0.2, 0.1j], [-0.1j, 0.5]])
        assert np.abs(apply_channel(ch, x) - np.trace(x) * xi.matrix).max() < 1e-14

    def test_dephasing_is_unital(self, basis2):
        projectors = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        states = [state_from_matrix(basis2, p) for p in projectors]
        ch = measure_and_prepare_channel(validate_povm(projectors), states)
        assert np.abs(apply_channel(ch, np.eye(2)) - np.eye(2)).max() < 1e-14
        assert is_unital_map(ch)

    def test_measure_prepare_arity(self, basis2):
        xi = state_from_bloch(basis2, np.zeros(3))
        from commat.errors import ArityError

        with pytest.raises(ArityError):
            measure_and_prepare_channel(validate_povm([np.eye(2)]), [xi, xi])

    def test_identity_applies_identically(self, basis2, rng):
        ch = identity_channel(basis2)
        m = random_mixed_state(basis2, rng).matrix
        assert np.abs(apply_channel(ch, m) - m).max() < 1e-14

    def test_depolarizing_sends_to_maximally_mixed(self, basis3, rng):
        ch = completely_depolarizing_channel(basis3)
        m = random_mixed_state(basis3, rng).matrix
        assert np.abs(apply_channel(ch, m) - np.eye(3) / 3).max() < 1e-14

    def test_random_channel_preserves_trace(self, basis2, rng):
        for _ in range(10):
            ch = random_channel(basis2, basis2, rng)
            m = random_mixed_state(basis2, rng).matrix
            assert np.trace(apply_channel(ch, m)).real == pytest.approx(1.0, abs=1e-12)

    def test_choi_and_bloch_paths_agree(self, basis2, basis3, rng):
        for basis in (basis2, basis3):
            for _ in range(50):
                ch = random_channel(basis, basis, rng)
                m = random_mixed_state(basis, rng).matrix
                d = basis.dim
                gamma = np.array([np.trace(m @ s).real for s in basis.elements]) / d
                coeffs = ch.bloch_matrix @ gamma
                via_bloch = sum(c * s for c, s in zip(coeffs, basis.elements))
                assert np.abs(apply_channel(ch, m) - via_bloch).max() < 1e-9

    def test_unitality_checks(self, basis2, rng):
        from commat.sampling import random_unitary

        assert is_unital_map(unitary_channel(basis2, random_unitary(2, rng)))
        assert is_unital_map(completely_depolarizing_channel(basis2))
        xi = state_from_bloch(basis2, np.array([0.0, 0.0, 1.0]))
        contraction = measure_and_prepare_channel(validate_povm([np.eye(2)]), [xi])
        assert not is_unital_map(contraction)

    def test_rectangular_channel(self, basis2, basis3, rng):
        ch = random_channel(basis2, basis3, rng)
        assert ch.bloch_matrix.shape == (9, 4)
        m = random_mixed_state(basis2, rng).matrix
        out = apply_channel(ch, m)
        assert out.shape == (3, 3)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_immutability(self, basis2):
        ch = identity_channel(basis2)
        with pytest.raises(ValueError):
            ch.choi[0, 0] = 5.0

    @pytest.mark.parametrize("di,do", [(2, 2), (3, 3), (2, 3)])
    def test_conversions_match_loop_reference(self, di, do, rng):
        basis_in, basis_out = bloch_basis(di), bloch_basis(do)
        for _ in range(5):
            ch = random_channel(basis_in, basis_out, rng)
            reference = np.empty((do * do, di * di))
            for a, sa in enumerate(basis_in.elements):
                image = sum(
                    sa[i, j] * ch.choi[i * do:(i + 1) * do, j * do:(j + 1) * do]
                    for i in range(di)
                    for j in range(di)
                )
                for b, sb in enumerate(basis_out.elements):
                    reference[b, a] = np.trace(image @ sb).real / do
            assert np.abs(ch.bloch_matrix - reference).max() < 1e-12
            back = channel_from_bloch(reference, basis_in, basis_out)
            assert np.abs(back.choi - ch.choi).max() < 1e-12

    @pytest.mark.parametrize("di,do", [(2, 2), (2, 3), (3, 2), (6, 6)])
    def test_choi_to_bloch_matches_the_kraus_formula(self, di, do, rng):
        # oracle: Phi[b, a] = tr(Phi(sigma_a) sigma'_b) / d_out with Phi(x) = sum K x K^dag
        basis_in, basis_out = bloch_basis(di), bloch_basis(do)
        g = rng.standard_normal((3 * do, di)) + 1j * rng.standard_normal((3 * do, di))
        kraus = np.linalg.qr(g)[0].reshape(3, do, di)
        ch = channel_from_kraus(list(kraus), basis_in, basis_out)
        images = [sum(k @ sa @ k.conj().T for k in kraus) for sa in basis_in.elements]
        reference = np.array(
            [[np.trace(im @ sb).real / do for im in images] for sb in basis_out.elements]
        )
        assert np.abs(_choi_to_bloch(ch.choi, basis_in, basis_out) - reference).max() < 1e-13
        back = _bloch_to_choi(reference, basis_in, basis_out)
        assert np.abs(back - ch.choi).max() < 1e-13

    @pytest.mark.parametrize("d", [2, 3, 6])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_depolarizing_matches_the_identity_channel_construction(self, d, p):
        basis = bloch_basis(d)
        bloch = (1.0 - p) * identity_channel(basis).bloch_matrix
        bloch[0, 0] = 1.0
        dep = depolarizing_channel(basis, p)
        assert np.abs(dep.bloch_matrix - bloch).max() <= 1e-15
        assert np.abs(dep.choi - channel_from_bloch(bloch, basis, basis).choi).max() <= 1e-15

    def test_bloch_constructor_keeps_its_matrix(self, basis2, basis3, rng):
        bloch = random_channel(basis2, basis3, rng).bloch_matrix.copy()
        ch = channel_from_bloch(bloch, basis2, basis3)
        assert np.array_equal(ch.bloch_matrix, bloch)
        bloch[0, 0] = 5.0  # the caller's array stays writable and is not shared
        assert ch.bloch_matrix[0, 0] != 5.0


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: BlochBasis(dim=2, elements=bloch_basis(2).elements[:3]),
            InvalidDimensionError,
            "expected 4 basis elements of shape (2, 2), got (3, 2, 2)",
        ),
        (
            lambda: state_from_bloch(bloch_basis(2), np.zeros(2)),
            DimensionMismatchError,
            "Bloch vector must have length 3, got (2,)",
        ),
        (
            lambda: is_unital_map(
                random_channel(bloch_basis(2), bloch_basis(3), np.random.default_rng(0))
            ),
            DimensionMismatchError,
            "unitality is defined only for square channels",
        ),
        (lambda: depolarizing_channel(bloch_basis(2), -0.1), InvalidChannelError,
         "depolarizing strength -0.1 outside [0, 1]"),
        (lambda: depolarizing_channel(bloch_basis(2), 1.1), InvalidChannelError,
         "depolarizing strength 1.1 outside [0, 1]"),
        (lambda: amplitude_damping_channel(bloch_basis(3), 0.5), InvalidDimensionError,
         "amplitude damping is defined for qubits"),
        (lambda: amplitude_damping_channel(bloch_basis(2), -0.1), InvalidChannelError,
         "damping rate -0.1 outside [0, 1]"),
        (lambda: amplitude_damping_channel(bloch_basis(2), 1.1), InvalidChannelError,
         "damping rate 1.1 outside [0, 1]"),
    ],
    ids=[
        "basis-element-count", "bloch-vector-length", "unitality-of-a-rectangular-channel",
        "depolarizing-below-0", "depolarizing-above-1", "amplitude-damping-qutrit",
        "damping-below-0", "damping-above-1",
    ],
)
def test_constructor_shape_and_range_errors(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error
    assert str(raised.value) == message


def _array_field_objects():
    """One of each object type with array fields, built afresh on every call."""
    import commat as cm

    # bloch_basis returns one basis per dimension, so this one is made directly
    basis = BlochBasis(dim=2, elements=bloch_basis(2).elements)
    states, povm = sic_qubit()
    c = cm.comm_matrix(states, povm)
    scenario = cm.Scenario(states=states, povm=povm)
    trine_states, trine_povm = cm.trine_qubit()
    c0 = cm.comm_matrix_with_channel(
        cm.Scenario(states=states, povm=povm, channel=completely_depolarizing_channel(basis))
    )
    return [
        basis,
        states[0],
        povm,
        identity_channel(basis),
        c,
        cm.build_frame(states, povm, basis, basis),
        cm.build_unital_frame(states, povm, basis),
        cm.self_test(c, 2),
        cm.robustness_gap(scenario),
        cm.construct_indistinguishable_pair(trine_states, trine_povm),
        cm.detect_unitality(c, c0, c, 2, povm_complete=True),
        cm.eb_certificate(c, c0, 2, l_max=1, restarts=1),
    ]


def test_array_field_objects_compare_by_identity():
    # generated field-wise __eq__ would raise "truth value of an array is ambiguous"
    for x, y in zip(_array_field_objects(), _array_field_objects()):
        assert x == x
        assert x != y
        assert hash(x) == hash(x)


def _with_entry(m, value):
    m = np.array(m, dtype=complex)
    m.flat[1] = value
    return m


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "build, error",
    [
        (lambda b, x: state_from_matrix(b, _with_entry(np.eye(2) / 2, x)), InvalidOperatorError),
        (lambda b, x: state_from_bloch(b, np.array([0.0, x, 0.0])), InvalidOperatorError),
        (lambda b, x: validate_povm([_with_entry(np.eye(2), x), np.zeros((2, 2))]), PovmError),
        (lambda b, x: channel_from_choi(_with_entry(np.eye(4) / 2, x), b, b), InvalidChannelError),
        (lambda b, x: channel_from_kraus([_with_entry(np.eye(2), x)], b, b), InvalidChannelError),
        (lambda b, x: channel_from_bloch(_with_entry(np.eye(4), x).real, b, b), InvalidChannelError),
        (lambda b, x: unitary_channel(b, _with_entry(np.eye(2), x)), InvalidChannelError),
    ],
    ids=[
        "state_from_matrix", "state_from_bloch", "validate_povm", "channel_from_choi",
        "channel_from_kraus", "channel_from_bloch", "unitary_channel",
    ],
)
def test_non_finite_operator_is_rejected_without_warnings(build, error, value):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="not finite"):
            build(bloch_basis(2), value)
