"""Operator-basis, state, measurement and channel foundations."""

import numpy as np
import pytest

from commat import (
    apply_channel,
    bloch_basis,
    bloch_from_state,
    channel_from_bloch,
    channel_from_choi,
    channel_from_kraus,
    completely_depolarizing_channel,
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
    InvalidChannelError,
    InvalidDimensionError,
    InvalidOperatorError,
    NotAStateError,
    PovmError,
)
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


class TestInballRadius:
    @pytest.mark.parametrize("d,expected", [(2, 1.0), (3, 1 / np.sqrt(2)), (4, 1 / np.sqrt(3))])
    def test_values(self, d, expected):
        assert inball_radius(d) == pytest.approx(expected, abs=1e-15)

    def test_rejects_bad_dimension(self):
        with pytest.raises(InvalidDimensionError):
            inball_radius(1)


class TestPovm:
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

    def test_bloch_constructor_keeps_its_matrix(self, basis2, basis3, rng):
        bloch = random_channel(basis2, basis3, rng).bloch_matrix.copy()
        ch = channel_from_bloch(bloch, basis2, basis3)
        assert np.array_equal(ch.bloch_matrix, bloch)
        bloch[0, 0] = 5.0  # the caller's array stays writable and is not shared
        assert ch.bloch_matrix[0, 0] != 5.0
