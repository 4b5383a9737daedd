"""Frame construction and the three reconstruction routes."""

import numpy as np
import pytest

from commat import (
    CommMatrix,
    Scenario,
    apply_channel,
    bloch_basis,
    build_frame,
    build_unital_frame,
    comm_matrix,
    comm_matrix_with_channel,
    completely_depolarizing_channel,
    identity_channel,
    measure_and_prepare_channel,
    reconstruct_channel,
    reconstruct_unital,
    reconstruct_up_to_gauge,
    sic_qubit,
    state_from_bloch,
    state_from_matrix,
    trine_qubit,
    unitary_channel,
    validate_povm,
)
from commat.errors import (
    FrameDeficientError,
    InsufficientStatesError,
    NotInformationallyCompleteError,
    NotSelfTestableError,
)
from commat.sampling import random_channel, random_mixed_state, random_povm, random_unitary

SZ = np.diag([1.0, -1.0]).astype(complex)


@pytest.fixture
def sic_frame(basis2):
    states, povm = sic_qubit()
    return build_frame(states, povm, basis2, basis2)


@pytest.fixture
def axis_states(basis2):
    return tuple(
        state_from_bloch(basis2, r)
        for r in (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    )


class TestBuildFrame:
    def test_sic_identity_coefficients(self, sic_frame):
        # oracle: SIC states are linearly independent, so the expansion of the
        # identity is the unique solution of the 4x4 linear system
        states, _ = sic_qubit()
        coords = np.column_stack(
            [[np.trace(s.matrix @ el).real / 2 for el in bloch_basis(2).elements] for s in states]
        )
        unique = np.linalg.solve(coords, np.eye(4)[:, 0])
        assert np.allclose(unique, 0.5)
        assert np.allclose(sic_frame.alpha[0], 0.5, atol=1e-12)

    def test_reconstruction_identity(self, sic_frame, basis2):
        states, povm = sic_qubit()
        for a in range(4):
            synth = sum(sic_frame.alpha[a, j] * states[j].matrix for j in range(4))
            assert np.abs(synth - basis2.elements[a]).max() < 1e-9
        for b in range(4):
            synth = sum(sic_frame.beta[b, k] * povm.effects[k] for k in range(4))
            assert np.abs(synth - basis2.elements[b]).max() < 1e-9

    def test_computational_basis_states_deficient(self, basis2):
        states = [
            state_from_bloch(basis2, np.array([0.0, 0.0, 1.0])),
            state_from_bloch(basis2, np.array([0.0, 0.0, -1.0])),
        ]
        _, povm = sic_qubit()
        with pytest.raises(FrameDeficientError, match="states"):
            build_frame(states, povm, basis2, basis2)

    def test_deficient_povm_named(self, basis2):
        states, _ = sic_qubit()
        povm = validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.raises(FrameDeficientError, match="effects"):
            build_frame(states, povm, basis2, basis2)


class TestReconstruct:
    def test_identity_round_trip(self, sic_frame, basis2):
        states, povm = sic_qubit()
        cprime = comm_matrix_with_channel(
            Scenario(states=states, povm=povm, channel=identity_channel(basis2))
        )
        rec = reconstruct_channel(sic_frame, cprime)
        assert np.abs(rec.bloch_matrix - np.eye(4)).max() < 1e-9

    def test_point_contraction_from_flat_rows(self, sic_frame, basis2):
        states, povm = sic_qubit()
        xi = state_from_bloch(basis2, np.array([0.3, -0.2, 0.4]))
        contraction = measure_and_prepare_channel(validate_povm([np.eye(2)]), [xi])
        cprime = comm_matrix_with_channel(
            Scenario(states=states, povm=povm, channel=contraction)
        )
        assert np.abs(cprime.entries - cprime.entries[0][None, :]).max() < 1e-14
        rec = reconstruct_channel(sic_frame, cprime)
        x = random_mixed_state(basis2, np.random.default_rng(5)).matrix
        assert np.abs(apply_channel(rec, x) - np.trace(x) * xi.matrix).max() < 1e-9

    def test_random_channel_round_trips(self, sic_frame, basis2, rng):
        states, povm = sic_qubit()
        for _ in range(25):
            ch = random_channel(basis2, basis2, rng)
            cprime = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=ch))
            rec = reconstruct_channel(sic_frame, cprime)
            assert np.linalg.norm(rec.choi - ch.choi) < 1e-9

    def test_rectangular_channel_round_trips(self, basis2, basis3, rng):
        states, _ = sic_qubit()
        povm = random_povm(basis3, rng, 9)
        frame = build_frame(states, povm, basis2, basis3)
        for _ in range(3):
            ch = random_channel(basis2, basis3, rng)
            cprime = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=ch))
            rec = reconstruct_channel(frame, cprime)
            assert np.linalg.norm(rec.choi - ch.choi) < 1e-9

    def test_qutrit_round_trips(self, basis3, rng):
        states = [random_mixed_state(basis3, rng) for _ in range(9)]
        povm = random_povm(basis3, rng, 9)
        frame = build_frame(states, povm, basis3, basis3)
        for _ in range(5):
            ch = random_channel(basis3, basis3, rng)
            cprime = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=ch))
            rec = reconstruct_channel(frame, cprime)
            assert np.linalg.norm(rec.choi - ch.choi) < 1e-8

    def test_linearity_in_cprime(self, sic_frame, basis2, rng):
        states, povm = sic_qubit()
        ch1 = random_channel(basis2, basis2, rng)
        ch2 = random_channel(basis2, basis2, rng)
        cp1 = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=ch1))
        cp2 = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=ch2))
        lam = 0.37
        mixed = CommMatrix(entries=lam * cp1.entries + (1 - lam) * cp2.entries)
        rec_mixed = reconstruct_channel(sic_frame, mixed)
        rec1 = reconstruct_channel(sic_frame, cp1)
        rec2 = reconstruct_channel(sic_frame, cp2)
        combo = lam * rec1.bloch_matrix + (1 - lam) * rec2.bloch_matrix
        assert np.abs(rec_mixed.bloch_matrix - combo).max() < 1e-10

    def test_same_matrix_same_reconstruction(self, sic_frame, basis2, rng):
        # a globally rotated implementation generates the identical matrix,
        # and the reconstruction depends on the matrix alone
        states, povm = sic_qubit()
        ch = random_channel(basis2, basis2, rng)
        cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=ch))
        u = random_unitary(2, rng)
        rot_states = [state_from_matrix(basis2, u @ s.matrix @ u.conj().T) for s in states]
        rot_povm = validate_povm([u @ e @ u.conj().T for e in povm.effects])
        rot_ch_bloch = (
            unitary_channel(basis2, u).bloch_matrix
            @ ch.bloch_matrix
            @ unitary_channel(basis2, u.conj().T).bloch_matrix
        )
        from commat import channel_from_bloch

        rot_ch = channel_from_bloch(rot_ch_bloch, basis2, basis2)
        cp_rot = comm_matrix_with_channel(
            Scenario(states=rot_states, povm=rot_povm, channel=rot_ch)
        )
        assert np.abs(cp.entries - cp_rot.entries).max() < 1e-12
        rec_a = reconstruct_channel(sic_frame, cp)
        rec_b = reconstruct_channel(sic_frame, CommMatrix(entries=cp_rot.entries.copy()))
        assert np.abs(rec_a.bloch_matrix - rec_b.bloch_matrix).max() < 1e-10

    def test_noncptp_matrix_warns(self, sic_frame, basis2):
        # statistics no channel can produce: stretch the Bloch ball outward by
        # extrapolating past the identity channel, away from full depolarization
        states, povm = sic_qubit()
        c_ident = comm_matrix_with_channel(
            Scenario(states=states, povm=povm, channel=identity_channel(basis2))
        )
        c_dep = comm_matrix_with_channel(
            Scenario(states=states, povm=povm, channel=completely_depolarizing_channel(basis2))
        )
        stretched = CommMatrix(entries=1.5 * c_ident.entries - 0.5 * c_dep.entries)
        with pytest.warns(UserWarning, match="CPTP"):
            rec = reconstruct_channel(sic_frame, stretched)
        assert rec.choi_min_eigval < -1e-6
        assert not rec.is_cptp(1e-6)


class TestReconstructUnital:
    def test_trine_states_insufficient(self, basis2):
        trine_states, _ = trine_qubit()
        _, sic_povm = sic_qubit()
        with pytest.raises(InsufficientStatesError):
            build_unital_frame(trine_states, sic_povm, basis2)

    def test_identity_round_trip(self, axis_states, basis2):
        _, povm = sic_qubit()
        frame = build_unital_frame(axis_states, povm, basis2)
        c = comm_matrix(axis_states, povm)
        cp = comm_matrix_with_channel(
            Scenario(states=axis_states, povm=povm, channel=identity_channel(basis2))
        )
        rec = reconstruct_unital(frame, c, cp)
        assert np.abs(rec.bloch_matrix - np.eye(4)).max() < 1e-9

    def test_sigma_z_conjugation(self, axis_states, basis2):
        _, povm = sic_qubit()
        frame = build_unital_frame(axis_states, povm, basis2)
        c = comm_matrix(axis_states, povm)
        ch = unitary_channel(basis2, SZ)
        cp = comm_matrix_with_channel(Scenario(states=axis_states, povm=povm, channel=ch))
        rec = reconstruct_unital(frame, c, cp)
        # oracle: conjugating the Paulis by sigma_z flips x and y
        oracle = np.array(
            [
                [np.trace(sb @ SZ @ sa @ SZ).real / 2 for sa in basis2.traceless]
                for sb in basis2.traceless
            ]
        )
        assert np.allclose(oracle, np.diag([-1.0, -1.0, 1.0]), atol=1e-14)
        assert np.abs(rec.bloch_matrix[1:, 1:] - oracle).max() < 1e-9

    def test_agrees_with_full_reconstruction(self, axis_states, basis2, rng):
        sic_states, povm = sic_qubit()
        full_frame = build_frame(sic_states, povm, basis2, basis2)
        unital_frame = build_unital_frame(axis_states, povm, basis2)
        c = comm_matrix(axis_states, povm)
        for _ in range(5):
            ch = unitary_channel(basis2, random_unitary(2, rng))
            cp_full = comm_matrix_with_channel(
                Scenario(states=sic_states, povm=povm, channel=ch)
            )
            cp_unital = comm_matrix_with_channel(
                Scenario(states=axis_states, povm=povm, channel=ch)
            )
            rec_full = reconstruct_channel(full_frame, cp_full)
            rec_unital = reconstruct_unital(unital_frame, c, cp_unital)
            assert np.linalg.norm(rec_full.choi - rec_unital.choi) < 1e-8


class TestReconstructUpToGauge:
    def test_identity_channel(self, basis2):
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        cp = comm_matrix_with_channel(
            Scenario(states=states, povm=povm, channel=identity_channel(basis2))
        )
        estimate = reconstruct_up_to_gauge(c, cp, 2)
        assert np.abs(estimate.channel.bloch_matrix - np.eye(4)).max() < 1e-6
        assert "antiunitary" in estimate.gauge_note

    def test_depolarizing_channel_exact(self, basis2):
        states, povm = sic_qubit()
        dep = completely_depolarizing_channel(basis2)
        c = comm_matrix(states, povm)
        cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=dep))
        estimate = reconstruct_up_to_gauge(c, cp, 2)
        assert np.abs(estimate.channel.bloch_matrix - dep.bloch_matrix).max() < 1e-6

    def test_random_unitary_gauge_invariants(self, basis2, rng):
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        ch = unitary_channel(basis2, random_unitary(2, rng))
        cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=ch))
        estimate = reconstruct_up_to_gauge(c, cp, 2)
        block = estimate.channel.bloch_matrix[1:, 1:]
        assert np.abs(estimate.gauge_invariant_singular_values() - 1.0).max() < 1e-6
        assert abs(abs(np.linalg.det(block)) - 1.0) < 1e-6
        assert np.abs(block @ block.T - np.eye(3)).max() < 1e-6

    def test_incomplete_matrix_rejected(self):
        trine_states, trine_povm = trine_qubit()
        c = comm_matrix(trine_states, trine_povm)
        with pytest.raises(NotInformationallyCompleteError):
            reconstruct_up_to_gauge(c, c, 2)

    def test_not_self_testable_rejected(self, basis2):
        # complete but sub-maximal storability: shrunk tetrahedron states
        shrunk = [
            state_from_bloch(basis2, 0.8 * s.bloch) for s in sic_qubit()[0]
        ]
        _, povm = sic_qubit()
        c = comm_matrix(shrunk, povm)
        assert np.linalg.matrix_rank(c.entries) == 4
        with pytest.raises(NotSelfTestableError):
            reconstruct_up_to_gauge(c, c, 2)

    def test_failed_fit_reports_gram_residual(self, monkeypatch):
        import dataclasses

        from commat import tomography

        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        real_self_test = tomography.self_test

        def failing_fit(*args, **kwargs):
            cert = real_self_test(*args, **kwargs)
            return dataclasses.replace(cert, passes=False, gram_residual=3.5e-3)

        monkeypatch.setattr(tomography, "self_test", failing_fit)
        with pytest.raises(NotSelfTestableError) as info:
            reconstruct_up_to_gauge(c, c, 2, restarts=1)
        message = str(info.value)
        assert "3.500e-03" in message
        assert "residual_tol" in message
        assert "does not certify" not in message
