"""Frame construction and the three reconstruction routes."""

import re

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
    eb_example,
    identity_channel,
    measure_and_prepare_channel,
    reconstruct_channel,
    reconstruct_unital,
    reconstruct_up_to_gauge,
    sic_qubit,
    span_dims,
    state_from_bloch,
    state_from_matrix,
    trine_qubit,
    unitary_channel,
    validate_povm,
)
from commat.errors import (
    DimensionMismatchError,
    FrameDeficientError,
    InsufficientStatesError,
    NotInformationallyCompleteError,
    NotSelfTestableError,
    PreconditionError,
)
from commat.sampling import random_channel, random_mixed_state, random_povm, random_unitary
from commat.tomography import FRAME_MAX_COND, _dual_frame
from conftest import epsilon_panel_states, make_random_setup, make_spanning_setup, rank1_setup

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


@pytest.fixture
def sic_unital_frame(basis2):
    states, povm = sic_qubit()
    return build_unital_frame(states, povm, basis2)


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

    @pytest.mark.parametrize("d", [2, 3])
    def test_deficient_exactly_when_span_dims_fall_short(self, d, rng):
        basis = bloch_basis(d)
        full = d * d
        for span_s, span_m in [(full, full), (full - 1, full), (full, full - 1), (full - 2, 3)]:
            states, povm = make_spanning_setup(basis, rng, full + 2, full + 1, span_s, span_m)
            dim_s, dim_m, _ = span_dims(states, povm)
            assert (dim_s, dim_m) == (span_s, span_m)
            if dim_s < full or dim_m < full:
                side = "states" if dim_s < full else "effects"
                with pytest.raises(FrameDeficientError, match=side):
                    build_frame(states, povm, basis, basis)
            else:
                build_frame(states, povm, basis, basis)

    @pytest.mark.parametrize("d, n", [(d, d * d + extra) for d in range(2, 7) for extra in (0, 2)])
    def test_dual_frame_is_the_transposed_pseudoinverse(self, d, n, rng):
        # at n = d^2 every side is square and takes the inverse, at n = d^2 + 2 the SVD
        basis = bloch_basis(d)
        states, povm = make_random_setup(basis, rng, n, n)
        # the states, the effects, and the unital frame's Bloch-vector matrix R of all
        # states but the first
        for coords in (basis.coords(np.array([s.matrix for s in states])).T,
                       basis.coords(np.array(povm.effects)).T,
                       np.column_stack([s.bloch for s in states[1:]])):
            square = coords.shape[0] == coords.shape[1]
            assert square == (n == d * d)
            dual = _dual_frame(coords, FrameDeficientError, "operators")
            pinv_t = np.linalg.pinv(coords).T
            bound = 8 * np.linalg.cond(coords) * np.finfo(float).eps
            assert np.abs(dual - pinv_t).max() <= bound * np.abs(pinv_t).max()
            assert np.abs(dual @ coords.T - np.eye(len(coords))).max() <= bound
            if not square:  # the same SVD as pinv's
                assert np.abs(dual - pinv_t).max() < 1e-12

    @pytest.mark.parametrize("setup", ["rank1-5", "rank1-6", "six-state"])
    def test_over_complete_sides_take_the_minimum_norm_dual(self, basis2, setup):
        if setup == "six-state":
            states, povm = eb_example()[:2]
        else:
            vectors, weights = rank1_setup(np.random.default_rng(0), 2, int(setup[-1]))
            states = [state_from_matrix(basis2, np.outer(v, v.conj())) for v in vectors]
            povm = validate_povm([a * np.outer(v, v.conj()) for a, v in zip(weights, vectors)])
        frame = build_frame(states, povm, basis2, basis2)
        for dual, mats in ((frame.alpha, [s.matrix for s in states]), (frame.beta, povm.effects)):
            coords = basis2.coords(np.array(mats)).T
            assert coords.shape[1] > coords.shape[0]
            # the minimum-norm dual of a full-row-rank A is (A A^T)^-1 A, in A's row space
            oracle = np.linalg.solve(coords @ coords.T, coords)
            assert np.abs(dual - oracle).max() < 1e-13

    def test_bases_of_another_dimension_are_a_dimension_mismatch(self, basis2, basis3):
        states, povm = sic_qubit()
        with pytest.raises(DimensionMismatchError,
                           match=r"^states have dimension 2 but the basis has dimension 3$"):
            build_frame(states, povm, basis3, basis2)
        with pytest.raises(DimensionMismatchError,
                           match=r"^effects have dimension 2 but the basis has dimension 3$"):
            build_frame(states, povm, basis2, basis3)
        with pytest.raises(DimensionMismatchError,
                           match=r"^states have dimension 2 but the basis has dimension 3$"):
            build_unital_frame(states, povm, basis3)
        qutrit_povm = random_povm(basis3, np.random.default_rng(0), 9)
        with pytest.raises(DimensionMismatchError,
                           match=r"^effects have dimension 3 but the basis has dimension 2$"):
            build_unital_frame(states, qutrit_povm, basis2)

    def test_deficient_sides_keep_their_messages(self, basis2):
        sic_states, sic_povm = sic_qubit()
        states = [
            state_from_bloch(basis2, np.array(r))
            for r in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0])
        ]
        povm = validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.raises(FrameDeficientError, match=r"^states span only 3 of 4 dimensions$"):
            build_frame(states, sic_povm, basis2, basis2)
        with pytest.raises(FrameDeficientError, match=r"^effects span only 2 of 4 dimensions$"):
            build_frame(sic_states, povm, basis2, basis2)
        # both sides fall short: the states are checked first
        with pytest.raises(FrameDeficientError, match=r"^states span only 3 of 4 dimensions$"):
            build_frame(states, povm, basis2, basis2)
        # full rank, but the SIC effects squashed along y by 1e-8 have condition number 1.7e8
        squashed = validate_povm(
            [state_from_bloch(basis2, s.bloch * [1.0, 1e-8, 1.0]).matrix / 2 for s in sic_states]
        )
        with pytest.raises(FrameDeficientError,
                           match=r"^effects have condition number 1\.732e\+08 above 1e\+07$"):
            build_frame(sic_states, squashed, basis2, basis2)

    @pytest.mark.parametrize("eps, builds", [
        (1e-3, True), (1e-4, True), (1e-5, True), (1e-6, True), (3e-7, True),
        (1e-7, False), (3e-8, False), (1e-8, False),
    ])
    def test_condition_number_limit(self, basis2, eps, builds):
        # every panel state frame has full rank; kappa ~ 1.8 / eps runs from 1.8e3 to 1.8e8
        states = epsilon_panel_states(basis2, eps)
        _, povm = sic_qubit()
        mats = np.array([s.matrix for s in states])
        kappa = np.linalg.cond(basis2.coords(mats).T)
        assert (kappa <= FRAME_MAX_COND) == builds
        if builds:
            # the min-norm dual reproduces the basis to about kappa * eps
            frame = build_frame(states, povm, basis2, basis2)
            synth = np.tensordot(frame.alpha, mats, axes=1)
            assert np.abs(synth - basis2.elements).max() <= 8 * kappa * np.finfo(float).eps
        else:
            with pytest.raises(FrameDeficientError, match=r"^states have condition number") as info:
                build_frame(states, povm, basis2, basis2)
            reported = float(str(info.value).split()[4])
            assert reported == pytest.approx(kappa, rel=1e-3)


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

    def test_cprime_of_another_shape_than_the_frame_is_a_dimension_mismatch(self, sic_frame):
        with pytest.raises(DimensionMismatchError, match="matrix is 3x4 but frame expects 4x4"):
            reconstruct_channel(sic_frame, CommMatrix(entries=np.full((3, 4), 0.25)))


class TestReconstructUnital:
    @pytest.mark.parametrize("setup, message", [
        ("trine", r"span only 2 of 3 dimensions; right pseudoinverse does not exist$"),
        # full rank 3, but kappa of R is 1e8: the third vector leaves the first one's axis by 1e-8
        ("near-dependent", r"have condition number 1\.000e\+08 above 1e\+07$"),
    ])
    def test_states_that_cannot_be_inverted_are_insufficient(self, basis2, setup, message):
        if setup == "trine":
            states, _ = trine_qubit()
        else:
            panel = epsilon_panel_states(basis2, 1e-8)
            states = [panel[0], panel[1], panel[3]]
        _, sic_povm = sic_qubit()
        with pytest.raises(InsufficientStatesError, match="^state Bloch vectors " + message):
            build_unital_frame(states, sic_povm, basis2)

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

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_equals_the_pseudoinverse_formula(self, d, rng):
        # T = (C' B)^T pinv(R) on the traceless block, R holding the state Bloch vectors
        basis = bloch_basis(d)
        states, povm = make_random_setup(basis, rng, d * d + 1, d * d)
        channel = unitary_channel(basis, random_unitary(d, rng))
        c = comm_matrix(states, povm)
        cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=channel))
        frame = build_unital_frame(states, povm, basis)
        r = np.column_stack([s.bloch for s in states])
        t = (cp.entries @ frame.beta[1:].T).T @ np.linalg.pinv(r)
        rec = reconstruct_unital(frame, c, cp)
        assert np.abs(rec.bloch_matrix[1:, 1:] - t).max() <= 1e-13

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

    def test_cprime_of_another_shape_than_the_frame_is_a_dimension_mismatch(self, sic_unital_frame):
        c = CommMatrix(entries=np.full((3, 4), 0.25))
        with pytest.raises(DimensionMismatchError, match="matrix is 3x4 but frame expects 4x4"):
            reconstruct_unital(sic_unital_frame, c, c)

    def test_c_and_cprime_of_different_shapes_are_a_dimension_mismatch(self, sic_unital_frame):
        c = CommMatrix(entries=np.full((4, 4), 0.25))
        cprime = CommMatrix(entries=np.full((3, 4), 0.25))
        with pytest.raises(DimensionMismatchError, match=re.escape("shapes differ: (4, 4) vs (3, 4)")):
            reconstruct_unital(sic_unital_frame, c, cprime)

    def test_c_that_does_not_match_the_frame_is_a_precondition_error(self, sic_unital_frame):
        c = CommMatrix(entries=np.full((4, 4), 0.25))
        with pytest.raises(PreconditionError) as raised:
            reconstruct_unital(sic_unital_frame, c, c)
        assert type(raised.value) is PreconditionError
        assert str(raised.value) == (
            "pre-channel matrix is inconsistent with the frame's states and effects"
        )


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

    def test_permuted_states_rebuild_the_callers_cprime(self, basis2, rng):
        # states listed in reverse order of their effects: the canonical frame keeps that order
        states, povm = sic_qubit()
        states = states[::-1]
        ch = random_channel(basis2, basis2, rng)
        c = comm_matrix(states, povm)
        cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=ch))
        estimate = reconstruct_up_to_gauge(c, cp, 2)
        cert = estimate.certificate
        assert cert.pairing == (3, 2, 1, 0)
        vectors = np.vstack(cert.canonical_vectors)
        canon_states = [state_from_matrix(basis2, np.outer(v, v.conj())) for v in vectors[::-1]]
        canon_povm = validate_povm(
            [a * np.outer(v, v.conj()) for a, v in zip(cert.canonical_weights, vectors)]
        )
        rebuilt = comm_matrix_with_channel(
            Scenario(states=canon_states, povm=canon_povm, channel=estimate.channel)
        )
        assert np.abs(rebuilt.entries - cp.entries).max() < 1e-10
        assert np.abs(estimate.gauge_invariant_singular_values()
                      - np.linalg.svd(ch.bloch_matrix[1:, 1:], compute_uv=False)).max() < 1e-8

    @pytest.mark.parametrize("d, n, seed", [(2, 4, 0), (2, 5, 0), (2, 6, 0), (3, 9, 0)])
    def test_canonical_frame_matches_the_validated_operators(self, d, n, seed):
        # the route inverts the canonical coordinates directly; the reference first
        # builds and validates the canonical states and POVM, then runs build_frame
        rng = np.random.default_rng(seed)
        vectors, weights = rank1_setup(rng, d, n)
        basis = bloch_basis(d)
        states = [state_from_matrix(basis, np.outer(v, v.conj())) for v in vectors]
        povm = validate_povm([a * np.outer(v, v.conj()) for a, v in zip(weights, vectors)])
        ch = random_channel(basis, basis, rng)
        cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=ch))
        estimate = reconstruct_up_to_gauge(comm_matrix(states, povm), cp, d)
        cert = estimate.certificate
        canon = np.vstack(cert.canonical_vectors)
        canon_states = [state_from_matrix(basis, np.outer(canon[k], canon[k].conj()))
                        for k in np.argsort(cert.pairing)]
        canon_povm = validate_povm(
            [a * np.outer(v, v.conj()) for a, v in zip(cert.canonical_weights, canon)]
        )
        reference = reconstruct_channel(build_frame(canon_states, canon_povm, basis, basis), cp)
        assert np.array_equal(estimate.channel.bloch_matrix, reference.bloch_matrix)

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
        assert "(1 restarts run)" in message
        assert "residual_tol" in message
        assert "does not certify" not in message

    def test_passing_fit_off_the_frame_is_not_self_testable(self, monkeypatch):
        # a certificate within residual_tol can still miss the 1e-8 first-row check
        import dataclasses

        from commat import tomography

        # with six outcomes the effect frame is overcomplete, so C' can leave its span
        vectors, weights = rank1_setup(np.random.default_rng(21), 2, 6)
        basis = bloch_basis(2)
        states = [state_from_matrix(basis, np.outer(v, v.conj())) for v in vectors]
        povm = validate_povm([a * np.outer(v, v.conj()) for a, v in zip(weights, vectors)])
        c = comm_matrix(states, povm)
        real_self_test = tomography.self_test

        def perturbed_fit(*args, **kwargs):
            cert = real_self_test(*args, **kwargs)
            w = np.sqrt(cert.canonical_weights)[:, None] * np.vstack(cert.canonical_vectors)
            w += 1e-5 * np.random.default_rng(0).standard_normal(w.shape)
            ev, u = np.linalg.eigh(w.T @ w.conj())
            w = w @ ((u * ev ** -0.5) @ u.conj().T).T  # sum_k w_k w_k^dag = I again
            a = np.einsum("ki,ki->k", w.conj(), w).real
            vectors = tuple(w / np.sqrt(a)[:, None])
            return dataclasses.replace(cert, canonical_vectors=vectors, canonical_weights=a)

        monkeypatch.setattr(tomography, "self_test", perturbed_fit)
        with pytest.raises(NotSelfTestableError) as info:
            reconstruct_up_to_gauge(c, c, 2)
        message = str(info.value)
        assert "Gram residual" in message and "residual_tol 1.0e-08" in message
        assert "first-row structure" in message
