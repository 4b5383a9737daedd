"""Witness pairs, unitality kernels, factorizations and EB certificates."""

import numpy as np
import pytest

from commat import (
    CommMatrix,
    Scenario,
    antidist_matrix,
    bloch_basis,
    choi_distance,
    comm_matrix,
    comm_matrix_with_channel,
    completely_depolarizing_channel,
    construct_indistinguishable_pair,
    detect_unitality,
    dist_matrix,
    eb_certificate,
    eb_example,
    kernel_shift,
    measure_and_prepare_channel,
    nonnegative_factorization,
    numerical_rank,
    psd_rank_lower_bound,
    sic_qubit,
    state_from_bloch,
    trine_qubit,
    unital_differentiation_condition,
    unitary_channel,
    validate_povm,
)
from commat.errors import (
    AmbiguityError,
    BadReferenceError,
    NoWitnessExistsError,
    PreconditionError,
)
from commat.sampling import random_mixed_state
from conftest import make_random_setup

SZ = np.diag([1.0, -1.0]).astype(complex)


@pytest.fixture
def z_states(basis2):
    return (
        state_from_bloch(basis2, np.array([0.0, 0.0, 1.0])),
        state_from_bloch(basis2, np.array([0.0, 0.0, -1.0])),
    )


@pytest.fixture
def z_povm():
    return validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


class TestIndistinguishablePair:
    def test_states_incomplete_case(self, z_states):
        _, sic_povm = sic_qubit()
        pair = construct_indistinguishable_pair(z_states, sic_povm)
        assert pair.case_tag == "states-incomplete"
        # witness annihilates every state, so lies in span{sigma_x, sigma_y}
        for s in z_states:
            assert abs(np.trace(pair.witness_operator @ s.matrix)) < 1e-12
        c1 = comm_matrix_with_channel(
            Scenario(states=z_states, povm=sic_povm, channel=pair.phi1)
        )
        c2 = comm_matrix_with_channel(
            Scenario(states=z_states, povm=sic_povm, channel=pair.phi2)
        )
        assert np.abs(c1.entries - c2.entries).max() <= 1e-12
        assert choi_distance(pair.phi1, pair.phi2) > 1e-6

    def test_povm_incomplete_case(self, z_povm):
        sic_states, _ = sic_qubit()
        pair = construct_indistinguishable_pair(sic_states, z_povm)
        assert pair.case_tag == "povm-incomplete"
        for e in z_povm.effects:
            assert abs(np.trace(pair.witness_operator @ e)) < 1e-11
        c1 = comm_matrix_with_channel(
            Scenario(states=sic_states, povm=z_povm, channel=pair.phi1)
        )
        c2 = comm_matrix_with_channel(
            Scenario(states=sic_states, povm=z_povm, channel=pair.phi2)
        )
        assert np.abs(c1.entries - c2.entries).max() <= 1e-12
        assert choi_distance(pair.phi1, pair.phi2) > 1e-6

    def test_complete_setup_has_no_witness(self):
        states, povm = sic_qubit()
        with pytest.raises(NoWitnessExistsError):
            construct_indistinguishable_pair(states, povm)

    def test_both_channels_are_measure_and_prepare(self, z_states):
        _, sic_povm = sic_qubit()
        pair = construct_indistinguishable_pair(z_states, sic_povm)
        assert pair.phi1.mp_realization is not None
        assert pair.phi2.mp_realization is not None

    def test_multiple_uses_stay_equal(self, z_states):
        _, sic_povm = sic_qubit()
        pair = construct_indistinguishable_pair(z_states, sic_povm)
        from commat import apply_channel, iterate_channel

        for lam in range(1, 6):
            it1 = iterate_channel(pair.phi1, lam)
            for s in z_states:
                assert np.abs(
                    apply_channel(it1, s.matrix) - apply_channel(pair.phi1, s.matrix)
                ).max() < 1e-10
            c1 = comm_matrix_with_channel(
                Scenario(states=z_states, povm=sic_povm, channel=pair.phi1, repeat=lam)
            )
            c2 = comm_matrix_with_channel(
                Scenario(states=z_states, povm=sic_povm, channel=pair.phi2, repeat=lam)
            )
            assert np.abs(c1.entries - c2.entries).max() <= 1e-12

    def test_random_incomplete_setups(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 4))
            basis = bloch_basis(d)
            if rng.uniform() < 0.5:
                states, _ = make_random_setup(basis, rng, d * d - 2, 2)
                povm = make_random_setup(basis, rng, 1, d * d + 1)[1]
            else:
                states = make_random_setup(basis, rng, d * d + 1, 2)[0]
                povm = make_random_setup(basis, rng, 1, 2)[1]
            pair = construct_indistinguishable_pair(states, povm)
            c1 = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=pair.phi1))
            c2 = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=pair.phi2))
            assert np.abs(c1.entries - c2.entries).max() <= 1e-12
            assert choi_distance(pair.phi1, pair.phi2) > 1e-6
            assert pair.phi1.is_cptp() and pair.phi2.is_cptp()


class TestUnitalDifferentiation:
    def test_trine_fails(self):
        assert not unital_differentiation_condition(trine_qubit()[0], 2)

    def test_axis_states_pass(self, basis2):
        states = [
            state_from_bloch(basis2, r)
            for r in (np.eye(3)[2], np.eye(3)[0], np.eye(3)[1])
        ]
        assert unital_differentiation_condition(states, 2)

    def test_sic_passes(self):
        assert unital_differentiation_condition(sic_qubit()[0], 2)


class TestKernelShift:
    def test_equal_matrices_give_full_space(self):
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        basis_vectors = kernel_shift(c, c)
        assert len(basis_vectors) == 4

    def test_depolarizing_keeps_uniform_vector(self, basis2):
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        c0 = comm_matrix_with_channel(
            Scenario(states=states, povm=povm, channel=completely_depolarizing_channel(basis2))
        )
        kernel = kernel_shift(c, c0)
        assert len(kernel) == 1
        v = kernel[0]
        assert np.abs(np.abs(v) - 0.5).max() < 1e-10  # proportional to (1,1,1,1)

    def test_axis_states_trivial_kernel(self, basis2):
        states = [
            state_from_bloch(basis2, r)
            for r in (np.eye(3)[2], np.eye(3)[0], np.eye(3)[1])
        ]
        _, povm = sic_qubit()
        c = comm_matrix(states, povm)
        c0 = comm_matrix_with_channel(
            Scenario(states=states, povm=povm, channel=completely_depolarizing_channel(basis2))
        )
        assert kernel_shift(c, c0) == []

    def test_kernel_vectors_are_fixed_points(self, basis2, rng):
        # soundness in both directions for a unital channel on the SIC set-up
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        ch = unitary_channel(basis2, SZ)
        cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=ch))
        kernel = kernel_shift(c, cp)
        assert kernel, "sigma_z conjugation must fix some combination"
        from commat import apply_channel

        for v in kernel:
            op = sum(vj * s.matrix for vj, s in zip(v, states))
            assert np.abs(apply_channel(ch, op) - op).max() < 1e-8
        # converse: a known fixed-point combination lies in the kernel
        alpha = np.ones(4)  # sum of SIC states is the (fixed) identity
        diff = cp.entries.T - c.entries.T
        assert np.abs(diff @ alpha).max() < 1e-12


class TestDetectUnitality:
    @pytest.fixture
    def sic_setup(self, basis2):
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        c0 = comm_matrix_with_channel(
            Scenario(states=states, povm=povm, channel=completely_depolarizing_channel(basis2))
        )
        return states, povm, c, c0

    def test_sigma_z_is_unital(self, sic_setup, basis2):
        states, povm, c, c0 = sic_setup
        cp = comm_matrix_with_channel(
            Scenario(states=states, povm=povm, channel=unitary_channel(basis2, SZ))
        )
        verdict = detect_unitality(c, c0, cp, 2, povm_complete=True, states=states)
        assert verdict.verdict == "unital"
        w = verdict.fixed_point_witness
        assert w is not None
        assert np.abs(w - w[0, 0] * np.eye(2)).max() < 1e-8  # multiple of identity

    def test_point_contraction_not_unital(self, sic_setup, basis2):
        states, povm, c, c0 = sic_setup
        xi = state_from_bloch(basis2, np.array([0.0, 0.0, 1.0]))
        contraction = measure_and_prepare_channel(validate_povm([np.eye(2)]), [xi])
        cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=contraction))
        assert detect_unitality(c, c0, cp, 2, povm_complete=True).verdict == "non-unital"

    def test_case_i_reports_differentiating(self, basis2):
        states = tuple(
            state_from_bloch(basis2, r)
            for r in (np.eye(3)[2], np.eye(3)[0], np.eye(3)[1])
        )
        _, povm = sic_qubit()
        c = comm_matrix(states, povm)
        c0 = comm_matrix_with_channel(
            Scenario(states=states, povm=povm, channel=completely_depolarizing_channel(basis2))
        )
        cp = comm_matrix_with_channel(
            Scenario(states=states, povm=povm, channel=unitary_channel(basis2, SZ))
        )
        verdict = detect_unitality(c, c0, cp, 2, povm_complete=True)
        assert verdict.verdict == "undecidable"
        assert verdict.setup_unital_differentiating is True

    def test_bad_reference_rejected(self, sic_setup):
        states, povm, c, _ = sic_setup
        with pytest.raises(BadReferenceError):
            detect_unitality(c, c, c, 2, povm_complete=True)

    def test_unasserted_completeness_rejected(self, basis2):
        states, _ = trine_qubit()
        povm = trine_qubit()[1]
        c = comm_matrix(states, povm)
        c0 = comm_matrix_with_channel(
            Scenario(states=states, povm=povm, channel=completely_depolarizing_channel(basis2))
        )
        with pytest.raises(PreconditionError):
            detect_unitality(c, c0, c, 2, povm_complete=False)


class TestNonnegativeFactorization:
    def test_eb_cprime_at_l4(self):
        _, _, _, _, _, cprime = eb_example()
        _, _, residual = nonnegative_factorization(CommMatrix(entries=cprime), 4, restarts=4)
        assert residual <= 1e-8

    def test_rank_one_matrix_at_l1(self):
        flat = CommMatrix(entries=np.tile(np.array([0.2, 0.3, 0.5]), (4, 1)))
        a, b, residual = nonnegative_factorization(flat, 1, restarts=2)
        assert residual <= 1e-10
        assert np.abs(a - 1.0).max() < 1e-8  # row-stochastic single column

    def test_identity_at_l3_stays_far(self):
        _, _, residual = nonnegative_factorization(dist_matrix(4), 3, restarts=8)
        assert residual > 1e-3

    def test_factors_nonnegative_and_stochastic_on_exact_fit(self, rng):
        _, _, _, _, _, cprime = eb_example()
        a, b, residual = nonnegative_factorization(CommMatrix(entries=cprime), 4, restarts=4)
        assert a.min() >= -1e-12 and b.min() >= -1e-12
        assert np.abs(a.sum(axis=1) - 1.0).max() < 1e-7
        assert np.abs(b.sum(axis=1) - 1.0).max() < 1e-7

    def test_factorization_sandwich(self):
        # rank(C) <= inner dimension whenever the fit is essentially exact
        _, _, _, _, _, cprime = eb_example()
        c = CommMatrix(entries=cprime)
        a, b, residual = nonnegative_factorization(c, 4, restarts=4)
        assert residual <= 1e-8
        assert numerical_rank(c) <= 4


class TestPsdRankLowerBound:
    def test_values(self):
        from commat import noisy_antidist

        assert psd_rank_lower_bound(noisy_antidist(4, 0.5)) == 2
        assert psd_rank_lower_bound(CommMatrix(entries=np.full((3, 3), 1 / 3))) == 1
        assert psd_rank_lower_bound(dist_matrix(9)) == 3


class TestEbCertificate:
    @pytest.fixture
    def eb_setup(self):
        states, povm, channel, a_exp, b_exp, cprime_exp = eb_example()
        c = comm_matrix(states, povm)
        cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=channel))
        return states, povm, channel, c, cp, a_exp, b_exp

    def test_given_realization_reproduces_printed_factors(self, eb_setup):
        _, _, channel, c, cp, a_exp, b_exp = eb_setup
        cert = eb_certificate(c, cp, 2, l_max=4, realization=channel.mp_realization)
        assert cert.verdict == "certified-EB-implementable"
        assert cert.inner_dim == 4
        assert cert.residual <= 1e-8
        assert np.abs(cert.factor_a - a_exp).max() < 1e-12
        assert np.abs(cert.factor_b - b_exp).max() < 1e-12
        assert (cert.dim_v_n, cert.dim_v_xi) == (3, 2)
        assert cert.rank_bounds_report == (True, True)
        assert max(cert.psd_rank_lower_a, cert.psd_rank_lower_b) <= 2

    def test_rank_nullity_identity_on_printed_factors(self, eb_setup):
        from commat._linalg import null_space_of, numerical_rank_of

        _, _, _, _, _, a_exp, b_exp = eb_setup
        rank_ab = numerical_rank_of(a_exp @ b_exp)
        ker_a = null_space_of(a_exp)
        im_b = b_exp  # columns of B span im(B) viewed from the left factor side
        stacked = np.hstack([ker_a, im_b])
        dim_sum = numerical_rank_of(stacked.T)
        dim_int = ker_a.shape[1] + numerical_rank_of(b_exp) - dim_sum
        assert rank_ab == numerical_rank_of(b_exp) - dim_int

    def test_depolarizing_certifies_at_l1(self, basis2):
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        cp = comm_matrix_with_channel(
            Scenario(states=states, povm=povm, channel=completely_depolarizing_channel(basis2))
        )
        cert = eb_certificate(c, cp, 2, l_max=3, restarts=3)
        assert cert.verdict == "certified-EB-implementable"
        assert cert.inner_dim == 1

    def test_restarts_count_the_fits_that_ran(self, basis2):
        from commat import amplitude_damping_channel

        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        channel = amplitude_damping_channel(basis2, 1.0)
        cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=channel))
        cert = eb_certificate(c, cp, 2, l_max=4, restarts=8)
        assert cert.verdict == "certified-EB-implementable"
        assert cert.restarts == 1

    def test_mp_fit_gradient_matches_finite_differences(self, rng):
        from scipy.optimize import approx_fprime

        from commat.properties import _mp_objective

        states, povm = sic_qubit()
        rho_arr = np.stack([s.matrix for s in states])
        eff_arr = np.stack(povm.effects)
        target = comm_matrix(states, povm).entries
        x0 = rng.standard_normal(2 * 4 * 2 * 2 * 2)
        _, grad = _mp_objective(x0, rho_arr, eff_arr, target, 4, 2)
        numeric = approx_fprime(
            x0, lambda x: _mp_objective(x, rho_arr, eff_arr, target, 4, 2)[0], 1e-7
        )
        assert np.abs(grad - numeric).max() / max(1.0, np.abs(numeric).max()) < 1e-5

    def test_random_measure_prepare_channel_certifies(self, basis2):
        from commat.sampling import random_povm

        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        gen = np.random.default_rng(50)
        n4 = random_povm(basis2, gen, 4)
        xs = [random_mixed_state(basis2, gen) for _ in range(4)]
        channel = measure_and_prepare_channel(n4, xs)
        cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=channel))
        cert = eb_certificate(c, cp, 2, l_max=4, restarts=6, seed=7)
        assert cert.verdict == "certified-EB-implementable"
        assert cert.residual <= 1e-8
        assert max(cert.psd_rank_lower_a, cert.psd_rank_lower_b) <= 2

    def test_unitary_channel_never_certifies(self, basis2):
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        ch = unitary_channel(basis2, np.diag([1.0, np.exp(0.7j)]))
        cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=ch))
        cert = eb_certificate(c, cp, 2, l_max=4, restarts=6)
        assert cert.verdict == "no-certificate-found"
        assert cert.residual > 1e-2

    def test_channel_claim_needs_complete_setup(self):
        states, povm = trine_qubit()
        c = comm_matrix(states, povm)
        with pytest.raises(AmbiguityError):
            eb_certificate(c, c, 2, l_max=3, claim="channel")

    def test_provenance_required(self):
        from commat import noisy_antidist

        bare = noisy_antidist(4, 0.5)
        with pytest.raises(PreconditionError, match="implementation"):
            eb_certificate(bare, bare, 2, l_max=4)
