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
    depolarizing_channel,
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
    DimensionMismatchError,
    InvalidDimensionError,
    NoWitnessExistsError,
    PreconditionError,
    ValidationError,
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

    def test_no_states_or_mixed_dimensions_are_a_dimension_mismatch(self):
        states, povm = sic_qubit()
        qutrit = random_mixed_state(bloch_basis(3), np.random.default_rng(0))
        with pytest.raises(DimensionMismatchError,
                           match=r"^an indistinguishable pair needs at least one state$"):
            construct_indistinguishable_pair([], povm)
        with pytest.raises(DimensionMismatchError, match=r"^states have mixed dimensions \[2, 3\]$"):
            construct_indistinguishable_pair(states + (qutrit,), povm)

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
            w = pair.witness_operator
            if pair.case_tag == "states-incomplete":
                # the first orthonormal element of the states' orthocomplement
                assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
                orthogonal_to = [s.matrix for s in states]
            else:
                orthogonal_to = povm.effects
            assert max(abs(np.trace(w @ m)) for m in orthogonal_to) < 1e-10
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

    def test_no_states_or_states_of_another_dimension_are_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="needs at least one state$"):
            unital_differentiation_condition([], 2)
        with pytest.raises(DimensionMismatchError, match=r"^states have dimension 2, not d = 3$"):
            unital_differentiation_condition(sic_qubit()[0], 3)

    @pytest.mark.parametrize("d", [2.5, 1])
    def test_dimension_must_be_an_integer_of_at_least_two(self, d):
        with pytest.raises(InvalidDimensionError):
            unital_differentiation_condition(sic_qubit()[0], d)


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

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restart_budget_below_one_rejected(self, restarts):
        with pytest.raises(ValidationError, match="restarts"):
            nonnegative_factorization(dist_matrix(4), 3, restarts=restarts)

    @pytest.mark.parametrize("name, value", [
        ("restarts", float("nan")), ("restarts", 2.5), ("seed", 1.5), ("seed", -1),
        ("l", 2.5), ("l", float("nan")), ("l", True),
    ])
    def test_budget_and_seed_must_be_integers(self, name, value):
        with pytest.raises(ValidationError, match=rf"^{name} must be"):
            nonnegative_factorization(dist_matrix(4), **{"l": 3, name: value})

    def test_starts_share_one_generator_and_the_best_is_kept(self, monkeypatch):
        seeds, default_rng = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: seeds.append(seed) or default_rng(seed))
        c = dist_matrix(4)  # l = 3 stays far from an exact fit, so every start runs
        one, three, again = (nonnegative_factorization(c, 3, restarts=r, seed=5) for r in (1, 3, 3))
        assert seeds == [5, 5, 5]
        assert three[2] <= one[2] + 1e-12  # the three starts begin with the one start's draw
        assert all(np.array_equal(x, y) for x, y in zip(three, again))

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

    def test_psd_rank_bounds_are_those_of_the_factors(self, eb_setup):
        _, _, channel, c, cp, _, _ = eb_setup
        cert = eb_certificate(c, cp, 2, l_max=4, realization=channel.mp_realization)
        assert cert.psd_rank_lower_a == psd_rank_lower_bound(CommMatrix(entries=cert.factor_a))
        assert cert.psd_rank_lower_b == psd_rank_lower_bound(CommMatrix(entries=cert.factor_b))

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

    def test_first_start_that_certifies_runs_no_batch(self, basis2, monkeypatch):
        from commat import _linalg

        monkeypatch.setattr(_linalg, "lbfgs_batch", lambda *a, **k: pytest.fail("batch ran"))
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        channel = depolarizing_channel(basis2, 0.8)
        cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=channel))
        cert = eb_certificate(c, cp, 2, l_max=4)
        assert cert.verdict == "certified-EB-implementable"
        assert cert.residual <= cert.residual_tol
        assert cert.restarts == 1

    def test_search_stops_after_the_batch_that_certifies(self, basis2, monkeypatch):
        # the first start is made to miss, so the next 8 run as one batch and one of them certifies
        from commat import _linalg

        batch_fit = _linalg.batch_fit

        def first_start_misses(*args):
            x0 = args[3]
            return [(x0[0], np.inf)] if len(x0) == 1 else batch_fit(*args)

        monkeypatch.setattr(_linalg, "batch_fit", first_start_misses)
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        channel = depolarizing_channel(basis2, 0.8)
        cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=channel))
        cert = eb_certificate(c, cp, 2, l_max=4, restarts=32)
        assert cert.verdict == "certified-EB-implementable"
        assert cert.residual <= cert.residual_tol
        assert cert.restarts == 9

    @pytest.mark.parametrize("d", [2.5, 2.0])
    def test_non_integer_dimension_is_rejected(self, d):
        from commat.errors import InvalidDimensionError

        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        reference = completely_depolarizing_channel(bloch_basis(2))
        c0 = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=reference))
        for call in (lambda: eb_certificate(c, c, d, l_max=4),
                     lambda: detect_unitality(c, c0, c, d, povm_complete=True)):
            with pytest.raises(InvalidDimensionError, match="must be an integer"):
                call()

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restart_budget_below_one_rejected(self, restarts):
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        with pytest.raises(ValidationError, match="restarts"):
            eb_certificate(c, c, 2, l_max=4, restarts=restarts)

    @pytest.mark.parametrize("name, value", [
        ("restarts", float("nan")), ("restarts", 2.5), ("restarts", True),
        ("l_max", 4.5), ("l_max", 0), ("seed", 1.5), ("seed", -5),
    ])
    def test_budget_l_max_and_seed_must_be_integers(self, monkeypatch, name, value):
        # the identity is not EB: a NaN budget used to run batches of 8 forever
        from commat import _linalg

        monkeypatch.setattr(_linalg, "batch_fit", lambda *a, **k: pytest.fail("search ran"))
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        with pytest.raises(ValidationError, match=name):
            eb_certificate(c, c, 2, **{"l_max": 4, name: value})

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restart_budget_checked_with_a_realization(self, eb_setup, restarts):
        _, _, channel, c, cp, _, _ = eb_setup
        with pytest.raises(ValidationError, match="restarts"):
            eb_certificate(c, cp, 2, l_max=4, restarts=restarts, realization=channel.mp_realization)

    @pytest.mark.parametrize("realization, error", [
        ("qutrit", DimensionMismatchError),
        ("two effects, one state", ValidationError),
        ("no states", ValidationError),
    ])
    def test_realization_must_fit_the_set_up(self, basis3, monkeypatch, realization, error):
        # each of these used to escape as a bare ValueError from a matrix product or reshape
        from commat import properties

        monkeypatch.setattr(
            properties, "_realization_factors", lambda *a: pytest.fail("factors computed")
        )
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        given = {
            "qutrit": (validate_povm([np.eye(3)]), [state_from_bloch(basis3, np.zeros(8))]),
            "two effects, one state": (
                validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), [states[0]]
            ),
            "no states": (validate_povm([np.eye(2)]), []),
        }[realization]
        with pytest.raises(error, match="realization"):
            eb_certificate(c, c, 2, l_max=4, realization=given)

    @pytest.mark.parametrize("residual_tol", [float("nan"), float("inf"), -1e-8])
    def test_residual_tol_must_be_finite_and_non_negative(self, eb_setup, residual_tol):
        # a NaN tolerance used to turn the EB channel's exact realization into no-certificate-found
        _, _, channel, c, cp, _, _ = eb_setup
        with pytest.raises(ValidationError, match="residual_tol"):
            eb_certificate(
                c, cp, 2, l_max=4, realization=channel.mp_realization, residual_tol=residual_tol
            )

    @pytest.mark.parametrize("d, l", [(2, 4), (3, 2)])
    def test_mp_fit_gradient_matches_central_differences(self, d, l):
        from commat.properties import _MeasurePrepareFit
        from commat.sampling import random_povm

        gen = np.random.default_rng(7000 * d + l)
        rho_arr, eff_arr, target = _mp_setup(bloch_basis(d), random_povm, gen, d * d, d * d)
        fit = _MeasurePrepareFit(rho_arr, eff_arr, target, l)
        x = gen.standard_normal(4 * l * d * d)
        _, grad = fit.objective(x)
        step = 1e-6
        shifts = step * np.eye(x.size)
        numeric = (fit.objective(x + shifts)[0] - fit.objective(x - shifts)[0]) / (2 * step)
        assert np.abs(grad - numeric).max() <= 1e-6 * max(1.0, np.abs(numeric).max())

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_mp_objective_matches_the_per_outcome_formula(self, d, l):
        from commat.properties import _MeasurePrepareFit
        from commat.sampling import random_povm

        gen = np.random.default_rng(1000 * d + l)
        rho_arr, eff_arr, target = _mp_setup(bloch_basis(d), random_povm, gen, d * d, d * d)
        for _ in range(3):
            # the reference reads (H, G) x (re, im) x d x d; the fit the float view of (H, G)
            x = gen.standard_normal(4 * l * d * d)
            x_fit = x.reshape(2, l, 2, d, d).transpose(0, 1, 3, 4, 2).ravel()
            f, grad = _MeasurePrepareFit(rho_arr, eff_arr, target, l).objective(x_fit)
            f_ref, grad_ref = _mp_objective_per_outcome(x, rho_arr, eff_arr, target, l, d)
            grad_ref = grad_ref.reshape(2, l, 2, d, d).transpose(0, 1, 3, 4, 2).ravel()
            assert abs(f - f_ref) <= 1e-12 * abs(f_ref)
            assert np.abs(grad - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()

    @pytest.mark.parametrize("d, l", [(2, 1), (2, 4), (3, 2)])
    def test_mp_packing_is_the_float_view_of_the_blocks(self, d, l):
        # the lift of x is exactly the embedding of the blocks x is the float view of
        from commat.properties import _MeasurePrepareFit, _embed, _unembed
        from commat.sampling import random_povm

        gen = np.random.default_rng(5000 * d + l)
        fit = _MeasurePrepareFit(*_mp_setup(bloch_basis(d), random_povm, gen, d * d, d * d), l)
        re, im = gen.standard_normal((2, 2, l, d, d))
        blocks = re + 1j * im                           # the stacked H_i and the stacked G_i
        lifted = fit._lift(blocks.view(float).ravel())
        assert np.array_equal(lifted, _embed(blocks))
        assert np.array_equal(_unembed(lifted), blocks)

    @pytest.mark.parametrize("d, l", [(2, 1), (2, 4), (3, 2)])
    def test_mp_objective_is_the_squared_realized_residual(self, d, l):
        from commat.properties import _MeasurePrepareFit, _realize_measure_prepare

        gen = np.random.default_rng(2000 * d + l)
        basis = bloch_basis(d)
        states, povm = make_random_setup(basis, gen, d * d, d * d)
        rho_arr = np.stack([s.matrix for s in states])
        eff_arr = np.stack(povm.effects)
        target = gen.uniform(0.0, 1.0, (d * d, d * d))
        target /= target.sum(axis=1, keepdims=True)
        for _ in range(3):
            x = gen.standard_normal(4 * l * d * d)
            fit = _MeasurePrepareFit(rho_arr, eff_arr, target, l)
            f, _ = fit.objective(x)
            n_povm, _, _, _, residual = _realize_measure_prepare(fit, x, states, povm)
            assert abs(f - residual**2) <= 1e-12 * max(1.0, f)
            assert np.abs(sum(n_povm.effects) - np.eye(d)).max() <= 1e-12

    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_mp_objective_is_finite_with_an_all_zero_effect_block(self, l):
        import warnings

        from commat.properties import _MeasurePrepareFit

        states, povm = sic_qubit()
        rho_arr = np.stack([s.matrix for s in states])
        eff_arr = np.stack(povm.effects)
        target = comm_matrix(states, povm).entries
        x = np.random.default_rng(l).standard_normal((2, l, 2, 2, 2))
        x[0, 0] = 0.0  # H_0 = 0, so P_0 = 0 (and S = 0 when l = 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, grad = _MeasurePrepareFit(rho_arr, eff_arr, target, l).objective(x.ravel())
        assert np.isfinite(f) and np.isfinite(grad).all()

    def test_qutrit_measure_prepare_channel_certifies(self, basis3):
        # the penalized fit left this channel uncertified (best residual 1.8e-7)
        cert = _qutrit_measure_prepare_certificate(basis3, 31, 2)
        assert cert.verdict == "certified-EB-implementable"
        assert cert.inner_dim == 2
        assert cert.residual <= 1e-8

    def test_identity_search_evaluation_budget(self, monkeypatch):
        # criterion 8's identity search: the penalized fit made 2,036 evaluations here
        points = _count_objective_points(monkeypatch)
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        cert = eb_certificate(c, c, 2, l_max=4, restarts=8)
        assert cert.verdict == "no-certificate-found"
        assert cert.restarts == 8
        assert 0 < sum(points) <= 1000

    @pytest.mark.parametrize("d, l", [(2, 1), (2, 2), (2, 4), (3, 2)])
    def test_mp_jacobian_matches_central_differences(self, d, l):
        from commat.properties import _MeasurePrepareFit
        from commat.sampling import random_povm

        gen = np.random.default_rng(3000 * d + l)
        rho_arr, eff_arr, target = _mp_setup(bloch_basis(d), random_povm, gen, d * d, d * d)
        fit = _MeasurePrepareFit(rho_arr, eff_arr, target, l)
        x = gen.standard_normal(4 * l * d * d)
        step = 1e-6
        numeric = np.stack(
            [(fit.residual(x + step * e) - fit.residual(x - step * e)) / (2 * step)
             for e in np.eye(x.size)],
            axis=1,
        )
        jac = fit.jacobian(x)
        assert jac.shape == (d**4, x.size)
        assert np.abs(jac - numeric).max() <= 1e-6 * np.abs(numeric).max()

    @pytest.mark.parametrize("d, l", [(2, 1), (2, 4), (3, 2)])
    def test_mp_residual_and_jacobian_agree_with_the_objective(self, d, l):
        from commat.properties import _MeasurePrepareFit
        from commat.sampling import random_povm

        gen = np.random.default_rng(4000 * d + l)
        rho_arr, eff_arr, target = _mp_setup(bloch_basis(d), random_povm, gen, d * d, d * d)
        fit = _MeasurePrepareFit(rho_arr, eff_arr, target, l)
        for _ in range(3):
            x = gen.standard_normal(4 * l * d * d)
            f, grad = fit.objective(x)
            r = fit.residual(x)
            assert abs(r @ r - f) <= 1e-12 * max(1.0, f)
            assert np.abs(2.0 * fit.jacobian(x).T @ r - grad).max() <= 1e-10 * max(
                1.0, np.abs(grad).max()
            )

    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_mp_jacobian_is_finite_with_an_all_zero_effect_block(self, l):
        import warnings

        from commat.properties import _MeasurePrepareFit

        states, povm = sic_qubit()
        rho_arr = np.stack([s.matrix for s in states])
        fit = _MeasurePrepareFit(
            rho_arr, np.stack(povm.effects), comm_matrix(states, povm).entries, l
        )
        x = np.random.default_rng(l).standard_normal((2, l, 2, 2, 2))
        x[0, 0] = 0.0  # H_0 = 0, so P_0 = 0 (and S = 0 when l = 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jac = fit.jacobian(x.ravel())
        assert np.isfinite(jac).all()

    def test_depolarizing_two_thirds_certifies_as_a_channel(self, basis2):
        # Choi matrix PPT, hence EB at 2x2; L-BFGS alone stopped at residual 1.1e-8 after 8 restarts
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        channel = depolarizing_channel(basis2, 2.0 / 3.0)
        cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=channel))
        cert = eb_certificate(c, cp, 2, l_max=4, claim="channel")
        assert cert.verdict == "certified-EB-implementable"
        assert cert.residual <= 1e-8

    @pytest.mark.parametrize("seed", [35, 37])
    def test_qutrit_three_outcome_measure_prepare_channel_certifies(self, basis3, seed):
        # L-BFGS alone ended every restart at residual 1.4e-8 (seed 35) and 1.5e-8 (seed 37)
        cert = _qutrit_measure_prepare_certificate(basis3, seed, 3)
        assert cert.verdict == "certified-EB-implementable"
        assert cert.inner_dim == 3
        assert cert.residual <= 1e-8

    @pytest.mark.parametrize("seed, l", [(34, 2), (46, 3)])
    def test_qutrit_measure_prepare_channel_left_by_a_trust_region_polish_certifies(
        self, basis3, seed, l
    ):
        # a trust-region polish only accepts descent steps and stayed in the basin where
        # L-BFGS stopped (best residuals 2.8e-6 and 1.3e-6 after 4 restarts)
        cert = _qutrit_measure_prepare_certificate(basis3, seed, l)
        assert cert.verdict == "certified-EB-implementable"
        assert cert.inner_dim == l
        assert cert.residual <= 1e-8

    @pytest.mark.parametrize("seed", range(31, 51))
    def test_qutrit_measure_prepare_panel_certifies(self, basis3, seed):
        l = 2 if (seed - 31) % 8 < 4 else 3
        cert = _qutrit_measure_prepare_certificate(basis3, seed, l)
        assert cert.verdict == "certified-EB-implementable"
        assert cert.inner_dim == l
        assert cert.residual <= 1e-8

    def test_identity_search_never_polishes(self, monkeypatch):
        # criterion 8's identity search: every L-BFGS end point is far from zero, so no
        # restart may pay for the Gauss-Newton polish (443 evaluations with ftol=1e-18)
        from commat import _linalg

        points = _count_objective_points(monkeypatch)
        monkeypatch.setattr(
            _linalg, "gauss_newton", lambda *a, **k: pytest.fail("polish ran")
        )
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        cert = eb_certificate(c, c, 2, l_max=4, restarts=8)
        assert cert.verdict == "no-certificate-found"
        assert cert.restarts == 8
        assert 0 < sum(points) <= 300

    @pytest.mark.parametrize("p, verdict", [(0.0, "no-certificate-found"),
                                            (0.8, "certified-EB-implementable")])
    def test_search_realizes_only_its_best_restart(self, basis2, monkeypatch, p, verdict):
        # rank(C') = 4 = l_max, so one inner dimension; the identity (p = 0) is criterion
        # 8's search and runs all 8 restarts, depolarizing(0.8) is EB
        from commat import properties

        calls = []
        real = properties._realize_measure_prepare
        monkeypatch.setattr(
            properties, "_realize_measure_prepare", lambda *a: calls.append(1) or real(*a)
        )
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        channel = depolarizing_channel(basis2, p)
        cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=channel))
        cert = eb_certificate(c, cp, 2, l_max=4, restarts=8)
        assert cert.verdict == verdict
        assert len(calls) == 1
        assert cert.residual == np.linalg.norm(cp.entries - cert.factor_a @ cert.factor_b)

    def test_rank_above_l_max_is_a_precondition_error(self, basis2, monkeypatch):
        from commat import _linalg, amplitude_damping_channel

        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        channel = amplitude_damping_channel(basis2, 0.3)
        cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=channel))
        monkeypatch.setattr(_linalg, "batch_fit", lambda *a, **k: pytest.fail("search ran"))
        with pytest.raises(PreconditionError, match=r"rank\(C'\) = 4 exceeds l_max = 1"):
            eb_certificate(c, cp, 2, l_max=1)

    @pytest.mark.parametrize("d, l", [(2, 1), (2, 4), (3, 2)])
    def test_batched_objective_is_the_one_point_objective_row_by_row(self, d, l):
        from commat.properties import _MeasurePrepareFit
        from commat.sampling import random_povm

        gen = np.random.default_rng(6000 * d + l)
        rho_arr, eff_arr, target = _mp_setup(bloch_basis(d), random_povm, gen, d * d, d * d)
        fit = _MeasurePrepareFit(rho_arr, eff_arr, target, l)
        xs = gen.standard_normal((7, 4 * l * d * d))
        f, grad = fit.objective(xs)
        residuals = fit.residual(xs).reshape(len(xs), -1)
        assert f.shape == (7,) and grad.shape == xs.shape
        for x, f_row, grad_row, r_row in zip(xs, f, grad, residuals):
            f_one, grad_one = fit.objective(x)
            r_one = fit.residual(x)
            assert isinstance(f_one, float)
            assert abs(f_row - f_one) <= 1e-12 * abs(f_one)
            assert np.abs(grad_row - grad_one).max() <= 1e-12 * np.abs(grad_one).max()
            assert np.abs(r_row - r_one).max() <= 1e-12 * np.abs(r_one).max()

    @pytest.mark.parametrize("d, l", [(2, 4), (3, 2)])
    @pytest.mark.parametrize("cond", [1e4, 1e8])
    def test_mp_effects_sum_to_the_identity_for_an_ill_conditioned_h(self, d, l, cond):
        # S = sum_i H_i^dag H_i then has condition number cond^2: the polar factor of the
        # stacked H keeps the sum exact where S^(-1/2) from an eigendecomposition of S cannot
        from commat.properties import _MeasurePrepareFit, _realize_measure_prepare

        gen = np.random.default_rng(8000 * d + l)
        basis = bloch_basis(d)
        states, povm = make_random_setup(basis, gen, d * d, d * d)
        target = comm_matrix(states, povm).entries
        fit = _MeasurePrepareFit(
            np.stack([s.matrix for s in states]), np.stack(povm.effects), target, l
        )
        xs = []
        for _ in range(7):
            z = gen.standard_normal((2, l * d, d)) + 1j * gen.standard_normal((2, l * d, d))
            w, _, vh = np.linalg.svd(z[0], full_matrices=False)
            h = (w * np.geomspace(1.0, 1.0 / cond, d)) @ vh
            assert np.isclose(np.linalg.cond(h), cond, rtol=1e-6)
            xs.append(np.stack([h, z[1]]).view(float).ravel())
        sums = fit._forward(np.stack(xs))[1].sum(axis=-3)
        assert np.abs(sums - np.eye(2 * d)).max() <= 1e-12
        n_povm = _realize_measure_prepare(fit, xs[0], states, povm)[0]
        assert np.abs(sum(n_povm.effects) - np.eye(d)).max() <= 1e-12

    def test_batch_starts_are_the_sequential_draws(self, monkeypatch):
        # the identity on sic-qubit searches l = 4 only, from the generator seeded by seed + 4
        from commat import _linalg

        first, batch = [], []
        minimize, lbfgs_batch = _linalg.minimize, _linalg.lbfgs_batch

        def recording_minimize(objective, x0, **kwargs):
            first.append(x0.copy())
            return minimize(objective, x0, **kwargs)

        def recording_batch(objective, x0, *args):
            batch.append(x0.copy())
            return lbfgs_batch(objective, x0, *args)

        monkeypatch.setattr(_linalg, "minimize", recording_minimize)
        monkeypatch.setattr(_linalg, "lbfgs_batch", recording_batch)
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        cert = eb_certificate(c, c, 2, l_max=4, restarts=12, seed=40)
        assert cert.verdict == "no-certificate-found" and cert.restarts == 12
        gen = np.random.default_rng(44)
        draws = [gen.standard_normal((2, 4, 2, 2, 2)).transpose(0, 1, 3, 4, 2).ravel()
                 for _ in range(12)]
        assert len(first) == 1 and np.array_equal(first[0], draws[0])
        # batches of at most 8 starts, in draw order
        assert len(batch) == 2
        assert np.array_equal(batch[0], np.stack(draws[1:9]))
        assert np.array_equal(batch[1], np.stack(draws[9:]))

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

    def test_unknown_claim_is_a_validation_error(self):
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        with pytest.raises(ValidationError, match="claim"):
            eb_certificate(c, c, 2, l_max=4, claim="implementation")

    def test_provenance_required(self):
        from commat import noisy_antidist

        bare = noisy_antidist(4, 0.5)
        with pytest.raises(PreconditionError, match="implementation"):
            eb_certificate(bare, bare, 2, l_max=4)


def _count_objective_points(monkeypatch):
    """Record the points of every EB objective call, from L-BFGS-B and from the batch alike:
    a single point counts 1 and a stack of k points counts k.  Returns the growing list."""
    from commat.properties import _MeasurePrepareFit

    points = []
    real = _MeasurePrepareFit.objective

    def counting(self, x):
        points.append(1 if x.ndim == 1 else len(x))
        return real(self, x)

    monkeypatch.setattr(_MeasurePrepareFit, "objective", counting)
    return points


def _qutrit_measure_prepare_certificate(basis3, seed, l):
    """eb_certificate(l_max=l, restarts=4) for 9 random qutrit states, a random 9-outcome
    measurement and a random l-outcome measure-and-prepare channel drawn from ``seed``."""
    from commat.sampling import random_povm

    gen = np.random.default_rng(seed)
    states = [random_mixed_state(basis3, gen) for _ in range(9)]
    povm = random_povm(basis3, gen, 9)
    channel = measure_and_prepare_channel(
        random_povm(basis3, gen, l), [random_mixed_state(basis3, gen) for _ in range(l)]
    )
    c = comm_matrix(states, povm)
    cp = comm_matrix_with_channel(Scenario(states=states, povm=povm, channel=channel))
    return eb_certificate(c, cp, 3, l_max=l, restarts=4)


def _mp_setup(basis, random_povm, gen, n_states, n_effects):
    """Stacked random states and effects with a random row-stochastic target."""
    rho_arr = np.stack([random_mixed_state(basis, gen).matrix for _ in range(n_states)])
    eff_arr = np.stack(random_povm(basis, gen, n_effects).effects)
    target = gen.uniform(0.0, 1.0, (n_states, n_effects))
    return rho_arr, eff_arr, target / target.sum(axis=1, keepdims=True)


def _mp_objective_per_outcome(x, rho_arr, eff_arr, target, l, d):
    """The EB fit objective and gradient written as a loop over outcomes (reference).

    N_i = T P_i T with T = S^(-1/2) from an eigendecomposition of S = sum_i P_i.
    """
    blocks = x.reshape(2, l, 2, d, d)
    h = blocks[0, :, 0] + 1j * blocks[0, :, 1]
    g = blocks[1, :, 0] + 1j * blocks[1, :, 1]
    effects_p = np.einsum("iab,iac->ibc", h.conj(), h)
    s, u = np.linalg.eigh(effects_p.sum(axis=0))
    root = np.sqrt(s)
    t = (u / root) @ u.conj().T
    effects = np.array([t @ p @ t for p in effects_p])
    q = np.einsum("iab,icb->iac", g, g.conj())
    traces = np.maximum(np.einsum("iaa->i", q).real, 1e-12)
    states = q / traces[:, None, None]
    a = np.einsum("jab,kba->jk", rho_arr, effects).real
    b = np.einsum("jab,kba->jk", states, eff_arr).real
    r = target - a @ b
    f = float((r * r).sum())
    w = -2.0 * (r @ b.T)
    v = -2.0 * (a.T @ r)
    w_ops = [np.einsum("j,jab->ab", w[:, i], rho_arr) for i in range(l)]
    k = sum(p @ t @ w_i + w_i @ t @ p for p, w_i in zip(effects_p, w_ops))
    gamma = -1.0 / (np.outer(root, root) * (root[:, None] + root[None, :]))
    e = u @ (gamma * (u.conj().T @ k @ u)) @ u.conj().T
    grad_h = np.empty_like(h)
    grad_g = np.empty_like(g)
    for i in range(l):
        grad_h[i] = h[i] @ (t @ w_ops[i] @ t + e)
        c_state = np.einsum("k,kab->ab", v[i], eff_arr) - float(v[i] @ b[i]) * np.eye(d)
        grad_g[i] = (c_state / traces[i]) @ g[i]
    grad = np.empty((2, l, 2, d, d))
    grad[0, :, 0], grad[0, :, 1] = 2.0 * grad_h.real, 2.0 * grad_h.imag
    grad[1, :, 0], grad[1, :, 1] = 2.0 * grad_g.real, 2.0 * grad_g.imag
    return f, grad.ravel()
