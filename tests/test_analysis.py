"""Rank, storability, completeness certification, self-testing, robustness."""

import itertools
import re

import numpy as np
import pytest

from commat import (
    CommMatrix,
    Scenario,
    certify_info_completeness,
    comm_matrix,
    dist_matrix,
    eb_example,
    information_storability,
    noisy_antidist,
    numerical_rank,
    reconstruct_up_to_gauge,
    robustness_gap,
    self_test,
    sic_qubit,
    span_dims,
    state_from_bloch,
    trine_qubit,
    validate_povm,
)
from commat.analysis import (
    DEFAULT_SEED,
    _gram_start,
    _projector_jacobian,
    _projector_objective,
    _projector_residual,
)
from commat.errors import (
    CommatError,
    DimensionMismatchError,
    DimensionViolationError,
    InconsistentDimensionClaimError,
    InvalidDimensionError,
    NotSelfTestableError,
    PreconditionError,
    ValidationError,
)
from commat.sampling import random_povm
from conftest import make_random_setup, make_spanning_setup, rank1_setup
from commat import bloch_basis


def _count_fit_phases(monkeypatch):
    """Lists that record each call of the fit's L-BFGS-B and of its Gauss-Newton polish."""
    import commat._linalg as _linalg

    fits, polishes = [], []
    minimize, gauss_newton = _linalg.minimize, _linalg.gauss_newton
    monkeypatch.setattr(_linalg, "minimize", lambda *a, **k: fits.append(1) or minimize(*a, **k))
    monkeypatch.setattr(_linalg, "gauss_newton", lambda *a, **k: polishes.append(1) or gauss_newton(*a, **k))
    return fits, polishes


def rank1_matrix(seed, d, n):
    """C of the rank-1 set-up drawn by ``rank1_setup`` from ``seed``, states in effect order."""
    vecs, weights = rank1_setup(np.random.default_rng(seed), d, n)
    return CommMatrix(entries=np.abs(vecs.conj() @ vecs.T) ** 2 * weights[None, :])


class TestRankAndStorability:
    def test_rank_values(self):
        assert numerical_rank(noisy_antidist(4, 0.5)) == 4
        assert numerical_rank(CommMatrix(entries=np.full((2, 2), 0.5))) == 1
        d3 = noisy_antidist(3, 1 / 3)
        assert abs(np.linalg.det(d3.entries)) > 1e-3  # nonsingular, so rank 3
        assert numerical_rank(d3) == 3

    def test_storability_values(self):
        assert information_storability(noisy_antidist(4, 0.5)) == pytest.approx(2.0, abs=1e-15)
        assert information_storability(noisy_antidist(3, 1 / 3)) == pytest.approx(2.0, abs=1e-15)
        for n in (2, 3, 5):
            assert information_storability(dist_matrix(n)) == pytest.approx(float(n))

    def test_minimum_error_discrimination_link(self):
        # when column maxima sit on the diagonal, storability/m is the
        # average success probability of discriminating the m inputs
        for n, eps in [(3, 0.2), (4, 0.5), (5, 0.3)]:
            c = noisy_antidist(n, eps)
            assert information_storability(c) / n == pytest.approx(
                np.trace(c.entries) / n, abs=1e-15
            )


class TestSpanDims:
    def test_orthogonal_example(self, basis2):
        states = [
            state_from_bloch(basis2, np.array([0.0, 0.0, 1.0])),
            state_from_bloch(basis2, np.array([1.0, 0.0, 0.0])),
        ]
        plus_i = state_from_bloch(basis2, np.array([0.0, 1.0, 0.0])).matrix
        povm = validate_povm([plus_i, np.eye(2) - plus_i])
        assert span_dims(states, povm) == (2, 2, 0)

    def test_sic_spans_everything(self):
        states, povm = sic_qubit()
        # oracle: the four states are linearly independent (nonzero Gram determinant)
        gram = np.array(
            [[np.trace(a.matrix @ b.matrix).real for b in states] for a in states]
        )
        assert abs(np.linalg.det(gram)) > 1e-3
        assert span_dims(states, povm) == (4, 4, 4)

    def test_trine_spans_three(self):
        states, povm = trine_qubit()
        assert span_dims(states, povm) == (3, 3, 3)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_ranks_of_an_independent_vectorization(self, d, rng):
        # oracle: real and imaginary parts of the entries, ranked with the same relative rule
        def rank(mats):
            rows = np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats])
            s = np.linalg.svd(rows, compute_uv=False)
            return int(np.count_nonzero(s > 1e-9 * s[0]))

        basis = bloch_basis(d)
        for span_s, span_m in [(d * d, d * d), (d * d - 1, 2), (3, d * d - 2), (2, 2)]:
            states, povm = make_spanning_setup(basis, rng, d * d + 2, d * d + 1, span_s, span_m)
            ops_s = [s.matrix for s in states]
            ops_m = list(povm.effects)
            dim_s, dim_m = rank(ops_s), rank(ops_m)
            assert (dim_s, dim_m) == (span_s, span_m)
            expected = (dim_s, dim_m, dim_s + dim_m - rank(ops_s + ops_m))
            assert span_dims(states, povm) == expected

    def test_no_states_is_a_commat_error(self):
        _, povm = sic_qubit()
        c = comm_matrix(*sic_qubit())
        for call in (lambda: span_dims([], povm),
                     lambda: certify_info_completeness(c, 2, ([], povm))):
            with pytest.raises(DimensionMismatchError, match="at least one state"):
                call()
        assert issubclass(DimensionMismatchError, CommatError)

    def test_measurement_of_another_dimension_is_a_dimension_mismatch(self):
        states, povm = sic_qubit()
        qutrit_povm = random_povm(bloch_basis(3), np.random.default_rng(0), 9)
        c = comm_matrix(states, povm)
        for call in (lambda: span_dims(states, qutrit_povm),
                     lambda: certify_info_completeness(c, 2, (states, qutrit_povm))):
            with pytest.raises(DimensionMismatchError,
                               match=r"^states have dimension 2 but measurement acts on 3$"):
                call()



class TestCompleteness:
    def test_d4_half_is_complete(self):
        report = certify_info_completeness(noisy_antidist(4, 0.5), 2)
        assert report.states_complete and report.povm_complete
        assert report.rank == 4

    def test_d3_third_is_incomplete(self):
        report = certify_info_completeness(noisy_antidist(3, 1 / 3), 2)
        assert not report.states_complete
        assert report.rank == 3

    def test_flat_matrix_incomplete(self):
        report = certify_info_completeness(CommMatrix(entries=np.full((2, 2), 0.5)), 2)
        assert not report.states_complete

    def test_rank_exceeding_d_squared_rejected(self):
        with pytest.raises(InconsistentDimensionClaimError):
            certify_info_completeness(dist_matrix(5), 2)

    def test_bounds_with_implementation(self):
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        report = certify_info_completeness(c, 2, (states, povm))
        assert report.lower_bound == 4 and report.upper_bound == 4
        assert report.bounds_hold

    @pytest.mark.parametrize("rel_tol", [np.nan, np.inf, -np.inf, -1.0, 0.0, 1.0])
    def test_rank_tolerance_outside_zero_one_is_rejected_before_any_svd(
        self, rel_tol, monkeypatch
    ):
        # on eb-six-state, 0 and -1 claimed a rank above d^2, and NaN and 1 a rank of 0
        states, povm, *_ = eb_example()
        c = comm_matrix(states, povm)
        svds = []
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: svds.append(args))
        calls = [
            lambda: numerical_rank(c, rel_tol),
            lambda: span_dims(states, povm, rel_tol),
            lambda: certify_info_completeness(c, 2, (states, povm), rel_tol=rel_tol),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match=re.escape(f"in (0, 1), got {rel_tol}")):
                call()
        assert svds == []

    @pytest.mark.parametrize("d", [2.5, 2.0, "2"])
    def test_non_integer_dimension_is_rejected(self, d):
        # reconstruct_up_to_gauge checks d before its rank test, which d * d would break
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        for call in (lambda: certify_info_completeness(c, d),
                     lambda: certify_info_completeness(c, d, (states, povm)),
                     lambda: self_test(c, d),
                     lambda: reconstruct_up_to_gauge(c, c, d)):
            with pytest.raises(InvalidDimensionError, match=f"must be an integer, got {d!r}"):
                call()

    def test_numpy_integer_dimension_is_accepted(self):
        states, povm = sic_qubit()
        c = comm_matrix(states, povm)
        report = certify_info_completeness(c, np.int64(2), (states, povm))
        assert report == certify_info_completeness(c, 2, (states, povm))
        cert = self_test(c, np.int64(2))
        assert cert.passes and cert.restarts == self_test(c, 2).restarts

    def test_rank_bound_property_suite(self, rng):
        # two-sided rank bound and the storability cap on random set-ups
        for _ in range(40):
            d = int(rng.integers(2, 4))
            basis = bloch_basis(d)
            states, povm = make_random_setup(
                basis, rng, int(rng.integers(1, d * d + 3)), int(rng.integers(2, d * d + 3))
            )
            c = comm_matrix(states, povm)
            dim_s, dim_m, dim_int = span_dims(states, povm)
            rank = numerical_rank(c)
            assert dim_int <= rank <= min(dim_s, dim_m)
            assert information_storability(c) <= d + 1e-9


class TestSelfTest:
    def test_gradient_matches_finite_differences(self, rng):
        from scipy.optimize import approx_fprime

        c = noisy_antidist(4, 0.5).entries
        moduli = np.diag(c)[:, None] * c
        target = (moduli + moduli.T) / 2
        weight = rng.uniform(1.0, 5.0, (4, 4))
        weight = (weight + weight.T) / 2
        x0 = rng.standard_normal(16)
        _, grad = _projector_objective(x0, target, weight, 4, 2)
        numeric = approx_fprime(
            x0, lambda x: _projector_objective(x, target, weight, 4, 2)[0], 1e-7
        )
        assert np.abs(grad - numeric).max() < 1e-5

    def test_projector_objective_ignores_the_basis_of_the_column_space(self, rng):
        # f depends on Z only through P = Z (Z^dag Z)^-1 Z^dag, so Z -> Z A leaves it alone
        n, d = 9, 3
        target = rng.uniform(0.0, 0.3, (n, n))
        target = (target + target.T) / 2
        z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        weight = np.ones((n, n))
        f, _ = _projector_objective(z.ravel().view(float), target, weight, n, d)
        f_za, _ = _projector_objective((z @ a).ravel().view(float), target, weight, n, d)
        assert f_za == pytest.approx(f, rel=1e-10)

    @pytest.mark.parametrize("n, d", [(4, 2), (6, 2), (9, 3)])
    def test_jacobian_matches_central_differences(self, rng, n, d):
        target = rng.uniform(0.0, 0.3, (n, n))
        target = (target + target.T) / 2
        weight = rng.uniform(1.0, 5.0, (n, n))
        root_weight = np.sqrt((weight + weight.T) / 2)
        x = rng.standard_normal(2 * n * d)
        step = 1e-6
        numeric = np.stack(
            [(_projector_residual(x + step * e, target, root_weight, n, d)
              - _projector_residual(x - step * e, target, root_weight, n, d)) / (2 * step)
             for e in np.eye(x.size)],
            axis=1,
        )
        jac = _projector_jacobian(x, root_weight, n, d)
        assert jac.shape == (n * n, 2 * n * d)
        assert np.abs(jac - numeric).max() <= 1e-6 * np.abs(numeric).max()
        # r is the objective's residual: ||r||^2 = f and 2 J^T r = grad f
        f, grad = _projector_objective(x, target, root_weight**2, n, d)
        r = _projector_residual(x, target, root_weight, n, d)
        assert r @ r == pytest.approx(f, rel=1e-12)
        assert np.abs(2.0 * jac.T @ r - grad).max() <= 1e-10 * np.abs(grad).max()

    @pytest.mark.parametrize("n, d", [(4, 2), (9, 3), (16, 4)])
    def test_batched_objective_is_the_one_point_objective_row_by_row(self, rng, n, d):
        target = rng.uniform(0.0, 0.3, (n, n))
        target = (target + target.T) / 2
        weight = rng.uniform(1.0, 5.0, (n, n))
        weight = (weight + weight.T) / 2
        xs = rng.standard_normal((5, 2 * n * d))
        f, grad = _projector_objective(xs, target, weight, n, d)
        assert f.shape == (5,) and grad.shape == xs.shape
        for x, f_row, grad_row in zip(xs, f, grad):
            f_one, grad_one = _projector_objective(x, target, weight, n, d)
            assert isinstance(f_one, float)
            assert abs(f_row - f_one) <= 1e-12 * abs(f_one)
            assert np.abs(grad_row - grad_one).max() <= 1e-10 * np.abs(grad_one).max()

    def test_qutrit_set_up_whose_first_start_misses_passes_after_one_batch(self):
        # (d, n, seed) = (3, 9, 0) of the benchmark's self-test panel: the first start ends in a
        # local minimum, and a row of the first batch of 8 certifies
        cert = self_test(rank1_matrix(0, 3, 9), 3)
        assert cert.passes and cert.gram_residual <= cert.residual_tol
        assert cert.restarts == 9

    def test_batch_starts_are_the_sequential_draws(self, monkeypatch):
        # the (3, 10, 25) set-up misses with its first start and its first batch of 8, and
        # certifies in its second batch: 17 starts, all from the generator seeded by ``seed``
        import commat._linalg as _linalg

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
        cert = self_test(rank1_matrix(25, 3, 10), 3)
        assert cert.passes and cert.restarts == 17
        gen = np.random.default_rng(DEFAULT_SEED)
        draws = [gen.standard_normal(2 * 10 * 3) for _ in range(17)]
        assert len(first) == 1 and np.array_equal(first[0], draws[0])
        assert len(batch) == 2
        assert np.array_equal(batch[0], np.stack(draws[1:9]))
        assert np.array_equal(batch[1], np.stack(draws[9:]))

    @pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (4, 2), (6, 3)])
    def test_qubit_gram_start_certifies_without_an_iteration(self, monkeypatch, n, seed):
        # n = 2 has fewer states than d^2 - 1 = 3, so the Gram matrix is padded.
        # The exact start lies inside the gate, so it goes straight to the polish.
        fits, polishes = _count_fit_phases(monkeypatch)
        vecs, weights = rank1_setup(np.random.default_rng(seed), 2, n)
        overlaps = np.abs(vecs.conj() @ vecs.T) ** 2
        cert = self_test(CommMatrix(entries=overlaps * weights[None, :]), 2)
        assert cert.passes and cert.restarts == 1
        assert (len(fits), len(polishes)) == (0, 1)
        assert np.abs(cert.overlap_matrix() - overlaps).max() < 1e-12

    @pytest.mark.parametrize("alpha", [[0.0, 0.0], [1.0, 0.0]])
    def test_zero_weights_give_no_singular_gram_start(self, alpha):
        # a zero weight zeroes its row of Z; below rank d the fit draws its start instead
        alpha = np.array(alpha)
        assert _gram_start(np.outer(alpha, alpha), alpha, 2) is None

    @pytest.mark.parametrize("d, seed", [(3, 4), (3, 11), (4, 5)])
    def test_recovers_generated_rank_one_setups(self, d, seed):
        # d^2-outcome set-ups of bench/oracles.rank1_setup that a fit of raw vectors
        # (phi_0 fixed, completeness left to the polish) missed within 32 restarts
        vecs, weights = rank1_setup(np.random.default_rng(seed), d, d * d)
        overlaps = np.abs(vecs.conj() @ vecs.T) ** 2
        cert = self_test(CommMatrix(entries=overlaps * weights[None, :]), d)
        assert cert.passes
        assert 1 <= cert.restarts <= 32
        assert np.abs(cert.overlap_matrix() - overlaps).max() < 1e-6
        assert np.abs(cert.canonical_weights - weights).max() < 1e-6

    def test_restarts_run_are_recorded(self):
        assert self_test(noisy_antidist(4, 0.5), 2).restarts == 1
        assert self_test(noisy_antidist(4, 0.5), 2, restarts=3, residual_tol=0.0).restarts == 3
        assert self_test(noisy_antidist(4, 0.8), 2).restarts == 0  # storability below d: no fit

    def test_sic_matrix_passes(self):
        cert = self_test(noisy_antidist(4, 0.5), 2)
        assert cert.passes
        assert np.abs(cert.weights - 0.5).max() < 1e-10
        assert cert.weights.sum() == pytest.approx(2.0, abs=1e-8)
        overlaps = cert.overlap_matrix()
        off = overlaps[~np.eye(4, dtype=bool)]
        assert np.abs(off - 1 / 3).max() < 1e-6
        assert cert.gram_residual <= 1e-8

    def test_trine_matrix_passes(self):
        cert = self_test(noisy_antidist(3, 1 / 3), 2)
        assert cert.passes
        assert np.abs(cert.weights - 2 / 3).max() < 1e-10
        off = cert.overlap_matrix()[~np.eye(3, dtype=bool)]
        assert np.abs(off - 1 / 4).max() < 1e-6

    def test_identity_passes_with_orthogonal_pair(self):
        cert = self_test(dist_matrix(2), 2)
        assert cert.passes
        assert np.allclose(cert.weights, 1.0)
        assert cert.overlap_matrix()[0, 1] < 1e-10

    def test_failing_matrix(self):
        cert = self_test(noisy_antidist(4, 0.8), 2)
        assert not cert.passes
        assert cert.canonical_vectors is None

    def test_swapped_qubit_identity_passes_without_warnings(self):
        # a basis listed in the opposite order to its effects: C_jj = 0, the maxima off the diagonal
        import warnings

        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = self_test(CommMatrix(entries=c), 2)
        assert cert.passes
        assert cert.pairing == (1, 0)
        assert np.array_equal(cert.weights, [1.0, 1.0])
        assert np.abs(cert.reconstructed_matrix() - c).max() < 1e-12

    @pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
    def test_every_order_of_the_sic_states_passes(self, order):
        states, povm = sic_qubit()
        c = comm_matrix([states[j] for j in order], povm)
        cert = self_test(c, 2)
        assert cert.passes
        assert cert.pairing == tuple(np.argsort(order))
        assert np.abs(cert.reconstructed_matrix() - c.entries).max() < 1e-12

    def test_row_permutation_only_changes_the_pairing(self):
        c = rank1_matrix(4, 3, 9).entries
        perm = np.random.default_rng(7).permutation(9)
        ref = self_test(CommMatrix(entries=c), 3)
        cert = self_test(CommMatrix(entries=c[perm]), 3)
        assert ref.passes and ref.pairing == tuple(range(9))
        assert cert.pairing == tuple(np.argsort(perm))
        assert cert.restarts == ref.restarts
        assert cert.gram_residual == ref.gram_residual
        assert all(map(np.array_equal, cert.canonical_vectors, ref.canonical_vectors))
        assert np.array_equal(cert.reconstructed_matrix(), ref.reconstructed_matrix()[perm])

    @pytest.mark.parametrize("seed, d", [(0, 2), (4, 3), (5, 3), (0, 4)])
    def test_column_permutation_only_permutes_the_canonical_vectors(self, seed, d):
        # the fit sees the effects in a canonical order, so their input order moves no bit
        c = rank1_matrix(seed, d, d * d).entries
        perm = np.random.default_rng(7).permutation(d * d)
        ref = self_test(CommMatrix(entries=c), d)
        cert = self_test(CommMatrix(entries=c[:, perm]), d)
        assert cert.pairing == tuple(np.array(ref.pairing)[perm])
        assert cert.restarts == ref.restarts
        assert cert.gram_residual == ref.gram_residual
        assert np.array_equal(cert.canonical_vectors, np.array(ref.canonical_vectors)[perm])
        assert np.array_equal(cert.canonical_weights, ref.canonical_weights[perm])

    def test_tied_column_maxima_pass(self):
        # rows 0 and 1 both attain the maxima of columns 0 and 1: argmax alone pairs both with row 0
        c = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        cert = self_test(CommMatrix(entries=c), 2)
        assert cert.passes
        assert sorted(cert.pairing) == [0, 1, 2]
        assert np.abs(cert.reconstructed_matrix() - c).max() < 1e-12

    def test_no_pairing_attaining_the_maxima_is_rejected_before_any_fit(self, monkeypatch):
        # storability 2 = d, but only row 0 attains the maxima of columns 0 and 1 (row 1 is a
        # mixed state), so no bijection attains them all
        import commat._linalg as _linalg

        monkeypatch.setattr(_linalg, "batch_fit", lambda *a, **k: pytest.fail("fit ran"))
        c = np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.0, 0.0, 1.0]])
        assert information_storability(CommMatrix(entries=c)) == pytest.approx(2.0)
        with pytest.raises(NotSelfTestableError, match="pairing"):
            self_test(CommMatrix(entries=c), 2)

    @pytest.mark.parametrize(
        "c, d",
        [
            (noisy_antidist(4, 0.5), 2),
            (noisy_antidist(3, 1 / 3), 2),
            (dist_matrix(2), 2),
            (CommMatrix(entries=np.array([[0.0, 1.0], [1.0, 0.0]])), 2),
            (rank1_matrix(4, 3, 9), 3),
        ],
    )
    def test_canonical_effects_sum_to_the_identity(self, c, d):
        cert = self_test(c, d)
        assert cert.passes
        v = np.vstack(cert.canonical_vectors)
        total = np.einsum("k,ka,kb->ab", cert.canonical_weights, v, v.conj())
        assert np.abs(total - np.eye(d)).max() < 1e-12

    @pytest.mark.parametrize("name", ["tol", "residual_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_tolerances_must_be_finite_and_non_negative(self, monkeypatch, name, value):
        import commat._linalg as _linalg

        monkeypatch.setattr(_linalg, "batch_fit", lambda *a, **k: pytest.fail("fit ran"))
        with pytest.raises(ValidationError, match=name):
            self_test(noisy_antidist(4, 0.5), 2, **{name: value})

    def test_reconstruction_matches_within_residual(self):
        cert = self_test(noisy_antidist(4, 0.5), 2)
        rebuilt = cert.reconstructed_matrix()
        assert ((rebuilt - noisy_antidist(4, 0.5).entries) ** 2).sum() == pytest.approx(
            cert.gram_residual, abs=1e-16
        )

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            self_test(CommMatrix(entries=np.full((2, 3), 1 / 3)), 2)

    def test_zero_column_rejected(self):
        with pytest.raises(PreconditionError, match="zero"):
            self_test(CommMatrix(entries=np.array([[1.0, 0.0], [1.0, 0.0]])), 2)

    def test_storability_above_dimension_rejected(self):
        with pytest.raises(DimensionViolationError):
            self_test(dist_matrix(4), 2)

    def test_recovers_random_rank_one_setup(self, basis2, rng):
        # generator oracle: random rank-1 measurement with its eigenstates
        vs = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        total = sum(np.outer(v, v.conj()) for v in vs)
        ev, evec = np.linalg.eigh(total)
        inv_half = evec @ np.diag(1 / np.sqrt(ev)) @ evec.conj().T
        phis = np.array([inv_half @ v for v in vs])
        phis /= np.linalg.norm(phis, axis=1, keepdims=True)
        alphas = np.array(
            [np.linalg.norm(inv_half @ v) ** 2 for v in vs]
        )
        effects = [a * np.outer(p, p.conj()) for a, p in zip(alphas, phis)]
        povm = validate_povm(effects)
        states = [
            state_from_bloch(basis2, np.array([np.trace(np.outer(p, p.conj()) @ s).real for s in basis2.traceless]))
            for p in phis
        ]
        c = comm_matrix(states, povm)
        cert = self_test(c, 2)
        assert cert.passes
        target = np.abs(phis.conj() @ phis.T) ** 2
        assert np.abs(cert.overlap_matrix() - target).max() < 1e-6

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restart_budget_below_one_rejected(self, restarts):
        with pytest.raises(ValidationError, match="restarts"):
            self_test(noisy_antidist(4, 0.5), 2, restarts=restarts)

    @pytest.mark.parametrize("name, value", [
        ("restarts", float("nan")), ("restarts", 2.5), ("restarts", True), ("restarts", 2.0),
        ("seed", 1.5), ("seed", -1),
    ])
    def test_budget_and_seed_must_be_integers(self, monkeypatch, name, value):
        import commat._linalg as _linalg

        monkeypatch.setattr(_linalg, "batch_fit", lambda *a, **k: pytest.fail("fit ran"))
        with pytest.raises(ValidationError, match=name):
            self_test(noisy_antidist(4, 0.5), 2, **{name: value})

    def test_numpy_integer_budget_and_seed_are_accepted(self):
        c = noisy_antidist(4, 0.5)
        cert = self_test(c, 2, restarts=np.int64(3), seed=np.uint16(7))
        assert cert.passes and cert.gram_residual == self_test(c, 2, restarts=3, seed=7).gram_residual

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restart_budget_checked_when_no_fit_runs(self, restarts):
        c = noisy_antidist(4, 0.7)  # storability 1.2 < d = 2: the certificate needs no fit
        assert not self_test(c, 2).passes
        with pytest.raises(ValidationError, match="restarts"):
            self_test(c, 2, restarts=restarts)

    def test_fit_stops_at_first_certifying_restart(self, monkeypatch):
        fits, polishes = _count_fit_phases(monkeypatch)
        cert = self_test(noisy_antidist(4, 0.5), 2)
        assert cert.passes and cert.restarts == 1  # not the whole budget of 32
        assert (len(fits), len(polishes)) == (0, 1)

    def test_deterministic_given_seed(self):
        c = noisy_antidist(4, 0.5)
        a = self_test(c, 2, seed=7)
        b = self_test(c, 2, seed=7)
        assert a.gram_residual == b.gram_residual
        assert all(np.array_equal(x, y) for x, y in zip(a.canonical_vectors, b.canonical_vectors))


class TestRobustness:
    def test_exact_sic_is_saturated(self):
        states, povm = sic_qubit()
        report = robustness_gap(Scenario(states=states, povm=povm))
        assert abs(report.epsilon) < 1e-12
        assert np.abs(report.per_effect_tail).max() < 1e-12
        assert report.bound_holds

    def test_noisy_sic(self):
        states, povm = sic_qubit()
        noisy = validate_povm(
            [0.99 * e + 0.01 * np.trace(e).real * np.eye(2) / 2 for e in povm.effects]
        )
        report = robustness_gap(Scenario(states=states, povm=noisy))
        assert report.epsilon > 0
        assert report.per_effect_tail.sum() <= report.epsilon + 1e-10
        assert report.bound_holds
        assert report.rob1_holds and report.rob2_holds

    def test_trine_epsilon_zero(self):
        states, povm = trine_qubit()
        report = robustness_gap(Scenario(states=states, povm=povm))
        assert abs(report.epsilon) < 1e-12

    def test_non_square_rejected(self, basis2, rng):
        states, _ = sic_qubit()
        povm = make_random_setup(basis2, rng, 1, 3)[1]
        with pytest.raises(DimensionMismatchError):
            robustness_gap(Scenario(states=states, povm=povm))
