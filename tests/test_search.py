"""The fit driver shared by the searches: its keep rule, ``batch_fit`` with its two L-BFGS engines
(scipy's L-BFGS-B for one start, ``lbfgs_batch`` for more), the Gauss-Newton polish and the
restart schedule."""

import types

import numpy as np
import pytest

from commat import _linalg
from commat._linalg import (
    LBFGS_MEMORY,
    _CompactMemory,
    batch_fit,
    best_start,
    gauss_newton,
    inverse_sqrt,
    lbfgs_batch,
    restart_search,
)


@pytest.mark.parametrize("residuals, tol, kept", [
    ([0.5, 0.2, 1e-9, 1e-12, 0.1], 1e-8, 2),  # the first within tolerance, although 3 is lower
    ([0.5, 0.0, 0.0], 0.0, 1),                # a residual equal to the tolerance is accepted
    ([0.5, 0.1, 0.3, 0.1], 1e-8, 1),          # the tie at start 3 keeps the earlier start 1
    ([np.nan, np.nan, np.nan], 1e-8, 0),      # all NaN: the first start
    ([np.nan, 1e-12], 1e-8, 1),               # a finite residual within tolerance replaces a NaN best
    ([np.nan, 0.3, np.nan, 0.2], 1e-8, 3),    # a finite residual replaces a NaN best, not the reverse
    ([0.3, np.nan, 0.2], 1e-8, 2),
])
def test_best_start_is_the_keep_rule_of_every_search(residuals, tol, kept):
    assert best_start(residuals, tol) == kept


def test_inverse_sqrt_matches_eigen_formula(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    ev, evec = np.linalg.eigh(m)
    root = evec @ np.diag(np.sqrt(ev)) @ evec.conj().T
    inv_root = inverse_sqrt(m)
    assert np.abs(inv_root - evec @ np.diag(1 / np.sqrt(ev)) @ evec.conj().T).max() < 1e-12
    assert np.abs(inv_root @ root - np.eye(4)).max() < 1e-12


def test_gauss_newton_keeps_its_best_iterate_when_a_step_climbs():
    # Newton on arctan from |x| > 1.39 overshoots further at every step: 2, -3.5, 14, ...
    x, f = gauss_newton(np.arctan, lambda v: np.array([[1.0 / (1.0 + v[0] ** 2)]]),
                        np.array([2.0]), 5)
    assert x[0] == 2.0
    assert f == np.arctan(2.0) ** 2


def test_gauss_newton_stops_once_the_step_vanishes():
    # a consistent linear residual with a null direction: one minimum-norm step solves it
    a = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0]])
    b = np.array([3.0, 1.0])
    jacobians = []
    x, f = gauss_newton(lambda v: a @ v - b, lambda v: jacobians.append(1) or a,
                        np.array([5.0, -4.0, 0.0]), 20)
    assert f <= 1e-28
    assert np.allclose(x, [1.0, 1.0, 0.0])
    assert len(jacobians) == 2  # the solving step, then the zero step that stops the loop


def test_gauss_newton_stops_at_a_non_finite_jacobian():
    # Newton on arctan from 1 converges; the second Jacobian is NaN, as when sigma -> 0
    # overflows the S^-1/2 term, and must end the loop instead of reaching lstsq
    scripted = iter([np.array([[0.5]]), np.array([[np.nan]])])
    jacobians = []
    x, f = gauss_newton(np.arctan, lambda v: jacobians.append(1) or next(scripted),
                        np.array([1.0]), 20)
    first = 1.0 - np.arctan(1.0) / 0.5
    assert len(jacobians) == 2
    assert x[0] == first
    assert f == np.arctan(first) ** 2


def least_squares(a, b):
    """objective, residual and Jacobian of r(x) = a x - b, with f = ||r||^2; the residual
    of a stack of points is their residual vectors end to end."""

    def residual(x):
        return (x @ a.T - b).ravel()

    def objective(x):
        r = residual(x)
        return float(r @ r), 2.0 * a.T @ r

    return objective, residual, lambda x: a


def fit_one(objective, residual, jacobian, x0, ftol, gate, maxiter):
    """``batch_fit`` of the one start ``x0`` (n,); its verdict residual is f itself, and no
    end point passes a tolerance of -1.  Returns the end point and its f."""
    [(x, f)] = batch_fit(objective, residual, jacobian, x0[None], ftol, gate, maxiter,
                         lambda x, f: f, -1.0)
    return x, f


def test_one_start_outside_the_gate_ends_unpolished(monkeypatch):
    # an inconsistent system: the least-squares floor is f = 2 (x = 0), far above the gate
    monkeypatch.setattr(_linalg, "gauss_newton", lambda *a, **k: pytest.fail("polish ran"))
    objective, residual, jacobian = least_squares(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
    x, f = fit_one(objective, residual, jacobian, np.array([3.0]), 1e-8, 1e-2, 100)
    r = residual(x)
    assert f == r @ r
    assert f > 1e-2**2


def test_one_start_ending_inside_the_gate_is_polished_to_rounding(monkeypatch):
    # a consistent, underdetermined system: L-BFGS-B stops loosely inside the gate, and the
    # minimum-norm Gauss-Newton step solves it
    objective, residual, jacobian = least_squares(
        np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0]]), np.array([3.0, 1.0])
    )
    end_points = []
    real = _linalg.gauss_newton

    def recording(res, jac, x, steps):
        end_points.append(res(x) @ res(x))
        return real(res, jac, x, steps)

    monkeypatch.setattr(_linalg, "gauss_newton", recording)
    x, f = fit_one(objective, residual, jacobian, np.array([5.0, -4.0, 0.0]), 1e-2, 1.0, 100)
    r = residual(x)
    assert len(end_points) == 1 and 1e-20 < end_points[0] <= 1.0
    assert f == r @ r
    assert f <= 1e-28


def test_a_start_inside_the_gate_is_polished_without_l_bfgs(monkeypatch):
    monkeypatch.setattr(_linalg, "minimize", lambda *a, **k: pytest.fail("L-BFGS-B ran"))
    monkeypatch.setattr(_linalg, "lbfgs_batch", lambda *a, **k: pytest.fail("batch ran"))
    objective, residual, jacobian = least_squares(
        np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0]]), np.array([3.0, 1.0])
    )
    x, f = fit_one(objective, residual, jacobian, np.array([1.001, 1.0, 0.0]), 1e-8, 1e-2, 100)
    r = residual(x)
    assert f == r @ r
    assert f <= 1e-28


def test_a_nan_start_runs_l_bfgs_b_once(monkeypatch):
    # a NaN start fails the gate test, so L-BFGS-B decides; its NaN end point is returned as it is
    starts, ends = [], []

    def fake_minimize(objective, x0, **kwargs):
        starts.append(x0)
        ends.append(x0.copy())
        return types.SimpleNamespace(x=ends[-1], fun=np.nan)

    monkeypatch.setattr(_linalg, "minimize", fake_minimize)
    monkeypatch.setattr(_linalg, "gauss_newton", lambda *a, **k: pytest.fail("polish ran"))
    objective, residual, jacobian = least_squares(np.eye(2), np.zeros(2))
    x0 = np.array([np.nan, 0.0])
    x, f = fit_one(objective, residual, jacobian, x0, 1e-8, 1e-2, 100)
    assert len(starts) == 1 and np.array_equal(starts[0], x0, equal_nan=True)
    assert x is ends[0] and np.isnan(f)


def test_one_start_outside_the_gate_runs_l_bfgs_b_then_the_polish(monkeypatch):
    # f = 34 at the start: L-BFGS-B runs once from it and hands its end point to the polish
    objective, residual, jacobian = least_squares(
        np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0]]), np.array([3.0, 1.0])
    )
    fits, polished = [], []
    minimize, gauss_newton = _linalg.minimize, _linalg.gauss_newton

    def recording_minimize(*args, **kwargs):
        fits.append((args[1].copy(), minimize(*args, **kwargs)))
        return fits[-1][1]

    def recording_polish(res, jac, x, steps):
        polished.append(x)
        return gauss_newton(res, jac, x, steps)

    monkeypatch.setattr(_linalg, "minimize", recording_minimize)
    monkeypatch.setattr(_linalg, "gauss_newton", recording_polish)
    monkeypatch.setattr(_linalg, "lbfgs_batch", lambda *a, **k: pytest.fail("batch ran"))
    x0 = np.array([5.0, -4.0, 0.0])
    x, f = fit_one(objective, residual, jacobian, x0, 1e-2, 1.0, 100)
    assert len(fits) == 1 and np.array_equal(fits[0][0], x0)
    assert len(polished) == 1 and polished[0] is fits[0][1].x
    assert f == residual(x) @ residual(x) <= 1e-28


def rowwise(objective, calls=None):
    """The batched form of a one-point objective: f (k,) and gradients (k, n) of a stack, and
    the objective itself at one point; it records the number of rows of each stack in ``calls``."""

    def batched(x):
        if x.ndim == 1:
            return objective(x)
        if calls is not None:
            calls.append(len(x))
        f, grad = zip(*(objective(row) for row in x))
        return np.array(f), np.array(grad)

    return batched


def run_batch(objective, x0, ftol, maxiter):
    """End points (k, n) and f (k,) of a ``lbfgs_batch`` run to its end; each row is yielded once."""
    x, f, yielded = np.empty(np.shape(x0)), np.empty(len(x0)), []
    for rows, x_rows, f_rows in lbfgs_batch(objective, x0, ftol, maxiter):
        assert list(rows) == sorted(rows)
        yielded += list(rows)
        x[rows], f[rows] = x_rows, f_rows
    assert sorted(yielded) == list(range(len(x0)))
    return x, f


def test_lbfgs_batch_takes_each_row_to_its_own_minimizer_and_a_nan_start_stops_alone():
    # a consistent, underdetermined system: L-BFGS keeps each row in x0 + range(a^T), so
    # each row ends at the projection of its start onto the solution set
    a = np.array([[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, -1.0, 3.0]])
    b = np.array([3.0, 1.0])
    objective, residual, _ = least_squares(a, b)
    starts = np.random.default_rng(7).standard_normal((5, 4)) * 3.0
    starts[2, 1] = np.nan
    calls = []
    x, f = run_batch(rowwise(objective, calls), starts, 1e-20, 200)
    assert calls[0] == 5 and max(calls[1:]) == 4     # the NaN row leaves after its first f
    assert np.isnan(f[2]) and np.array_equal(x[2], starts[2], equal_nan=True)
    finite = [0, 1, 3, 4]
    projections = starts[finite] - (np.linalg.pinv(a) @ (starts[finite] @ a.T - b).T).T
    assert np.abs(x[finite] - projections).max() <= 1e-8
    assert (f[finite] <= 1e-16).all()
    assert all(f[i] == residual(x[i]) @ residual(x[i]) for i in finite)


def test_lbfgs_batch_evaluates_a_stationary_start_once():
    objective, _, _ = least_squares(np.eye(2), np.array([1.0, -1.0]))
    calls = []
    starts = np.array([[1.0, -1.0], [4.0, 2.0]])
    x, f = run_batch(rowwise(objective, calls), starts, 1e-12, 100)
    assert calls[0] == 2 and set(calls[1:]) == {1}
    assert np.array_equal(x[0], starts[0]) and f[0] == 0.0
    assert np.abs(x[1] - [1.0, -1.0]).max() <= 1e-6


def test_lbfgs_batch_stops_after_maxiter_iterations():
    # Rosenbrock's valley takes dozens of iterations; each of the first few lowers f further
    def rosenbrock(x):
        f = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
        grad = np.array([-2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
                         200.0 * (x[1] - x[0] ** 2)])
        return f, grad

    starts = np.array([[-1.2, 1.0], [2.0, -1.0]])
    f_start = np.array([rosenbrock(s)[0] for s in starts])
    f_by_maxiter = [run_batch(rowwise(rosenbrock), starts, 0.0, maxiter)[1]
                    for maxiter in (0, 1, 2, 3)]
    assert np.array_equal(f_by_maxiter[0], f_start)
    assert all((later < earlier).all() for earlier, later in zip(f_by_maxiter, f_by_maxiter[1:]))
    assert (f_by_maxiter[-1] > 1e-3).all()
    x, f = run_batch(rowwise(rosenbrock), starts, 1e-15, 2000)
    assert np.abs(x - 1.0).max() <= 1e-4


def test_batch_fit_polishes_only_the_rows_that_end_inside_the_gate(monkeypatch):
    # with ftol 1e-2 L-BFGS stops loosely: the consistent system ends inside the gate and is
    # polished to rounding, the inconsistent one (floor f = 2) is returned as L-BFGS left it
    consistent = least_squares(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0]]), np.array([3.0, 1.0]))
    polished = []
    real = _linalg.gauss_newton

    def recording(res, jac, x, steps):
        polished.append(x)
        return real(res, jac, x, steps)

    monkeypatch.setattr(_linalg, "gauss_newton", recording)
    objective, residual, jacobian = consistent
    # the verdict residual is f itself, and no row passes a tolerance of -1
    results = batch_fit(rowwise(objective), residual, jacobian,
                        np.array([[5.0, -4.0, 0.0], [0.0, 3.0, 1.0]]), 1e-2, 1.0, 100,
                        lambda x, f: f, -1.0)
    assert len(results) == 2 and len(polished) == 2
    assert all(f == residual(x) @ residual(x) <= 1e-28 for x, f in results)

    polished.clear()
    objective, residual, jacobian = least_squares(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
    results = batch_fit(rowwise(objective), residual, jacobian, np.array([[3.0], [-2.0]]), 1e-8,
                        1e-2, 100, lambda x, f: f, -1.0)
    assert len(results) == 2 and polished == []
    assert all(f == residual(x) @ residual(x) > 1e-2**2 for x, f in results)


def tagged_batch(monkeypatch):
    """A batch whose objective reads only x[0] (minimum at 1) and whose verdict passes a row
    whose tag x[1], which L-BFGS never moves, is positive; it records each polish."""
    objective, residual, jacobian = least_squares(np.array([[1.0, 0.0]]), np.array([1.0]))
    polished = []
    real = _linalg.gauss_newton

    def recording(res, jac, x, steps):
        polished.append(x[1])
        return real(res, jac, x, steps)

    monkeypatch.setattr(_linalg, "gauss_newton", recording)
    return (rowwise(objective), residual, jacobian), lambda x, f: 0.0 if x[1] > 0 else 1.0, polished


def test_batch_fit_stops_at_its_first_certified_row_and_polishes_no_later_row(monkeypatch):
    # rows 2, 3 and 4 start at the minimum and stop at the first evaluation, where row 3 is
    # the lowest one that passes; row 4 is never polished, and rows 0 and 1 never end
    phases, verdict, polished = tagged_batch(monkeypatch)
    starts = np.array([[7.0, 1.0], [-5.0, -1.0], [1.0, -2.0], [1.0, 3.0], [1.0, 4.0]])
    ends = batch_fit(*phases, starts, 1e-12, 1.0, 100, verdict, 0.0)
    assert polished == [-2.0, 3.0]
    assert [(x[1], residual) for x, residual in ends] == [(-2.0, 1.0), (3.0, 0.0)]


def test_batch_fit_keeps_the_row_that_passes_first_over_a_lower_row_still_running(monkeypatch):
    phases, verdict, polished = tagged_batch(monkeypatch)
    starts = np.array([[7.0, 1.0], [1.0, 2.0]])
    [(x, residual)] = batch_fit(*phases, starts, 1e-12, 1.0, 100, verdict, 0.0)
    assert polished == [2.0] and x[1] == 2.0 and residual == 0.0


def test_restart_search_runs_batches_until_a_start_passes(monkeypatch):
    # the first start and the first batch of 8 miss; the second batch passes at its third row
    phases, verdict, polished = tagged_batch(monkeypatch)
    tags = iter(range(-9, 100))
    draws = []

    def draw():
        draws.append(np.array([1.0, float(next(tags))]))
        return draws[-1]

    x, residual, ran = restart_search(phases, (1e-12, 1.0, 100), verdict, np.array([1.0, -20.0]),
                                      draw, 32, 0.0)
    assert (x[1], residual, ran) == (1.0, 0.0, 17)
    assert len(draws) == 16 and polished == [-20.0, *range(-9, 2)]


def test_one_row_batches_run_l_bfgs_b_and_larger_ones_lbfgs_batch(monkeypatch):
    # the first start misses; at a budget of 2 the trailing batch of one start runs L-BFGS-B,
    # at a budget of 3 the trailing batch of two runs lbfgs_batch
    phases, verdict, _ = tagged_batch(monkeypatch)
    engines = []
    minimize, batch = _linalg.minimize, _linalg.lbfgs_batch

    def recording_minimize(objective, x0, **kwargs):
        engines.append(("L-BFGS-B", x0[1]))
        return minimize(objective, x0, **kwargs)

    def recording_batch(objective, x0, *args):
        engines.append(("batch", *x0[:, 1]))
        return batch(objective, x0, *args)

    monkeypatch.setattr(_linalg, "minimize", recording_minimize)
    monkeypatch.setattr(_linalg, "lbfgs_batch", recording_batch)
    for restarts, expected in [(2, [("L-BFGS-B", 1.0)]), (3, [("batch", 1.0, 2.0)])]:
        engines.clear()
        tags = iter([1.0, 2.0])
        x, residual, ran = restart_search(phases, (1e-12, 1.0, 100), verdict,
                                          np.array([-3.0, -1.0]), lambda: np.array([-3.0, next(tags)]),
                                          restarts, 0.0)
        assert engines == [("L-BFGS-B", -1.0), *expected]
        assert (x[1], residual, ran) == (1.0, 0.0, restarts)


def test_restart_search_keeps_the_best_start_of_a_spent_budget():
    # no start passes: a budget of 11 runs as 1 + 8 + 2 starts.  The objective reads x[0] only
    # and the verdict residual is x[1], so the kept start is the first of the two whose x[1]
    # is 0.5, the one with x[2] = 3
    objective, residual, jacobian = least_squares(np.array([[1.0, 0.0, 0.0]]), np.array([1.0]))
    tags = iter([3.0, 7.0, 0.5, 2.0, 0.9, 4.0, 6.0, 0.5, 8.0, 1.0])
    ids = iter(range(1, 11))
    x, verdict_residual, ran = restart_search(
        (rowwise(objective), residual, jacobian), (1e-12, 1.0, 100), lambda x, f: x[1],
        np.array([-4.0, 5.0, 0.0]), lambda: np.array([-3.0, next(tags), next(ids)]), 11, 0.1,
    )
    assert (ran, verdict_residual, x[2]) == (11, 0.5, 3.0)
    assert next(ids, None) is None


def two_loop(g, pairs, gamma):
    """H g of L-BFGS by the two-loop recursion over ``pairs`` (s, y), oldest first, from
    H0 = gamma I; a pair with s.y at most eps y.y is skipped."""
    q, kept = g.copy(), []
    for s, y in reversed(pairs):
        if s @ y > np.finfo(float).eps * (y @ y):
            alpha = (s @ q) / (s @ y)
            q -= alpha * y
            kept.append((s, y, alpha))
    q *= gamma
    for s, y, alpha in reversed(kept):
        q += (alpha - (y @ q) / (s @ y)) * s
    return q


def test_compact_direction_is_the_two_loop_direction(rng):
    # three rows of random curvature pairs (y = A s + noise, A positive definite), 14 pushes so
    # the memory fills and then drops its oldest pairs; row 1 gets a pair with s.y < 0 (skipped)
    # at push 4, and row 2 is cleared after push 7, as an uphill direction does
    k, n = 3, 12
    a = rng.standard_normal((n, n))
    a = a @ a.T / n + 0.1 * np.eye(n)
    memory = _CompactMemory(k, n)
    pairs, gamma = [[] for _ in range(k)], np.ones(k)
    for push in range(14):
        s = rng.standard_normal((k, n))
        y = s @ a + 0.01 * rng.standard_normal((k, n))
        if push == 4:
            y[1] = -s[1]
        memory.push(s, y)
        for i in range(k):
            pairs[i] = (pairs[i] + [(s[i], y[i])])[-LBFGS_MEMORY:]
            if s[i] @ y[i] > np.finfo(float).eps * (y[i] @ y[i]):
                gamma[i] = (s[i] @ y[i]) / (y[i] @ y[i])
        if push == 7:
            memory.clear(np.array([False, False, True]))
            pairs[2], gamma[2] = [], 1.0
        g = rng.standard_normal((k, n))
        h = memory.inverse_hessian_times(g)
        for i in range(k):
            reference = two_loop(g[i], pairs[i], gamma[i])
            assert np.abs(h[i] - reference).max() <= 1e-12 * np.abs(reference).max()
    assert memory.holds_pairs().all()
