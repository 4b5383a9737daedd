"""The multi-start driver, the two-phase fit and the Gauss-Newton polish shared by the searches."""

import types

import numpy as np
import pytest

from commat import _linalg
from commat._linalg import gauss_newton, inverse_sqrt, multistart, two_phase_fit


def scripted(residuals):
    """A solve callable returning the given residuals in turn; it records (start, one draw)."""
    calls = []

    def solve(rng, start):
        calls.append((start, rng.standard_normal()))
        return f"candidate {start}", residuals[start]

    return solve, calls


def test_stops_at_first_residual_within_tolerance():
    solve, calls = scripted([0.5, 0.2, 1e-9, 1e-12])
    assert multistart(solve, 4, 0, 1e-8) == ("candidate 2", 1e-9, 3)
    assert [start for start, _ in calls] == [0, 1, 2]


def test_residual_equal_to_tolerance_is_accepted():
    solve, _ = scripted([0.5, 0.0, 0.0])
    assert multistart(solve, 3, 0, 0.0) == ("candidate 1", 0.0, 2)


def test_keeps_lowest_residual_when_none_is_accepted():
    solve, _ = scripted([0.5, 0.1, 0.3, 0.1])
    # the tie at start 3 keeps the earlier start 1
    assert multistart(solve, 4, 0, 1e-8) == ("candidate 1", 0.1, 4)


def test_first_start_is_kept_even_with_a_nan_residual():
    solve, _ = scripted([np.nan, np.nan])
    best, residual, ran = multistart(solve, 2, 0, 1e-8)
    assert best == "candidate 0" and np.isnan(residual) and ran == 2


def test_a_finite_residual_replaces_a_nan_best():
    solve, _ = scripted([np.nan, 1e-12])
    assert multistart(solve, 2, 0, 1e-8) == ("candidate 1", 1e-12, 2)


def test_one_generator_per_seed():
    first, draws_a = scripted([1.0] * 3)
    again, draws_b = scripted([1.0] * 3)
    other, draws_c = scripted([1.0] * 3)
    multistart(first, 3, 5, 0.0)
    multistart(again, 3, 5, 0.0)
    multistart(other, 3, 6, 0.0)
    assert draws_a == draws_b != draws_c
    assert len({draw for _, draw in draws_a}) == 3  # the starts share one stream, not one seed


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
    """objective, residual and Jacobian of r(x) = a x - b, with f = ||r||^2."""

    def residual(x):
        return a @ x - b

    def objective(x):
        r = residual(x)
        return float(r @ r), 2.0 * a.T @ r

    return objective, residual, lambda x: a


def test_two_phase_fit_returns_an_end_point_outside_the_gate_unpolished(monkeypatch):
    # an inconsistent system: the least-squares floor is f = 2 (x = 0), far above the gate
    monkeypatch.setattr(_linalg, "gauss_newton", lambda *a, **k: pytest.fail("polish ran"))
    objective, residual, jacobian = least_squares(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
    x, f = two_phase_fit(objective, residual, jacobian, np.array([3.0]), 1e-8, 1e-2, 100)
    r = residual(x)
    assert f == r @ r
    assert f > 1e-2**2


def test_two_phase_fit_polishes_an_end_point_inside_the_gate_to_rounding(monkeypatch):
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
    x, f = two_phase_fit(objective, residual, jacobian, np.array([5.0, -4.0, 0.0]), 1e-2, 1.0, 100)
    r = residual(x)
    assert len(end_points) == 1 and 1e-20 < end_points[0] <= 1.0
    assert f == r @ r
    assert f <= 1e-28


def test_two_phase_fit_polishes_a_start_inside_the_gate_without_l_bfgs_b(monkeypatch):
    monkeypatch.setattr(_linalg, "minimize", lambda *a, **k: pytest.fail("L-BFGS-B ran"))
    objective, residual, jacobian = least_squares(
        np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0]]), np.array([3.0, 1.0])
    )
    x, f = two_phase_fit(objective, residual, jacobian, np.array([1.001, 1.0, 0.0]), 1e-8, 1e-2, 100)
    r = residual(x)
    assert f == r @ r
    assert f <= 1e-28


def test_two_phase_fit_runs_l_bfgs_b_once_on_a_nan_start(monkeypatch):
    # a NaN start fails the gate test, so L-BFGS-B decides; its NaN end point is returned as it is
    starts = []

    def fake_minimize(objective, x0, **kwargs):
        starts.append(x0)
        return types.SimpleNamespace(x=x0, fun=np.nan)

    monkeypatch.setattr(_linalg, "minimize", fake_minimize)
    monkeypatch.setattr(_linalg, "gauss_newton", lambda *a, **k: pytest.fail("polish ran"))
    objective, residual, jacobian = least_squares(np.eye(2), np.zeros(2))
    x0 = np.array([np.nan, 0.0])
    x, f = two_phase_fit(objective, residual, jacobian, x0, 1e-8, 1e-2, 100)
    assert len(starts) == 1 and starts[0] is x0
    assert x is x0 and np.isnan(f)


def test_two_phase_fit_runs_l_bfgs_b_from_a_start_outside_the_gate(monkeypatch):
    # f = 34 at the start: L-BFGS-B runs once from it and hands its end point to the polish
    objective, residual, jacobian = least_squares(
        np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0]]), np.array([3.0, 1.0])
    )
    fits, polished = [], []
    minimize, gauss_newton = _linalg.minimize, _linalg.gauss_newton

    def recording_minimize(*args, **kwargs):
        fits.append((args[1], minimize(*args, **kwargs)))
        return fits[-1][1]

    def recording_polish(res, jac, x, steps):
        polished.append(x)
        return gauss_newton(res, jac, x, steps)

    monkeypatch.setattr(_linalg, "minimize", recording_minimize)
    monkeypatch.setattr(_linalg, "gauss_newton", recording_polish)
    x0 = np.array([5.0, -4.0, 0.0])
    x, f = two_phase_fit(objective, residual, jacobian, x0, 1e-2, 1.0, 100)
    assert len(fits) == 1 and fits[0][0] is x0
    assert len(polished) == 1 and polished[0] is fits[0][1].x
    assert f == residual(x) @ residual(x) <= 1e-28
