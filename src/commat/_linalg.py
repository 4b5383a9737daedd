"""Shared numerical helpers: Hermitian checks and roots, ranks, kernels, Born matrices,
restarts, and the two-phase fit (L-BFGS-B, then a Gauss-Newton polish) of both searches."""

import numpy as np

HERM_ATOL = 1e-12
RANK_REL_TOL = 1e-9
GN_STEP_RTOL = 1e-12
POLISH_MAX_STEPS = 20


def freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def dag(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def is_hermitian(a: np.ndarray) -> np.ndarray:
    """True where a matrix, or each of a stack, lies within ``HERM_ATOL`` of its adjoint."""
    return np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1)) <= HERM_ATOL


def min_eigval(a: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(a)[0])


def inverse_sqrt(a: np.ndarray) -> np.ndarray:
    """a^(-1/2) of a Hermitian a; eigenvalues are clipped below at 0."""
    ev, evec = np.linalg.eigh(a)
    return (evec * (1.0 / np.sqrt(np.clip(ev, 0.0, None)))) @ dag(evec)


def rank_of_spectrum(s: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """Number of singular values ``s`` (descending) above rel_tol times the largest one."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def numerical_rank_of(a: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """Number of singular values above rel_tol times the largest one."""
    if a.size == 0:
        return 0
    return rank_of_spectrum(np.linalg.svd(a, compute_uv=False), rel_tol)


def null_space_of(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of a real matrix under ``RANK_REL_TOL``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    u, s, vt = np.linalg.svd(a)
    rank = rank_of_spectrum(s)
    if rank == 0:
        return np.eye(a.shape[1])
    return vt[rank:].T


def born_matrix(states, effects) -> np.ndarray:
    """Born-rule probabilities tr(states[j] effects[k]) for two stacks of operators.

    One product of the flattened states with the flattened transposed effects.
    """
    states, effects = np.asarray(states), np.asarray(effects)
    flat_t = effects.transpose(0, 2, 1).reshape(len(effects), -1)
    return (states.reshape(len(states), -1) @ flat_t.T).real


def gauss_newton(residual, jacobian, x: np.ndarray, max_steps: int) -> tuple:
    """Minimum-norm Gauss-Newton steps ``x -= lstsq(J, r)`` on ``residual(x)`` from ``x``.

    No line search or trust region: a step may climb, which lets the iteration
    leave a shallow basin on its way to a zero, so the best iterate seen (the
    start included) is returned with its squared norm ||r||^2.  The loop stops
    at a step of at most ``GN_STEP_RTOL`` times ||x||, at a non-finite residual
    or Jacobian, or after ``max_steps`` Jacobians.  The minimum-norm step
    ignores directions the residual does not depend on, such as gauge freedoms
    of the packing.
    """
    r = residual(x)
    best, best_f = x, float(r @ r)
    for _ in range(max_steps):
        jac = jacobian(x)
        if not np.isfinite(jac).all():
            break
        step = np.linalg.lstsq(jac, r, rcond=None)[0]
        x = x - step
        r = residual(x)
        f = float(r @ r)
        if not np.isfinite(f):
            break
        if f < best_f:
            best, best_f = x, f
        if np.linalg.norm(step) <= GN_STEP_RTOL * np.linalg.norm(x):
            break
    return best, best_f


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call, so that a process
    that runs no fit never loads ``scipy.optimize``."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def two_phase_fit(objective, residual, jacobian, x0, ftol, gate, maxiter) -> tuple:
    """Minimize ``objective`` (f = ||residual||^2 and its gradient) from ``x0`` in two phases.

    A start whose f is already at most ``gate``^2 (the exact Gram start of the
    qubit self-test) goes straight to the polish.  Otherwise L-BFGS-B runs
    first, to ``ftol`` or ``maxiter`` iterations.  Its stop test
    divides by max(|f|, 1), so below f = 1 it bounds the absolute decrease per
    iteration: a fit nearing a residual of 1e-8 (f about 1e-16) stops short
    unless ftol is below about 1e-18, and at such an ftol the fits that end far
    from zero grind on to rounding.  So L-BFGS-B only hands over a start, and an
    end point with f at most ``gate``^2 is polished by ``gauss_newton`` with the
    analytic ``jacobian``, quadratically convergent at a zero residual.  Its
    minimum-norm steps make the Jacobian's null directions (gauge freedoms of the
    packing, fewer rows than columns) cost nothing, and without a trust region a
    step may climb out of the shallow basin where L-BFGS-B stopped.  The polish
    runs to rounding, so a tighter residual tolerance is still decided by the
    fit, and its best iterate is never worse than the L-BFGS-B end point.  An end
    point outside the gate, or with a NaN f, is returned as it is; a NaN start
    runs L-BFGS-B.  Returns x and f = ||residual(x)||^2.
    """
    r0 = residual(x0)
    if r0 @ r0 <= gate**2:
        return gauss_newton(residual, jacobian, x0, POLISH_MAX_STEPS)
    res = minimize(
        objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": maxiter, "ftol": ftol, "gtol": 1e-14},
    )
    if res.fun <= gate**2:
        return gauss_newton(residual, jacobian, res.x, POLISH_MAX_STEPS)
    return res.x, res.fun


def multistart(solve, restarts: int, seed: int, tol: float) -> tuple:
    """Call ``solve(rng, start)`` for start = 0, 1, ... with one generator seeded by ``seed``.

    Each call returns ``(candidate, residual)``, the residual being the number the
    verdict tests.  The lowest residual is kept (ties keep the earlier start) and
    the search stops at the first residual within ``tol``.  Returns the best
    candidate, its residual and the number of starts run.  A finite residual
    replaces a NaN best, and a NaN one never replaces a best.  ``restarts`` must
    be at least 1; the public entry points check it.
    """
    rng = np.random.default_rng(seed)
    for start in range(restarts):
        candidate, residual = solve(rng, start)
        if start == 0 or residual < best_residual or (np.isnan(best_residual) and not np.isnan(residual)):
            best, best_residual = candidate, residual
        if residual <= tol:
            break
    return best, best_residual, start + 1
