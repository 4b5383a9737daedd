"""Shared numerical helpers: Hermitian checks and roots, ranks, kernels, Born matrices,
restarts, the two-phase fit (L-BFGS-B, then a Gauss-Newton polish) of both searches, and
its batched form for many starts of one objective."""

import numpy as np

HERM_ATOL = 1e-12
RANK_REL_TOL = 1e-9
GN_STEP_RTOL = 1e-12
POLISH_MAX_STEPS = 20
LBFGS_GTOL = 1e-14
LBFGS_MEMORY = 10
LBFGS_MAX_BACKTRACKS = 20
ARMIJO_C1 = 1e-4


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


def _polish_inside_gate(residual, jacobian, x, f, gate) -> tuple:
    """``gauss_newton`` from an end point with f at most ``gate``^2; others as they are."""
    if f <= gate**2:
        return gauss_newton(residual, jacobian, x, POLISH_MAX_STEPS)
    return x, f


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
        options={"maxiter": maxiter, "ftol": ftol, "gtol": LBFGS_GTOL},
    )
    return _polish_inside_gate(residual, jacobian, res.x, res.fun, gate)


def batch_fit(objective, residual, jacobian, x0, ftol, gate, maxiter) -> list:
    """``two_phase_fit`` of each row of ``x0`` (k, n), with the L-BFGS phase run as one batch.

    ``objective`` takes a stack of points (j, n) and returns f (j,) and the
    gradients (j, n).  All rows run ``lbfgs_batch``; each end point with f at
    most ``gate``^2 is then polished alone by ``gauss_newton``, as in
    ``two_phase_fit``.  Returns one (x, f = ||residual(x)||^2) per row, in row order.
    """
    x, f = lbfgs_batch(objective, x0, ftol, maxiter)
    return [_polish_inside_gate(residual, jacobian, xi, fi, gate) for xi, fi in zip(x, f)]


def _two_loop(g, s, y, rho, gamma, newest_first):
    """H g for each row's L-BFGS inverse Hessian: the two-loop recursion over the memory
    slots in ``newest_first`` order, from H0 = gamma I; a slot with rho = 0 is skipped."""
    q = g.copy()
    alpha = {}
    for i in newest_first:
        alpha[i] = rho[:, i] * np.einsum("kn,kn->k", s[:, i], q)
        q -= alpha[i][:, None] * y[:, i]
    q *= gamma[:, None]
    for i in reversed(newest_first):
        beta = rho[:, i] * np.einsum("kn,kn->k", y[:, i], q)
        q += (alpha[i] - beta)[:, None] * s[:, i]
    return q


def lbfgs_batch(objective, x0, ftol, maxiter) -> tuple:
    """Unconstrained L-BFGS (Liu & Nocedal, Math. Prog. 45, 503 (1989)) on each row of ``x0``.

    The rows are independent minimizations of one ``objective``, which maps a
    stack of points (j, n) to f (j,) and gradients (j, n), so each iteration
    evaluates every running row in one call.  Each row keeps its own
    ``LBFGS_MEMORY`` curvature pairs (a pair with s.y at most eps y.y is not
    stored) and its own Armijo backtracking line search, from the unit step
    (1 / ||g|| while the row holds no pair) with safeguarded quadratic
    interpolation, for at most ``LBFGS_MAX_BACKTRACKS`` evaluations.  A row
    stops, and leaves the batch, when L-BFGS-B would stop it: a relative decrease
    of f at most ``ftol`` * max(|f|, |f'|, 1), a gradient of at most
    ``LBFGS_GTOL`` in every entry, ``maxiter`` iterations or a failed line
    search; and it stops at once with a non-finite f or gradient.  Returns the
    end points (k, n) and their f (k,); a row that stops keeps its last accepted point.
    """
    x = np.array(x0, dtype=float)
    k, n = x.shape
    x_end, f_end = x.copy(), np.full(k, np.nan)
    f, g = objective(x)
    f, g = np.array(f, dtype=float), np.array(g, dtype=float)
    rows = np.arange(k)
    s_mem = np.zeros((k, LBFGS_MEMORY, n))
    y_mem = np.zeros((k, LBFGS_MEMORY, n))
    rho = np.zeros((k, LBFGS_MEMORY))
    gamma = np.ones(k)
    stop = ~np.isfinite(f) | ~np.isfinite(g).all(axis=1) | (np.abs(g).max(axis=1) <= LBFGS_GTOL)
    for it in range(maxiter):
        if stop.any():
            x_end[rows[stop]], f_end[rows[stop]] = x[stop], f[stop]
            keep = ~stop
            rows, x, f, g = rows[keep], x[keep], f[keep], g[keep]
            s_mem, y_mem, rho, gamma = s_mem[keep], y_mem[keep], rho[keep], gamma[keep]
        if rows.size == 0:
            break
        # the pairs live in slots it - 1, it - 2, ... (mod the memory), newest first
        newest_first = [(it - 1 - j) % LBFGS_MEMORY for j in range(min(it, LBFGS_MEMORY))]
        d = -_two_loop(g, s_mem, y_mem, rho, gamma, newest_first)
        slope = np.einsum("kn,kn->k", g, d)
        uphill = ~(slope < 0.0)                         # rounding: restart from steepest descent
        if uphill.any():
            rho[uphill], gamma[uphill] = 0.0, 1.0
            d[uphill] = -g[uphill]
            slope[uphill] = -np.einsum("kn,kn->k", g[uphill], g[uphill])
        step = np.where(rho.any(axis=1), 1.0, 1.0 / np.linalg.norm(d, axis=1))
        x_new, f_new, g_new = x.copy(), f.copy(), g.copy()
        searching = np.arange(rows.size)
        for _ in range(LBFGS_MAX_BACKTRACKS):
            t = step[searching]
            trial = x[searching] + t[:, None] * d[searching]
            f_trial, g_trial = objective(trial)
            f0, s0 = f[searching], slope[searching]
            ok = f_trial <= f0 + ARMIJO_C1 * t * s0
            done = searching[ok]
            x_new[done], f_new[done], g_new[done] = trial[ok], f_trial[ok], g_trial[ok]
            searching = searching[~ok]
            if searching.size == 0:
                break
            # minimizer of the quadratic through f0, the slope and f_trial, kept in [t/10, t/2]
            t, f_bad, s0, f0 = t[~ok], f_trial[~ok], s0[~ok], f0[~ok]
            quad = -s0 * t * t / (2.0 * (f_bad - f0 - s0 * t))
            step[searching] = np.where(np.isfinite(quad), np.clip(quad, 0.1 * t, 0.5 * t), 0.5 * t)
        s, y = x_new - x, g_new - g
        sy, yy = np.einsum("kn,kn->k", s, y), np.einsum("kn,kn->k", y, y)
        curved = sy > np.finfo(float).eps * yy          # False where the line search failed
        slot = it % LBFGS_MEMORY
        s_mem[:, slot], y_mem[:, slot] = s, y
        rho[:, slot] = np.divide(1.0, sy, out=np.zeros_like(sy), where=curved)
        np.divide(sy, yy, out=gamma, where=curved)
        # a failed line search leaves f unchanged, so it counts as stalled
        stalled = (f - f_new) <= ftol * np.maximum(np.maximum(np.abs(f), np.abs(f_new)), 1.0)
        finite = np.isfinite(f_new) & np.isfinite(g_new).all(axis=1)
        stop = stalled | ~finite | (np.abs(g_new).max(axis=1) <= LBFGS_GTOL)
        x, f, g = x_new, f_new, g_new
    x_end[rows], f_end[rows] = x, f
    return x_end, f_end


def best_start(residuals, tol: float) -> int:
    """Index of the first residual within ``tol``, else of the lowest one.

    Ties keep the earlier start; a finite residual replaces a NaN best, and a NaN
    one never replaces a best.  This is the keep rule of every restarted search.
    """
    best = 0
    for start, residual in enumerate(residuals):
        if residual <= tol:
            return start
        if residual < residuals[best] or (np.isnan(residuals[best]) and not np.isnan(residual)):
            best = start
    return best


def multistart(solve, restarts: int, seed: int, tol: float) -> tuple:
    """Call ``solve(rng, start)`` for start = 0, 1, ... with one generator seeded by ``seed``.

    Each call returns ``(candidate, residual)``, the residual being the number the
    verdict tests.  The search stops at the first residual within ``tol`` and
    keeps the start that ``best_start`` picks.  Returns the best candidate, its
    residual and the number of starts run.  ``restarts`` must be at least 1; the
    public entry points check it.
    """
    rng = np.random.default_rng(seed)
    results = []
    for start in range(restarts):
        results.append(solve(rng, start))
        if results[-1][1] <= tol:
            break
    best = best_start([residual for _, residual in results], tol)
    return results[best][0], results[best][1], len(results)
