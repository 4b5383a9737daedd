"""Shared numerical helpers: Hermitian checks and roots, ranks, kernels, Born matrices,
and the one fit driver of both searches: batches of starts that run L-BFGS (scipy's
L-BFGS-B for one start, a vectorized L-BFGS for more), a Gauss-Newton polish, the
keep rule and the restart schedule."""

import numpy as np

HERM_ATOL = 1e-12
# the one singular-value rule of ranks, kernels and frames: full rank means a
# condition number below 1 / RANK_REL_TOL
RANK_REL_TOL = 1e-7
GN_STEP_RTOL = 1e-12
POLISH_MAX_STEPS = 20
LBFGS_GTOL = 1e-14
LBFGS_MEMORY = 10
LBFGS_MAX_BACKTRACKS = 20
ARMIJO_C1 = 1e-4
# Starts per batch after the first start of a search.  A search that finds nothing
# runs its whole budget: 31 starts of the EB identity search on sic-qubit (l = 4) took
# 0.44 s one at a time and 0.18, 0.076 and 0.036 s in batches of 1, 8 and 31.  A
# search that passes runs every row of its batch until the first one passes: the
# qutrit self-tests of rank-1 set-ups (d, n, seed) = (3, 9, 0), (3, 10, 0), (3, 9, 4)
# took 28, 62 and 10 ms with batches of 4, 25, 40 and 13 ms with batches of 8 and
# 25, 25 and 13 ms with batches of 16, which report 17 starts for each (CPU, one
# BLAS thread, 2-core x86-64).
BATCH_STARTS = 8


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


def _end_points(objective, residual, x0, ftol, gate, maxiter):
    """The rows of ``x0`` (k, n) as they end, each as (row, end point, f).

    A start whose f is already at most ``gate``^2 (the exact Gram start of the
    qubit self-test) is its own end point.  The other rows run L-BFGS to
    ``ftol`` or ``maxiter`` iterations: scipy's L-BFGS-B when one row runs,
    ``lbfgs_batch`` when more do.  Both have the same stop rule, and one start
    costs less in L-BFGS-B's compiled loop than in the numpy batch.  A NaN start
    fails the gate test and runs L-BFGS.
    """
    r0 = residual(x0).reshape(len(x0), -1)
    f0 = np.einsum("kn,kn->k", r0, r0)
    inside = f0 <= gate**2
    yield from zip(np.flatnonzero(inside), x0[inside], f0[inside])
    rows = np.flatnonzero(~inside)
    if rows.size == 1:
        options = {"maxiter": maxiter, "ftol": ftol, "gtol": LBFGS_GTOL}
        res = minimize(objective, x0[rows[0]], jac=True, method="L-BFGS-B", options=options)
        yield rows[0], res.x, res.fun
    elif rows.size:
        for stopped, x, f in lbfgs_batch(objective, x0[rows], ftol, maxiter):
            yield from zip(rows[stopped], x, f)


def batch_fit(objective, residual, jacobian, x0, ftol, gate, maxiter, verdict, tol) -> list:
    """Minimize f = ||``residual``||^2 from each row of ``x0`` (k, n) until one row passes.

    ``objective`` returns f and its gradient at one point (n,), and f (j,) and
    the gradients (j, n) at a stack of points (j, n); ``residual`` of a stack
    returns the rows' residual vectors end to end.  Each row runs L-BFGS
    (see ``_end_points``), to the loose ``ftol``: L-BFGS's stop test divides by
    max(|f|, 1), so below f = 1 it bounds the absolute decrease per iteration,
    and a fit nearing a residual of 1e-8 (f about 1e-16) stops short unless
    ftol is below about 1e-18, at which the fits that end far from zero grind on
    to rounding.  So L-BFGS only hands over a start: as soon as a row ends, an
    end point with f at most ``gate``^2 is polished by ``gauss_newton`` with the
    analytic ``jacobian``, quadratically convergent at a zero residual.  Its
    minimum-norm steps make the Jacobian's null directions (gauge freedoms of
    the packing, fewer rows than columns) cost nothing, and without a trust
    region a step may climb out of the shallow basin where L-BFGS stopped.  The
    polish runs to rounding and its best iterate is never worse than its start.
    An end point outside the gate, or with a NaN f, is kept as it is.

    ``verdict(x, f)`` gives each end point the residual its search tests.  The
    batch ends at the first row whose residual is within ``tol``; of rows that
    end together the lowest index goes first, and no later row is polished.
    Returns (x, verdict residual) of each row that ended, in row order.
    """
    ends = {}
    for row, x, f in _end_points(objective, residual, x0, ftol, gate, maxiter):
        if f <= gate**2:
            x, f = gauss_newton(residual, jacobian, x, POLISH_MAX_STEPS)
        ends[row] = (x, verdict(x, f))
        if ends[row][1] <= tol:
            break
    return [ends[i] for i in sorted(ends)]


class _CompactMemory:
    """The last ``LBFGS_MEMORY`` curvature pairs (s, y) of each row of a batch, in compact form.

    Byrd, Nocedal & Schnabel (Math. Prog. 63, 129 (1994)) write the L-BFGS
    inverse Hessian of the pairs S, Y (columns, oldest first) and the scale
    gamma as H = gamma I + [S Y] M [S Y]^T, where M is built from
    D = diag(S^T Y), Y^T Y and R^-1, R being the upper triangle of S^T Y.  So H g
    takes two products with [S Y] and three with m x m matrices, and gives the
    two-loop recursion's vector to rounding.  Each ``push`` drops the oldest
    pair and adds one row and column to Y^T Y and R^-1.  A pair that is not
    kept (s.y at most eps y.y) is stored as a zero pair with R_ii = 1, which
    adds nothing to H, and so are the empty slots of a memory not yet full.
    """

    def __init__(self, k, n):
        m = LBFGS_MEMORY
        self.pairs = np.zeros((k, 2 * m, n))            # S, then Y, oldest pair first
        self.r_inv = np.tile(np.eye(m), (k, 1, 1))
        self.yy = np.zeros((k, m, m))
        self.sy = np.zeros((k, m))                       # D; 0 for a zero pair
        self.gamma = np.ones(k)

    def keep(self, rows):
        """Drop the rows outside the mask ``rows``."""
        self.pairs, self.r_inv, self.yy = self.pairs[rows], self.r_inv[rows], self.yy[rows]
        self.sy, self.gamma = self.sy[rows], self.gamma[rows]

    def clear(self, rows):
        """Forget every pair of the rows in the mask ``rows``: their H becomes the identity."""
        self.pairs[rows], self.yy[rows], self.sy[rows] = 0.0, 0.0, 0.0
        self.r_inv[rows], self.gamma[rows] = np.eye(LBFGS_MEMORY), 1.0

    def holds_pairs(self) -> np.ndarray:
        return (self.sy > 0.0).any(axis=1)

    def inverse_hessian_times(self, g) -> np.ndarray:
        """H g of each row: gamma g + S R^-T ((D + gamma Y^T Y) u - gamma Y^T g) - gamma Y u,
        with u = R^-1 S^T g."""
        m, gamma = LBFGS_MEMORY, self.gamma[:, None]
        proj = (self.pairs @ g[:, :, None])[..., 0]    # S^T g, then Y^T g
        u = (self.r_inv @ proj[:, :m, None])[..., 0]
        v = self.sy * u + gamma * ((self.yy @ u[:, :, None])[..., 0] - proj[:, m:])
        coef = np.concatenate(((v[:, None, :] @ self.r_inv)[:, 0], -gamma * u), axis=1)
        return gamma * g + (coef[:, None, :] @ self.pairs)[:, 0]

    def push(self, s, y):
        """Add the pair (s[i], y[i]) to row i, dropping its oldest pair."""
        m = LBFGS_MEMORY
        pairs = self.pairs.reshape(len(s), 2, m, -1)
        pairs[:, :, :-1] = pairs[:, :, 1:]
        pairs[:, 0, -1], pairs[:, 1, -1] = s, y
        column = (self.pairs @ y[:, :, None])[..., 0]  # S^T y, then Y^T y
        sty, yty = column[:, :m], column[:, m:]
        curved = sty[:, -1] > np.finfo(float).eps * yty[:, -1]
        if not curved.all():
            pairs[~curved, :, -1] = 0.0
            column[~curved] = 0.0
        # R' = [[R, c], [0, delta]] has R'^-1 = [[R^-1, -R^-1 c / delta], [0, 1 / delta]]; the
        # last row of the shifted R^-1 is already zero left of the diagonal, as R^-1 is upper
        delta = np.where(curved, sty[:, -1], 1.0)
        self.r_inv[:, :-1, :-1] = self.r_inv[:, 1:, 1:]
        r_inv_c = (self.r_inv[:, :-1, :-1] @ sty[:, :-1, None])[..., 0]
        self.r_inv[:, :-1, -1] = r_inv_c / -delta[:, None]
        self.r_inv[:, -1, -1] = 1.0 / delta
        self.yy[:, :-1, :-1] = self.yy[:, 1:, 1:]
        self.yy[:, -1], self.yy[:, :, -1] = yty, yty
        self.sy[:, :-1] = self.sy[:, 1:]
        self.sy[:, -1] = sty[:, -1]
        np.divide(sty[:, -1], yty[:, -1], out=self.gamma, where=curved)


def _stopped(f, g) -> np.ndarray:
    """Rows with a non-finite f or gradient, or a gradient of at most ``LBFGS_GTOL`` in
    every entry."""
    g_max = np.abs(g).max(axis=1)                      # NaN or inf if any entry is
    return ~(np.isfinite(f) & np.isfinite(g_max)) | (g_max <= LBFGS_GTOL)


def lbfgs_batch(objective, x0, ftol, maxiter):
    """Unconstrained L-BFGS (Liu & Nocedal, Math. Prog. 45, 503 (1989)) on each row of ``x0``.

    The rows are independent minimizations of one ``objective``, which maps a
    stack of points (j, n) to f (j,) and gradients (j, n), so each iteration
    evaluates every running row in one call.  Each row keeps its own
    ``LBFGS_MEMORY`` curvature pairs in a ``_CompactMemory`` (a pair with s.y at
    most eps y.y is not kept) and its own Armijo backtracking line search, from
    the unit step (1 / ||g|| while the row holds no pair) with safeguarded
    quadratic interpolation, for at most ``LBFGS_MAX_BACKTRACKS`` evaluations.
    A row stops, and leaves the batch, when L-BFGS-B would stop it: a relative
    decrease of f at most ``ftol`` * max(|f|, |f'|, 1), a gradient of at most
    ``LBFGS_GTOL`` in every entry, ``maxiter`` iterations or a failed line
    search; and it stops at once with a non-finite f or gradient.

    A generator: after the first evaluation and after each iteration in which
    rows stop, it yields their indices in ``x0`` (ascending), their end points
    and their f.  Each row is yielded once, at its last accepted point; a
    consumer that stops iterating stops the rows still running.
    """
    x = np.array(x0, dtype=float)
    f, g = objective(x)
    f, g = np.array(f, dtype=float), np.array(g, dtype=float)
    rows = np.arange(len(x))
    memory = _CompactMemory(*x.shape)
    stop = _stopped(f, g)
    for _ in range(maxiter):
        if stop.any():
            yield rows[stop], x[stop], f[stop]
            keep = ~stop
            rows, x, f, g = rows[keep], x[keep], f[keep], g[keep]
            memory.keep(keep)
        if rows.size == 0:
            return
        d = -memory.inverse_hessian_times(g)
        slope = np.einsum("kn,kn->k", g, d)
        uphill = ~(slope < 0.0)                         # rounding: restart from steepest descent
        if uphill.any():
            memory.clear(uphill)
            d[uphill] = -g[uphill]
            slope[uphill] = -np.einsum("kn,kn->k", g[uphill], g[uphill])
        step = np.ones(rows.size)
        fresh = ~memory.holds_pairs()
        if fresh.any():
            step[fresh] = 1.0 / np.linalg.norm(d[fresh], axis=1)
        x_new = x + step[:, None] * d
        f_new, g_new = objective(x_new)
        searching = np.flatnonzero(~(f_new <= f + ARMIJO_C1 * step * slope))
        for _ in range(LBFGS_MAX_BACKTRACKS - 1):
            if searching.size == 0:
                break
            # minimizer of the quadratic through f0, the slope and the last trial, in [t/10, t/2]
            t, f0, s0 = step[searching], f[searching], slope[searching]
            quad = -s0 * t * t / (2.0 * (f_new[searching] - f0 - s0 * t))
            t = np.where(np.isfinite(quad), np.clip(quad, 0.1 * t, 0.5 * t), 0.5 * t)
            step[searching] = t
            trial = x[searching] + t[:, None] * d[searching]
            f_trial, g_trial = objective(trial)
            x_new[searching], f_new[searching], g_new[searching] = trial, f_trial, g_trial
            searching = searching[~(f_trial <= f0 + ARMIJO_C1 * t * s0)]
        if searching.size:  # a failed line search keeps its point: a zero pair, and stalled
            x_new[searching], f_new[searching] = x[searching], f[searching]
            g_new[searching] = g[searching]
        memory.push(x_new - x, g_new - g)
        stalled = (f - f_new) <= ftol * np.maximum(np.maximum(np.abs(f), np.abs(f_new)), 1.0)
        stop = stalled | _stopped(f_new, g_new)
        x, f, g = x_new, f_new, g_new
    yield rows, x, f


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


def restart_search(phases, settings, verdict, x0, draw, restarts: int, tol: float) -> tuple:
    """The restart schedule of both searches: ``batch_fit`` over ``phases`` =
    (objective, residual, jacobian) with ``settings`` = (ftol, gate, maxiter).

    The first batch is the start ``x0`` alone.  While no start's residual
    ``verdict(x, f)`` is within ``tol`` and the budget of ``restarts`` is not
    spent, the next batch holds ``BATCH_STARTS`` starts (fewer at the end of the
    budget), each a ``draw()`` in turn, and ends at its first row within
    ``tol``.  So a search runs 1, 1 + ``BATCH_STARTS``, ... or ``restarts``
    starts.  The start kept is ``best_start``'s.  Returns its end point, its
    residual and the number of starts run.
    """
    ends, ran, starts = [], 0, [x0]
    while True:
        ends += batch_fit(*phases, np.stack(starts), *settings, verdict, tol)
        ran += len(starts)
        best = best_start([residual for _, residual in ends], tol)
        if ran >= restarts or ends[best][1] <= tol:
            return ends[best][0], ends[best][1], ran
        starts = [draw() for _ in range(min(BATCH_STARTS, restarts - ran))]
