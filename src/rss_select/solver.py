"""L1- and L2-penalized logistic regression solvers.

The L1 objective is ``||w||_1 + loss_weight * sum_i log(1 + exp(-y_i (x_i'w + c)))``
with an unpenalized intercept; the weight sits on the loss, so small values
force sparser solutions. Columns are standardized internally (zero mean,
unit population variance) and weights are reported in the standardized
basis; constant columns get weight exactly zero.

Every L1 fit runs through one kernel, ``_prox_solve``: accelerated proximal
gradient descent with backtracking line search and a monotone restart rule,
in lockstep over a stack of B problems of equal shape (B, n, a). The
intercept is one more coordinate of the proximal step, an unpenalized one
whose prox is the identity (Beck & Teboulle, SIAM J. Imaging Sci. 2009).
Once a problem's signs stop changing and its zero weights meet the
optimality conditions, it tries Newton steps on the smooth objective of its
support and intercept instead, as proximal Newton methods do (Lee, Sun &
Saunders, SIAM J. Optim. 2014; Yuan, Ho & Lin, JMLR 2012): supports hold at
most n columns, so a step is one small dense solve, and it ends most fits
in two or three steps. A weight that a step would take across zero stops
at zero, as in active-set (Osborne, Presnell & Turlach, IMA J. Numer. Anal.
2000) and orthant-wise methods (Andrew & Gao, ICML 2007). Each problem
keeps its own step size, backtracking, momentum and stop state, and leaves
the stack when it stops. A single fit is a stack of one. The stacked
products are ``np.matmul`` over a view of the span of the live problems,
the Newton systems are solved in stacked calls of equal size, and the sums
are row sums; all equal the products, solves and sums of each problem on
its own bit for bit, so a problem's result does not depend on the problems
that share its stack. The caller's stack is never written; the live problems
are gathered into a new stack only once at most half of the current one
is live, so the kernel holds at most half a stack more than its caller.

``fit_l1_standardized`` fits a stack made by ``standardize_stack``, the
form in which the stability selector keeps its designs; a column constant
in its matrix is a zero column there, whose gradient is exactly 0, so its
weight stays +0.0. ``fit_l1_batch`` fits row subsamples of one matrix X
(``fit_l1_logistic`` is a batch of one) at any column count by a working
set: solve on small active sets, then screen the full gradients for
violators until the optimality conditions hold over all columns, holding
only the weights of the active sets until the end. It standardizes
implicitly: column statistics of all the subsamples of a call come from
one pass over X, the screens are one product of X with the residuals (zero
on the rows a subsample did not draw), and only active columns are ever
built. A fit of X can therefore differ in the last digits from the same
fit made alone, or in another kernel call, as one-pass statistics round
with the column means of the X they shift by, and active sets of different
sizes are padded with zero columns; the difference can move the iteration
at which it meets its tolerance. Every entry point makes one kernel call
and only reads its inputs; the resampling loop decides how many problems
share a call, by ``lockstep_batch_size``: as many fits as keep one batch
array within 4 MiB, at most 64.

The ridge fit is exact damped Newton in the row space of the standardized
matrix: the minimizer lies in the span of its rows, so Newton runs on at
most n coordinates plus the intercept, whatever the column count.

Every fit takes its logistic from ``expit``, numpy's ``1 / (1 + exp(-x))``
with its argument clamped so that exp cannot overflow; it agrees with
scipy's ``expit`` within 4 ulp on |x| <= 700. The module imports no scipy:
importing ``scipy.special`` took more than half of the CLI's start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, SolverSolution

# a column whose |mean| exceeds this many stds is screened from its
# built standardized copy instead of implicitly (see _ImplicitColumns); a
# column whose second moment exceeds its variance this many times has its
# statistics recomputed in two passes (see _subsample_stats)
_CANCEL_RATIO = 1e4
# float64 entries (4 MiB) per lockstep batch array, one of the two bounds of
# lockstep_batch_size: a stack holds each fit's k x q matrix, a fit of X its
# p-long rows; column statistics read X in blocks of this size
_BATCH_ENTRIES = 1 << 19
# the other bound, on the problem count. A call runs until its slowest
# problem stops and holds a few p-long rows per fit of X, so without it
# the 1200-voxel README tour put 436 rand-l1 fits in one call. On that tour
# rand-l1 K=500 took 1.66, 1.20, 0.77 and 0.63 s in calls of at most 16,
# 32, 64 and 128, at traced peaks of 1.2, 1.6, 2.8 and 5.3 MiB; 64 takes
# most of the gain for about half the memory of 128
_MAX_STACK = 64
_MAX_OUTER = 100
_MIN_STEP = 1e-18
# a Newton step whose full length raises the objective is halved at most
# this many times before the attempt fails
_NEWTON_HALVINGS = 4
# each Newton system gets this fraction of its largest diagonal entry added
# to its diagonal (Levenberg-Marquardt). Duplicate support columns make the
# Hessian singular along a direction where the objective is flat; unshifted,
# rounding sent the step along it, and on a test instance with two equal
# columns their weights went from equal to 0.39164 and 0.39073
_NEWTON_SHIFT = 1e-8
# Newton systems are padded to a multiple of this width, so that the systems
# of a stack share a few widths and are solved in a few stacked calls
_NEWTON_WIDTH = 8
_L2_MAX_ITERS = 100
_L2_TOL_KKT = 1e-6
# the rule that ended a problem in _prox_solve, by its stop code
_STOP_RULES = ("kkt", "no progress", "max iters", "one class")
_KKT, _NO_PROGRESS, _MAX_ITERS, _ONE_CLASS = range(len(_STOP_RULES))


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the L1 logistic fit.

    Parameters
    ----------
    loss_weight : float
        Positive weight on the logistic loss relative to the L1 penalty.
    max_iters : int
        Cap on accepted iterations, proximal and Newton steps alike; a fit
        of row subsamples of X sums them over its working-set rounds.
    tol_kkt : float
        Convergence threshold on the first-order optimality residual.
    support_epsilon : float
        Weights with absolute value at or below this count as zero when
        reading off the support.
    """

    loss_weight: float
    max_iters: int = 10000
    tol_kkt: float = 1e-6
    support_epsilon: float = 1e-8

    def __post_init__(self):
        if not (self.loss_weight > 0 and math.isfinite(self.loss_weight)):
            raise ValueError("loss_weight must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not (0 < self.tol_kkt < math.inf and 0 <= self.support_epsilon < math.inf):
            raise ValueError("tol_kkt must be positive, support_epsilon non-negative, both finite")


def column_stats(X):
    """Column mean, population std and the mask of non-constant columns of
    a matrix.

    A column counts as constant when its std is within rounding of zero for
    its mean, ``std <= n * eps * |mean|``: n copies of one value can give a
    std of about eps * |mean| rather than exactly 0. X is read in column
    blocks of ``_BATCH_ENTRIES`` entries, so the temporaries stay one block
    in size; each column's statistics are those of the whole matrix bit for
    bit.
    """
    n, m = X.shape
    mean, std = np.empty(m), np.empty(m)
    width = max(1, _BATCH_ENTRIES // max(n, 1))
    for j in range(0, m, width):
        mean[j : j + width] = X[:, j : j + width].mean(axis=0)
        std[j : j + width] = X[:, j : j + width].std(axis=0)  # ddof=0: squared norms n
    keep = std > n * np.finfo(np.float64).eps * np.abs(mean)
    return mean, std, keep


def standardize_columns(X: np.ndarray):
    """Standardize columns to zero mean and unit population variance.

    Returns ``(Z, mean, std, keep)`` where ``keep`` masks the non-constant
    columns and ``Z`` holds only those, transformed. ``mean`` and ``std`` have
    full length and describe the original columns. Already-standardized input
    passes through unchanged up to floating point.
    """
    X = np.asarray(X, dtype=np.float64)
    mean, std, keep = column_stats(X)
    Z = (X[:, keep] - mean[keep]) / std[keep]
    return Z, mean, std, keep


def apply_standardization(X: np.ndarray, mean, std, keep) -> np.ndarray:
    """Transform new rows with statistics from :func:`standardize_columns`."""
    X = np.asarray(X, dtype=np.float64)
    return (X[:, keep] - mean[keep]) / std[keep]


def _validate_problem(X, y):
    """Check a fit's inputs by the :class:`Dataset` rules; float64 X and y."""
    problem = Dataset(X=X, y=y)
    return problem.X, problem.y.astype(np.float64)


def _initial_intercept(y):
    n_pos = int((y > 0).sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.0
    return math.log(n_pos / n_neg)


def expit(x):
    """The logistic ``1 / (1 + exp(-x))`` of each entry of the array x, as
    a new array; exactly 0.5 at 0. Arguments below -709 count as -709, so
    exp never overflows and no warning is raised: there the result is
    1.2e-308 instead of a smaller number or 0."""
    t = np.negative(x)
    np.minimum(t, 709.0, out=t)
    np.exp(t, out=t)
    t += 1.0
    return np.reciprocal(t, out=t)


def _soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _l1_violation(gw, w, eps):
    """Per-coordinate optimality residual for the L1 problem.

    ``gw`` is the loss-weighted gradient. At (numerically) zero weights the
    gradient must stay inside [-1, 1]; elsewhere it must cancel the penalty
    subgradient sign(w).
    """
    at_zero = np.abs(w) <= eps
    return np.where(at_zero, np.maximum(np.abs(gw) - 1.0, 0.0), np.abs(gw + np.sign(w)))


def _mv(Z, w):
    """``Z[b] @ w[b]`` for each problem of a stack."""
    return np.matmul(Z, w[:, :, None])[:, :, 0]


def _tmv(Z, g):
    """``Z[b].T @ g[b]`` for each problem of a stack."""
    return np.matmul(g[:, None, :], Z)[:, 0]


def _on_stack(f, Z, sel, v):
    """``f(Z[sel], v)`` for the problems ``sel`` (ascending indices) of a
    stack without copying Z: one call of f on the view of Z from the first
    to the last problem of sel, whose other problems get zero rows of v."""
    lo, hi = sel[0], sel[-1] + 1
    if hi - lo == sel.size:
        return f(Z[lo:hi], v)
    padded = np.zeros((hi - lo, v.shape[1]))
    padded[sel - lo] = v
    return f(Z[lo:hi], padded)[sel - lo]


def _dot(u, v):
    """``u[b] @ v[b]`` for each row pair."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _loss(y, margins_without_c, c, loss_weight):
    """Weighted logistic loss of each problem at intercepts ``c``."""
    return loss_weight * np.logaddexp(0.0, -(y * (margins_without_c + c[:, None]))).sum(axis=1)


def _newton_directions(Z, rows, on, gw, gc, sgn, q, loss_weight):
    """Newton directions ``(dw, dc)`` of the smooth objectives
    ``loss_weight * L(w, c) + sgn_S . w_S`` in the weights on each problem's
    support S (``on``) and its intercept, for the problems at positions
    ``rows`` (ascending) of the stack Z; ``gw`` and ``gc`` are their loss
    gradients, ``sgn`` the signs of their weights and ``q`` each row's
    ``expit(-y * margin)``. ``dw`` is zero off S.

    The Hessian is ``loss_weight * A'DA`` with A a column of ones and the
    support columns, D the rows' ``q (1 - q)``, its diagonal raised by
    ``_NEWTON_SHIFT`` times its largest entry. Each system is padded with
    identity rows and columns to the multiple of ``_NEWTON_WIDTH`` that its
    own |S| + 1 sets, and the systems of one padded width are solved in one
    stacked call, which solves each as its own: no problem's direction
    depends on its stack mates. A singular system gives a direction of nan.
    """
    P, n = q.shape
    dw, dc = np.zeros((P, Z.shape[2])), np.empty(P)
    D = loss_weight * (q * (1.0 - q))
    size = on.sum(axis=1)
    width = -(-(size + 1) // _NEWTON_WIDTH) * _NEWTON_WIDTH
    for W in (np.flatnonzero(np.bincount(width // _NEWTON_WIDTH)) * _NEWTON_WIDTH).tolist():
        g = np.flatnonzero(width == W)
        real = np.arange(W) <= size[g, None]  # the intercept, then S
        i, j = np.nonzero(real[:, 1:])
        S = np.nonzero(on[g])[1]  # problem by problem, ascending, as i
        A = np.zeros((g.size, n, W))
        A[:, :, 0] = 1.0
        A[i, :, j + 1] = Z[rows[g[i]], :, S]
        H = np.matmul(A.transpose(0, 2, 1), A * D[g, :, None])
        diag = H.reshape(g.size, -1)[:, :: W + 1]
        diag += _NEWTON_SHIFT * diag.max(axis=1, keepdims=True)
        diag[~real] = 1.0
        r = np.zeros((g.size, W, 1))
        r[:, 0, 0] = -gc[g]
        r[i, j + 1, 0] = -(gw[g[i], S] + sgn[g[i], S])
        try:
            d = np.linalg.solve(H, r)[:, :, 0]
        except np.linalg.LinAlgError:  # one singular system fails the whole call
            d = np.stack([_solve_or_nan(h, v) for h, v in zip(H, r)])
        dc[g] = d[:, 0]
        dw[g[i], S] = d[i, j + 1]
    return dw, dc


def _solve_or_nan(H, r):
    try:
        return np.linalg.solve(H, r)[:, 0]
    except np.linalg.LinAlgError:
        return np.full(H.shape[0], math.nan)


def _prox_solve(Z, y, loss_weight, w0, c0, max_iters, tol_kkt, support_epsilon):
    """Accelerated proximal gradient with a Newton finish, in lockstep over a
    stack of problems.

    Minimizes ``loss_weight * L(w, c) + ||w||_1`` for each problem
    ``(Z[b], y[b])`` of the stack Z (B, n, a) of standardized columns, with
    y (B, n) and warm starts w0 (B, a), c0 (B,). The intercept steps with
    the weights: it takes a plain gradient step inside the same backtracked
    step and shares their momentum. Each problem keeps its own step size,
    and its momentum restarts whenever its accepted objective would
    increase, so no accepted objective increases.

    Once a problem's signs have held for two iterations and its zero
    weights satisfy the optimality conditions (``|g_j| <= 1 + tol_kkt``),
    its next iteration tries a Newton step instead: damped Newton on the
    smooth objective its signs give on its support S and intercept (see
    :func:`_newton_directions`; |S| < n so that the system can be regular).
    Each trial point is projected onto the orthant of the signs, the
    weights that it would take across zero set to 0, and the full step is
    halved at most ``_NEWTON_HALVINGS`` times while the objective of that
    point would rise. A step that does not raise the objective counts as
    the iteration and restarts the momentum, and the problem tries Newton
    again at its next iteration if its zero weights still satisfy the
    optimality conditions, whether or not its signs changed. A failed
    attempt costs no iteration, as the proximal step follows at once.

    A problem leaves the stack at the first rule that ends it: KKT residual
    at most ``tol_kkt``, no progress even after a restart, or ``max_iters``
    (at least 1; one value or one per problem) iterations. A problem whose
    labels hold one class has no finite intercept: it stops before its
    first iteration with residual inf, not converged.

    Returns ``(w, c, objective, kkt, converged, iters, stop)``, one entry per
    problem; ``stop`` indexes ``_STOP_RULES``.
    """
    B, n, a = Z.shape
    w = np.array(w0, dtype=np.float64)
    c = np.array(c0, dtype=np.float64)
    mw = _mv(Z, w)
    F = _loss(y, mw, c, loss_weight) + np.abs(w).sum(axis=1)
    out_w, out_c, out_F = w.copy(), c.copy(), F.copy()
    out_kkt, out_it = np.full(B, math.inf), np.zeros(B, dtype=np.int64)
    one_class = (y == y[:, :1]).all(axis=1)
    out_stop = np.where(one_class, _ONE_CLASS, -1).astype(np.int8)
    pid = np.flatnonzero(~one_class)  # original index of each problem still in the stack
    y, w, mw, c, F = (v[pid] for v in (y, w, mw, c, F))
    stack, in_z = Z, pid  # Z is the caller's stack or a gather from it; in_z its rows
    limit = np.broadcast_to(np.asarray(max_iters, dtype=np.int64), (B,))
    P = pid.size
    step = np.full(P, 1.0 / (0.25 * loss_weight * n + 1e-12))
    t = np.ones(P)
    kkt = np.full(P, math.inf)
    it = np.zeros(P, dtype=np.int64)
    wy, mwy, cy = w.copy(), mw.copy(), c.copy()
    sgn = np.sign(w)
    # Newton state: due to try at the next iteration, and iterations since
    # the signs last changed
    due = np.zeros(P, dtype=bool)
    settled = np.zeros(P, dtype=np.int64)
    gw = gc = q = None  # gradient parts of the last accepted iterates

    def attempt(sel, from_w, from_mw, from_c):
        """One backtracked proximal step in (w, c) from (from_w, from_c) for
        the live problems ``sel`` (None for all, else ascending positions),
        each with its own step size; the intercept's prox is the identity,
        so it takes a plain gradient step."""
        ys, st, rows = (y, step, in_z) if sel is None else (y[sel], step[sel], in_z[sel])
        my = ys * (from_mw + from_c[:, None])
        gvec = -(ys * expit(-my))
        f_from = loss_weight * np.logaddexp(0.0, -my).sum(axis=1)
        gw = loss_weight * _on_stack(_tmv, Z, rows, gvec)
        gc = loss_weight * gvec.sum(axis=1)
        w_cand, mw_cand = np.empty_like(from_w), np.empty_like(from_mw)
        c_cand, f_cand = np.empty_like(from_c), np.empty_like(f_from)
        todo = slice(None)  # the problems still backtracking
        while True:
            s = st[todo]
            wc = _soft_threshold(from_w[todo] - s[:, None] * gw[todo], s[:, None])
            cc = from_c[todo] - s * gc[todo]
            mwc = _on_stack(_mv, Z, rows[todo], wc)
            d, dc = wc - from_w[todo], cc - from_c[todo]
            fc = _loss(ys[todo], mwc, cc, loss_weight)
            bound = (f_from[todo] + _dot(gw[todo], d) + gc[todo] * dc
                     + (_dot(d, d) + dc * dc) / (2.0 * s))
            ok = fc <= bound + 1e-12 * np.maximum(1.0, np.abs(f_from[todo]))
            if isinstance(todo, slice) and ok.all():
                w_cand, mw_cand, c_cand, f_cand = wc, mwc, cc, fc
                break
            todo = np.arange(st.size)[todo]
            w_cand[todo[ok]], mw_cand[todo[ok]] = wc[ok], mwc[ok]
            c_cand[todo[ok]], f_cand[todo[ok]] = cc[ok], fc[ok]
            todo = todo[~ok]
            if not todo.size:
                break
            st[todo] *= 0.5
            floor = st[todo] < _MIN_STEP
            if floor.any():
                stay = todo[floor]  # no step left: keep the starting point
                w_cand[stay], mw_cand[stay] = from_w[stay], from_mw[stay]
                c_cand[stay], f_cand[stay] = from_c[stay], f_from[stay]
                todo = todo[~floor]
                if not todo.size:
                    break
        if sel is not None:
            step[sel] = st
        return w_cand, mw_cand, c_cand, f_cand + np.abs(w_cand).sum(axis=1)

    def newton(sel):
        """Damped, orthant-projected Newton steps from the accepted iterates
        of the live problems ``sel`` (ascending positions). Returns whether
        each step was accepted and the new ``(w, mw, c, F)`` where it was."""
        ws, cs, Fs, sg, rows = w[sel], c[sel], F[sel], sgn[sel], in_z[sel]
        dw, dc = _newton_directions(Z, rows, np.abs(ws) > support_epsilon, gw[sel], gc[sel], sg,
                                    q[sel], loss_weight)
        ok, mws = np.zeros(sel.size, dtype=bool), np.empty((sel.size, n))
        todo = np.flatnonzero(np.isfinite(dw).all(axis=1) & np.isfinite(dc))
        h = 1.0
        for _ in range(_NEWTON_HALVINGS + 1):
            if not todo.size:
                break
            wc, cc = ws[todo] + h * dw[todo], cs[todo] + h * dc[todo]
            wc[wc * sg[todo] < 0.0] = 0.0
            mwc = _on_stack(_mv, Z, rows[todo], wc)
            Fc = _loss(y[sel[todo]], mwc, cc, loss_weight) + np.abs(wc).sum(axis=1)
            good = Fc <= Fs[todo]
            at = todo[good]
            ok[at] = True
            ws[at], mws[at], cs[at], Fs[at] = wc[good], mwc[good], cc[good], Fc[good]
            todo = todo[~good]
            h *= 0.5
        return ok, ws, mws, cs, Fs

    def finish(done, code):
        """Record the problems ``done`` as stopped by rule ``code``."""
        at = pid[done]
        out_w[at], out_c[at], out_F[at] = w[done], c[done], F[done]
        out_kkt[at], out_it[at], out_stop[at] = kkt[done], it[done], code

    while pid.size:
        took = np.zeros(0, dtype=np.int64)
        if due.any():
            tried = np.flatnonzero(due)
            ok, *cand = newton(tried)
            took = tried[ok]
        # the proximal step runs on the whole stack, which costs less than on
        # the problems between the Newton steps, unless every problem took
        # one; a Newton step replaces its problem's, whose step size the
        # backtracking must not have changed
        if took.size == pid.size:
            w_cand, mw_cand, c_cand, F_cand = cand
        else:
            kept_step = step[took]
            w_cand, mw_cand, c_cand, F_cand = attempt(None, wy, mwy, cy)
            if took.size:
                step[took] = kept_step
                w_cand[took], mw_cand[took], c_cand[took], F_cand[took] = (v[ok] for v in cand)
        slack = 1e-12 * np.maximum(1.0, np.abs(F))
        over = np.flatnonzero(F_cand > F + slack)
        stuck = np.zeros(pid.size, dtype=bool)
        if over.size:
            # momentum overshot: restart from the last accepted point
            t[over] = 1.0
            restarted = attempt(over, w[over], mw[over], c[over])
            w_cand[over], mw_cand[over], c_cand[over], F_cand[over] = restarted
            stuck[over] = F_cand[over] > F[over] + slack[over]  # numerical floor
            finish(stuck, _NO_PROGRESS)
        w_prev, mw_prev, c_prev, sgn_prev = w, mw, c, sgn
        w, mw, c, F = w_cand, mw_cand, c_cand, np.minimum(F_cand, F)
        it = it + 1

        q = expit(-(y * (mw + c[:, None])))
        gvec = -(y * q)
        gw = loss_weight * _on_stack(_tmv, Z, in_z, gvec)
        gc = loss_weight * gvec.sum(axis=1)
        viol = _l1_violation(gw, w, support_epsilon)
        kkt = np.maximum(viol.max(axis=1, initial=0.0), np.abs(gc))
        rule = np.where(kkt <= tol_kkt, _KKT, -1)
        t[took] = 1.0  # a Newton step restarts the momentum
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        wy = w + beta[:, None] * (w - w_prev)
        mwy = mw + beta[:, None] * (mw - mw_prev)
        cy = c + beta * (c - c_prev)
        t = t_next
        step *= 1.1
        sgn = np.sign(w)
        settled = np.where((sgn == sgn_prev).all(axis=1), settled + 1, 0)
        off = np.abs(w) <= support_epsilon
        ready = ((~off).sum(axis=1) < n) & ~(off & (viol > tol_kkt)).any(axis=1)
        due = ready & (settled >= 2)
        due[took] = ready[took]  # after a Newton step, whatever its signs
        rule[(rule < 0) & (it >= limit[pid])] = _MAX_ITERS
        rule[stuck] = _NO_PROGRESS
        live = rule < 0
        if not live.all():
            for code in np.unique(rule[~live & ~stuck]):
                finish(rule == code, code)
            keep = np.flatnonzero(live)
            pid, in_z, y, w, mw, c, F = (v[keep] for v in (pid, in_z, y, w, mw, c, F))
            if 2 * pid.size <= Z.shape[0]:
                # gather the live problems once at most half of Z is live,
                # dropping the old gather first: at most half a stack extra
                Z = None
                Z, in_z = stack[pid], np.arange(pid.size)
            wy, mwy, cy, sgn, gw, gc, q = (v[keep] for v in (wy, mwy, cy, sgn, gw, gc, q))
            t, step, kkt, it = (v[keep] for v in (t, step, kkt, it))
            due, settled = due[keep], settled[keep]
    return out_w, out_c, out_F, out_kkt, out_kkt <= tol_kkt, out_it, out_stop


def _subsample_stats(X, rows):
    """:func:`column_stats` of the B row subsamples ``X[rows[b]]``, from one
    pass over X in column blocks.

    Each block is shifted by its column means; the 0/1 row indicators of the
    subsamples then give every subsample's shifted sums and sums of squares
    as two matrix products, with no copy of the drawn rows. Where a
    column's second moment exceeds its variance ``_CANCEL_RATIO`` times,
    too many digits cancel, and its statistics are recomputed in two passes
    over its drawn rows, so a column constant on the drawn rows still
    counts as constant.
    """
    B, k = rows.shape
    n, m = X.shape
    R = np.zeros((B, n))
    R[np.arange(B)[:, None], rows] = 1.0
    mean, std = np.empty((B, m)), np.empty((B, m))
    cancel = np.empty((B, m), dtype=bool)
    width = max(1, _BATCH_ENTRIES // n)
    for j in range(0, m, width):
        block = X[:, j : j + width]
        shift = block.mean(axis=0)
        D = block - shift
        # the sums go straight into the output blocks (the mean's takes s1,
        # the std's s2) and the rest works row by row, so the temporaries
        # are one row each
        s1, s2 = mean[:, j : j + width], std[:, j : j + width]
        np.matmul(R, D, out=s1)
        s1 /= k
        D *= D
        np.matmul(R, D, out=s2)
        s2 /= k
        for s1_b, s2_b, cancel_b in zip(s1, s2, cancel[:, j : j + width]):
            var = s1_b * s1_b
            np.subtract(s2_b, var, out=var)
            np.greater(s2_b, _CANCEL_RATIO * var, out=cancel_b)
            np.maximum(var, 0.0, out=var)
            np.sqrt(var, out=s2_b)
        s1 += shift
    for b in np.flatnonzero(cancel.any(axis=1)):
        idx = np.flatnonzero(cancel[b])
        mean[b, idx], std[b, idx], _ = column_stats(X[rows[b, :, None], idx])
    keep = cancel  # its rows are spent
    for mean_b, std_b, keep_b in zip(mean, std, keep):
        np.greater(std_b, k * np.finfo(np.float64).eps * np.abs(mean_b), out=keep_b)
    return mean, std, keep


class _ImplicitColumns:
    """Standardized, scaled columns ``Z_b = ((X[rows[b]] - mean_b) / std_b) *
    scale_b`` of B row subsamples of X, built only where needed.

    :meth:`columns` builds chosen columns of one Z_b with the same
    arithmetic as :func:`standardize_columns`. :meth:`gradient` returns
    ``Z_b'g_b`` from ``(scale_b / std_b) * (X'g_b - mean_b * sum(g_b))``
    without forming any Z_b, where g_b is zero on the rows b did not draw;
    constant columns get 0. Rounding in ``X'g`` grows like
    ``eps * n * |mean| / std``, so the few columns whose mean exceeds
    ``_CANCEL_RATIO`` times their std are kept as built columns and
    multiplied directly.
    """

    def __init__(self, X, rows, scale):
        self.X, self.rows, self.scale = X, rows, scale
        self.mean, self.std, self.keep = _subsample_stats(X, rows)
        self.exact = [np.flatnonzero(keep & (np.abs(mean) > _CANCEL_RATIO * std))
                      for mean, std, keep in zip(self.mean, self.std, self.keep)]
        self.Z_exact = [self.columns(b, idx) for b, idx in enumerate(self.exact)]

    def columns(self, b, idx):
        sub = self.X[self.rows[b, :, None], idx]
        return ((sub - self.mean[b, idx]) / self.std[b, idx]) * self.scale[b][idx]

    def gradient(self, live, gvec):
        """``Z_b'g`` for the problems ``live``, one row of ``gvec`` each over
        its drawn rows, from one product with X. The rest works row by row,
        so the only m-long temporaries are one row each."""
        G = np.zeros((live.size, self.X.shape[0]))
        G[np.arange(live.size)[:, None], self.rows[live]] = gvec
        out = G @ self.X
        for row, b, g in zip(out, live, gvec):
            row -= self.mean[b] * g.sum()
            row *= np.divide(self.scale[b], self.std[b], out=np.zeros_like(row), where=self.keep[b])
            row[self.exact[b]] = self.Z_exact[b].T @ g
        return out


def _fit_l1_working_set(X, y, rows, cfg, scale):
    """GLMNET-style outer loop, in lockstep over the B row subsamples
    ``X[rows[b]]`` of X with labels ``y`` (B, k): grow each active
    set from KKT screening.

    Columns are standardized implicitly (:class:`_ImplicitColumns`): the
    full gradients are screened without forming any Z, and only the active
    columns are built. Constant columns get gradient 0, so they never enter
    a set and keep weight exactly 0.

    Each round solves the restricted problems warm-started, their active
    columns padded with zero columns to a common width, then checks the
    full gradients; the worst violators join each set, at most k in the
    first round (an L1 solution in general position has at most k nonzeros)
    and twice as many each round after. A problem finishes when it passes
    the KKT check or its iteration budget runs out. A subsample whose
    labels hold one class is never fitted: not converged, residual inf.
    """
    B, k = y.shape
    lw, tol, eps = cfg.loss_weight, cfg.tol_kkt, cfg.support_epsilon
    cols = _ImplicitColumns(X, rows, scale)
    # log(n_pos / n_neg) is the intercept's optimum at w = 0, so the first
    # screen already sees the gradients of the optimal empty model
    c = np.array([_initial_intercept(v) for v in y])
    iters = np.zeros(B, dtype=np.int64)
    active = [np.zeros(0, dtype=np.int64)] * B
    weights = [np.zeros(0)] * B  # on the active set; the rest are zero
    mw = np.zeros((B, k))
    kkt = np.full(B, math.inf)  # and so it stays for labels of one class, as in _prox_solve
    grow = np.full(B, k)
    live = np.flatnonzero(~(y == y[:, :1]).all(axis=1))
    for _ in range(_MAX_OUTER):
        gvec = -(y[live] * expit(-(y[live] * (mw[live] + c[live, None]))))
        gw = cols.gradient(live, gvec)
        gw *= lw
        gc = lw * gvec.sum(axis=1)
        # off the active sets the weights are zero and the residual is the
        # excess of |gw| over 1, computed in place: the rows are m long
        on_active = [gw[i, active[b]] for i, b in enumerate(live)]
        viol = np.abs(gw, out=gw)
        viol -= 1.0
        np.maximum(viol, 0.0, out=viol)
        for i, b in enumerate(live):
            viol[i, active[b]] = _l1_violation(on_active[i], weights[b], eps)
        kkt[live] = np.maximum(viol.max(axis=1), np.abs(gc))
        going = np.flatnonzero((kkt[live] > tol) & (iters[live] < cfg.max_iters))
        if not going.size:
            break
        for i in going:
            b = live[i]
            viol[i, active[b]] = 0.0
            candidates = np.flatnonzero(viol[i] > tol)
            if candidates.size > grow[b]:
                top = np.argpartition(viol[i, candidates], -grow[b])[-grow[b]:]
                candidates = candidates[top]
            if candidates.size:
                grown = np.union1d(active[b], candidates)
                on_grown = np.zeros(grown.size)
                on_grown[np.searchsorted(grown, active[b])] = weights[b]
                active[b], weights[b] = grown, on_grown
        live = live[going]
        del gw, viol  # one m-long row per problem, not needed by the restricted solve
        grow[live] = np.minimum(2 * grow[live], X.shape[1])  # no screen admits more
        Za = np.zeros((live.size, k, max(active[b].size for b in live)))
        wa = np.zeros((live.size, Za.shape[2]))
        for i, b in enumerate(live):
            Za[i, :, : active[b].size] = cols.columns(b, active[b])
            wa[i, : active[b].size] = weights[b]
        wa, c[live], _, _, _, it_inner, _ = _prox_solve(
            Za, y[live], lw, wa, c[live], np.maximum(cfg.max_iters - iters[live], 1),
            0.5 * tol, eps)
        iters[live] += it_inner
        for i, b in enumerate(live):
            weights[b] = wa[i, : active[b].size]
        mw[live] = _mv(Za, wa)
        del Za  # the next screen needs the rows
    del cols  # its statistics are m-long rows per problem, as is w
    w = np.zeros((B, X.shape[1]))
    for b in range(B):
        w[b, active[b]] = weights[b]
    objective = _loss(y, mw, c, lw) + np.abs(w).sum(axis=1)
    return w, c, objective, kkt, kkt <= tol, iters


def lockstep_batch_size(entries: int) -> int:
    """How many L1 fits share one kernel call when each holds ``entries``
    floats of a batch array (k x q for a stack of averaged matrices, p for a
    fit of row subsamples of X): as many as keep that array within
    ``_BATCH_ENTRIES`` floats, at most ``_MAX_STACK``, at least one. The
    resampling loop sizes its batches by it and hands each batch to the
    solver whole, so a batch is one kernel call."""
    return max(1, min(_MAX_STACK, _BATCH_ENTRIES // max(1, entries)))


def standardize_stack(Z):
    """Standardize each matrix of the stack Z (B, k, m) in place, one at a
    time, and return Z: each matrix becomes its :func:`standardize_columns`
    output with its constant columns kept as zero columns."""
    for z in Z:
        mean, std, keep = column_stats(z)
        z -= mean
        np.divide(z, std, out=z, where=keep)
        z[:, ~keep] = 0.0
    return Z


def _solutions(w, c, objective, kkt, converged, iters):
    return [SolverSolution(w=w[b], c=c[b], objective=objective[b], kkt_residual=kkt[b],
                           converged=bool(converged[b]), n_iters=int(iters[b]))
            for b in range(w.shape[0])]


def fit_l1_standardized(Z, y, config: SolverConfig) -> list[SolverSolution]:
    """L1 fits of the problems ``(Z[b], y[b])`` of a stack made by
    :func:`standardize_stack`, y float64 (B, k), in one kernel call that
    only reads Z."""
    c0 = np.array([_initial_intercept(v) for v in y])
    *fit, _ = _prox_solve(Z, y, config.loss_weight, np.zeros((Z.shape[0], Z.shape[2])), c0,
                          config.max_iters, config.tol_kkt, config.support_epsilon)
    return _solutions(*fit)


def fit_l1_batch(X, y, rows, config: SolverConfig, scale=None) -> list[SolverSolution]:
    """L1 fits of the row subsamples ``(X[rows[b]], y[rows[b]])``, in one
    lockstep kernel call that only reads X and y.

    ``X`` (n, m) and ``y`` (n,) are float64 inputs already checked by the
    :class:`Dataset` rules; ``rows`` (B, k) holds each subsample's sorted row
    indices and ``scale``, if given, each fit's m column multipliers (B
    arrays, or one (B, m) array). Fit b agrees with ``fit_l1_logistic(
    X[rows[b]], y[rows[b]], config, scale[b])`` to the solver tolerance, at
    any column count (see the module docstring).
    """
    scale = [np.ones(X.shape[1])] * rows.shape[0] if scale is None else scale
    return _solutions(*_fit_l1_working_set(X, y[rows], rows, config, scale))


def fit_l1_logistic(X, y, config: SolverConfig, column_scale=None) -> SolverSolution:
    """Fit the L1-penalized logistic model.

    Parameters
    ----------
    X : ndarray of shape (n, m)
        Sample matrix; standardized implicitly: only the columns that enter
        the working set are ever materialized.
    y : ndarray of shape (n,)
        Labels in {+1, -1}.
    config : SolverConfig
        Loss weight and stopping tolerances.
    column_scale : ndarray of shape (m,), optional
        Positive per-column multipliers applied after standardization.
        Scaling a column by u < 1 penalizes it more heavily, which is how the
        randomized reweighting baseline perturbs the penalty.

    Returns
    -------
    SolverSolution
        Weights in the standardized basis (constant columns get exactly 0),
        intercept, objective value, optimality residual, and a convergence
        flag; non-convergence returns the best iterate flagged, it does not
        raise. Labels of one class have no finite intercept: the fit
        returns zero weights, not converged, with residual inf.
    """
    X, y = _validate_problem(X, y)
    m = X.shape[1]
    if column_scale is not None:
        column_scale = np.asarray(column_scale, dtype=np.float64)
        if column_scale.shape != (m,):
            raise ValueError(f"column_scale must have shape ({m},)")
        if not np.isfinite(column_scale).all() or (column_scale <= 0).any():
            raise ValueError("column_scale entries must be positive and finite")
        column_scale = column_scale[None]
    return fit_l1_batch(X, y, np.arange(X.shape[0])[None], config, column_scale)[0]


def fit_l2_logistic(X, y, lambda_ridge) -> SolverSolution:
    """Fit ridge-penalized logistic regression (intercept unpenalized).

    Minimizes ``L(w, c) + lambda_ridge/2 ||w||^2`` on standardized columns Z
    by damped Newton in the row space of Z (Hastie & Tibshirani, Biostatistics
    2004): with the thin SVD ``Z = U S V'`` the minimizer is ``w = V b``, so
    Newton runs on b and the intercept, at most n + 1 coordinates. Stops when
    ``Z'g + lambda_ridge * w`` and the intercept gradient fall to 1e-6.
    Constant columns get weight exactly 0. Labels of one class are not
    fitted: zero weights, not converged, residual inf.
    """
    X, y = _validate_problem(X, y)
    Z, _, _, keep = standardize_columns(X)
    sol = fit_l2_standardized(Z, y, lambda_ridge)
    w = np.zeros(X.shape[1])
    w[keep] = sol.w
    return replace(sol, w=w)


def fit_l2_standardized(Z, y, lambda_ridge) -> SolverSolution:
    """:func:`fit_l2_logistic` on columns Z already standardized, y float64
    in {+1, -1}; the weights are over the columns of Z."""
    lam = float(lambda_ridge)
    if not (lam >= 0 and math.isfinite(lam)):
        raise ValueError("lambda_ridge must be non-negative and finite")
    if (y == y[0]).all():  # no finite intercept fits one class, as in _prox_solve
        return SolverSolution(w=np.zeros(Z.shape[1]), c=0.0, objective=y.size * math.log(2.0),
                              kkt_residual=math.inf, converged=False, n_iters=0)
    # Z' = V S U'; Z' reaches LAPACK without a copy, half the time at 100 x 27884
    V, sv, Ut = np.linalg.svd(Z.T, full_matrices=False)
    r = int((sv > sv.max(initial=0.0) * max(Z.shape) * np.finfo(np.float64).eps).sum())
    A = np.column_stack([Ut[:r].T * sv[:r], np.ones(y.size)])  # margins y * A @ (b, c)
    ridge = np.r_[np.full(r, lam), 0.0]

    def objective(theta):
        return float(np.logaddexp(0.0, -(y * (A @ theta))).sum() + 0.5 * (ridge * theta) @ theta)

    theta = np.r_[np.zeros(r), _initial_intercept(y)]
    f = objective(theta)
    for iters in range(_L2_MAX_ITERS + 1):
        w_kept = V[:, :r] @ theta[:r]
        s = expit(-(y * (A @ theta)))
        gvec = -(y * s)
        kkt = max(float(np.abs(Z.T @ gvec + lam * w_kept).max(initial=0.0)),
                  abs(float(gvec.sum())))
        if kkt <= _L2_TOL_KKT or iters == _L2_MAX_ITERS:
            break
        grad = A.T @ gvec + ridge * theta
        try:
            d = -np.linalg.solve((A.T * (s * (1.0 - s))) @ A + np.diag(ridge), grad)
        except np.linalg.LinAlgError:
            break
        # Armijo backtracking; the slack admits decreases below the rounding
        # of f, which is all that is left near the optimum of a huge ridge
        step, slack = 1.0, 1e-12 * max(1.0, abs(f))
        while (objective(theta + step * d) > f + 1e-4 * step * float(grad @ d) + slack
               and step > _MIN_STEP):
            step *= 0.5
        theta = theta + step * d
        f = objective(theta)
    return SolverSolution(w=w_kept, c=float(theta[r]), objective=f, kkt_residual=kkt,
                          converged=kkt <= _L2_TOL_KKT, n_iters=iters)
