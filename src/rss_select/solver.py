"""L1- and L2-penalized logistic regression solvers.

The L1 objective is ``||w||_1 + loss_weight * sum_i log(1 + exp(-y_i (x_i'w + c)))``
with an unpenalized intercept; the weight sits on the loss, so small values
force sparser solutions. Fitting runs accelerated proximal gradient descent
with backtracking line search and a monotone restart rule, plus a dedicated
Newton refresh for the intercept each iteration. Columns are standardized
internally (zero mean, unit population variance) and weights are reported in
the standardized basis; constant columns get weight exactly zero.

For wide problems the L1 path switches to a working-set strategy: solve on a
small active set, then screen the full gradient for violators until the
optimality conditions hold over all columns. Wide fits standardize
implicitly: the screen folds mean, std and column scale into one product
with X, and only the active columns are ever standardized, so the weights
are still reported in the standardized basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import SolverSolution

# above this column count fit_l1_logistic screens columns instead of
# running proximal gradient on the full matrix
_WORKING_SET_MIN_COLS = 1024
# a wide column whose |mean| exceeds this many stds is screened from its
# built standardized copy instead of implicitly (see _ImplicitColumns)
_CANCEL_RATIO = 1e4
_MAX_OUTER = 100
_MIN_STEP = 1e-18
_STALL_LIMIT = 10


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the L1 logistic fit.

    Parameters
    ----------
    loss_weight : float
        Positive weight on the logistic loss relative to the L1 penalty.
    max_iters : int
        Cap on accepted proximal iterations (summed over subproblems on the
        working-set path).
    tol_objective : float
        Relative objective-change floor; this many decimal digits of stall for
        several consecutive iterations stops the solve early.
    tol_kkt : float
        Convergence threshold on the first-order optimality residual.
    support_epsilon : float
        Weights with absolute value at or below this count as zero when
        reading off the support.
    """

    loss_weight: float
    max_iters: int = 10000
    tol_objective: float = 1e-14
    tol_kkt: float = 1e-6
    support_epsilon: float = 1e-8

    def __post_init__(self):
        if not (self.loss_weight > 0 and math.isfinite(self.loss_weight)):
            raise ValueError("loss_weight must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.tol_kkt <= 0 or self.support_epsilon < 0 or self.tol_objective < 0:
            raise ValueError("tolerances must be non-negative (tol_kkt positive)")


def standardize_columns(X: np.ndarray):
    """Standardize columns to zero mean and unit population variance.

    Returns ``(Z, mean, std, keep)`` where ``keep`` masks the non-constant
    columns and ``Z`` holds only those, transformed. ``mean`` and ``std`` have
    full length and describe the original columns. Already-standardized input
    passes through unchanged up to floating point.
    """
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)  # ddof=0 keeps each kept column's squared norm at n
    keep = std > 0.0
    Z = (X[:, keep] - mean[keep]) / std[keep]
    return Z, mean, std, keep


def apply_standardization(X: np.ndarray, mean, std, keep) -> np.ndarray:
    """Transform new rows with statistics from :func:`standardize_columns`."""
    X = np.asarray(X, dtype=np.float64)
    return (X[:, keep] - mean[keep]) / std[keep]


def logistic_loss_and_grad(X, y, w, c):
    """Logistic loss ``sum_i log(1 + exp(-y_i (x_i'w + c)))`` and its gradient.

    Stable for margins up to 1e4 in magnitude; returns
    ``(loss, grad_w, grad_c)``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    margins = y * (X @ w + c)
    loss = float(np.logaddexp(0.0, -margins).sum())
    gvec = -(y * expit(-margins))
    return loss, X.T @ gvec, float(gvec.sum())


def _validate_problem(X, y):
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError(f"X must be a non-empty 2-D matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X contains NaN or Inf entries")
    y = np.asarray(y)
    if y.shape != (X.shape[0],):
        raise ValueError(f"y must have shape ({X.shape[0]},), got {y.shape}")
    y = y.astype(np.float64)
    if not np.isin(y, (-1.0, 1.0)).all():
        raise ValueError("labels must all be +1 or -1")
    return X, y


def _initial_intercept(y):
    n_pos = int((y > 0).sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.0
    return math.log(n_pos / n_neg)


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


def _newton_intercept(base, y, loss_weight, c, steps=2):
    """Damped Newton steps on the intercept with the weights held fixed.

    ``base`` are the margins without the intercept term. Returns the new
    intercept and the weighted loss there. Never increases the loss.
    """

    def phi(cc):
        return loss_weight * float(np.logaddexp(0.0, -(y * (base + cc))).sum())

    f0 = phi(c)
    for _ in range(steps):
        s = expit(-(y * (base + c)))
        g = -loss_weight * float((y * s).sum())
        if abs(g) < 1e-18:
            break
        h = loss_weight * float((s * (1.0 - s)).sum())
        d = -g / max(h, 1e-12)
        d = min(max(d, -20.0), 20.0)
        f1 = phi(c + d)
        halvings = 0
        while f1 > f0 and halvings < 30:
            d *= 0.5
            f1 = phi(c + d)
            halvings += 1
        if f1 > f0:
            break
        c += d
        f0 = f1
    return c, f0


def _prox_solve(Z, y, loss_weight, l1, ridge, w0, c0, max_iters, tol_kkt,
                tol_objective, support_epsilon):
    """Accelerated proximal gradient on standardized columns.

    Minimizes ``loss_weight * L(w, c) + ridge/2 ||w||^2 + [l1] ||w||_1`` with
    the intercept refreshed by its own Newton step every iteration. Momentum
    restarts whenever the accepted objective would increase, so the recorded
    objective history is non-increasing.

    Returns ``(w, c, objective, kkt, converged, iters, history)``.
    """
    n = y.size
    m = Z.shape[1]
    w = np.asarray(w0, dtype=np.float64).copy()
    c = float(c0)
    mw = Z @ w if m else np.zeros(n)

    def smooth(margins, wvec):
        val = loss_weight * float(np.logaddexp(0.0, -margins).sum())
        if ridge:
            val += 0.5 * ridge * float(wvec @ wvec)
        return val

    def full_obj(margins, wvec):
        val = smooth(margins, wvec)
        if l1:
            val += float(np.abs(wvec).sum())
        return val

    step = 1.0 / (0.25 * loss_weight * n + ridge + 1e-12)

    def attempt(from_w, from_mw):
        nonlocal step
        my = y * (from_mw + c)
        s = expit(-my)
        gvec = -(y * s)
        f_from = smooth(my, from_w)
        gw = loss_weight * (Z.T @ gvec)
        if ridge:
            gw = gw + ridge * from_w
        while True:
            if l1:
                w_cand = _soft_threshold(from_w - step * gw, step)
            else:
                w_cand = from_w - step * gw
            mw_cand = Z @ w_cand if m else from_mw
            d = w_cand - from_w
            f_cand = smooth(y * (mw_cand + c), w_cand)
            bound = f_from + float(gw @ d) + float(d @ d) / (2.0 * step)
            if f_cand <= bound + 1e-12 * max(1.0, abs(f_from)):
                break
            step *= 0.5
            if step < _MIN_STEP:
                w_cand = from_w.copy()
                mw_cand = from_mw
                break
        c_cand, floss = _newton_intercept(mw_cand, y, loss_weight, c)
        F_cand = floss
        if ridge:
            F_cand += 0.5 * ridge * float(w_cand @ w_cand)
        if l1:
            F_cand += float(np.abs(w_cand).sum())
        return w_cand, mw_cand, c_cand, F_cand

    F = full_obj(y * (mw + c), w)
    history = [F]
    t = 1.0
    wy, mwy = w.copy(), mw.copy()
    kkt = math.inf
    converged = False
    stall = 0
    it = 0
    while it < max_iters:
        w_cand, mw_cand, c_cand, F_cand = attempt(wy, mwy)
        slack = 1e-12 * max(1.0, abs(F))
        if F_cand > F + slack:
            # momentum overshot: restart from the last accepted point
            t = 1.0
            w_cand, mw_cand, c_cand, F_cand = attempt(w, mw)
            if F_cand > F + slack:
                break  # numerical floor, cannot make progress
        w_prev, mw_prev = w, mw
        w, mw, c, F = w_cand, mw_cand, c_cand, min(F_cand, F)
        history.append(F)
        it += 1

        margins = y * (mw + c)
        gvec = -(y * expit(-margins))
        gw = loss_weight * (Z.T @ gvec)
        if ridge:
            gw = gw + ridge * w
        gc = loss_weight * float(gvec.sum())
        if m:
            if l1:
                kkt = float(_l1_violation(gw, w, support_epsilon).max())
            else:
                kkt = float(np.abs(gw).max())
            kkt = max(kkt, abs(gc))
        else:
            kkt = abs(gc)
        if kkt <= tol_kkt:
            converged = True
            break

        if abs(history[-2] - F) <= tol_objective * max(1.0, abs(F)):
            stall += 1
            if stall >= _STALL_LIMIT:
                break
        else:
            stall = 0

        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        wy = w + beta * (w - w_prev)
        mwy = mw + beta * (mw - mw_prev)
        t = t_next
        step *= 1.1
    return w, c, F, kkt, converged, it, history


class _ImplicitColumns:
    """Standardized, scaled columns ``Z = ((X - mean) / std) * scale`` of a
    wide X, built only where they are needed.

    :meth:`columns` builds chosen columns of Z with the same arithmetic as
    :func:`standardize_columns`. :meth:`gradient` returns ``Z'g`` from
    ``(scale / std) * (X'g - mean * sum(g))`` without forming Z; constant
    columns get 0. Rounding in ``X'g`` grows like ``eps * n * |mean| / std``,
    so the few columns whose mean exceeds ``_CANCEL_RATIO`` times their std
    (a constant column whose std rounds to a tiny positive value among
    them) are kept as built columns and multiplied directly.
    """

    def __init__(self, X, scale):
        self.X = X
        self.scale = scale
        self.mean = X.mean(axis=0)
        self.std = X.std(axis=0)
        keep = self.std > 0.0
        self.gain = np.zeros(X.shape[1])
        self.gain[keep] = scale[keep] / self.std[keep]
        self.exact = np.flatnonzero(keep & (np.abs(self.mean) > _CANCEL_RATIO * self.std))
        self.Z_exact = self.columns(self.exact)

    def columns(self, idx):
        return ((self.X[:, idx] - self.mean[idx]) / self.std[idx]) * self.scale[idx]

    def gradient(self, gvec):
        out = self.gain * (self.X.T @ gvec - self.mean * float(gvec.sum()))
        out[self.exact] = self.Z_exact.T @ gvec
        return out


def _fit_l1_working_set(X, y, cfg, scale):
    """GLMNET-style outer loop: grow an active set from KKT screening.

    Columns are standardized implicitly (:class:`_ImplicitColumns`): the
    full gradient is screened without forming Z, and only the active columns
    are built. Constant columns get gradient 0, so they never enter the set
    and keep weight exactly 0.

    Each round solves the restricted problem warm-started, then checks the
    full gradient; the worst violators join the set, at most n in the first
    round (an L1 solution in general position has at most n nonzeros) and
    twice as many each round after. Terminates when the full problem passes
    the KKT check or the iteration budget runs out.
    """
    n, m = X.shape
    Z = _ImplicitColumns(X, scale)
    w = np.zeros(m)
    c = _initial_intercept(y)
    # settle the intercept first so screening sees meaningful gradients
    _, c, _, _, _, it0, _ = _prox_solve(
        np.zeros((n, 0)), y, cfg.loss_weight, True, 0.0, np.zeros(0), c,
        cfg.max_iters, cfg.tol_kkt, cfg.tol_objective, cfg.support_epsilon)
    iters_total = it0
    active = np.zeros(0, dtype=np.int64)
    mw = np.zeros(n)
    kkt = math.inf
    converged = False
    batch = n
    for _ in range(_MAX_OUTER):
        margins = y * (mw + c)
        gvec = -(y * expit(-margins))
        gw = cfg.loss_weight * Z.gradient(gvec)
        gc = cfg.loss_weight * float(gvec.sum())
        viol = _l1_violation(gw, w, cfg.support_epsilon)
        kkt = max(float(viol.max()), abs(gc))
        if kkt <= cfg.tol_kkt:
            converged = True
            break
        if iters_total >= cfg.max_iters:
            break
        outside = viol.copy()
        outside[active] = 0.0
        candidates = np.flatnonzero(outside > cfg.tol_kkt)
        if candidates.size > batch:
            top = np.argpartition(outside[candidates], -batch)[-batch:]
            candidates = candidates[top]
        batch *= 2
        if candidates.size:
            active = np.union1d(active, candidates)
        Za = Z.columns(active)
        wa, c, _, _, _, it_inner, _ = _prox_solve(
            Za, y, cfg.loss_weight, True, 0.0, w[active], c,
            max(cfg.max_iters - iters_total, 1), 0.5 * cfg.tol_kkt,
            cfg.tol_objective, cfg.support_epsilon)
        iters_total += it_inner
        w[:] = 0.0
        w[active] = wa
        mw = Za @ wa
    objective = cfg.loss_weight * float(np.logaddexp(0.0, -(y * (mw + c))).sum())
    objective += float(np.abs(w).sum())
    return w, c, objective, kkt, converged, iters_total


def fit_l1_logistic(X, y, config: SolverConfig, column_scale=None) -> SolverSolution:
    """Fit the L1-penalized logistic model.

    Parameters
    ----------
    X : ndarray of shape (n, m)
        Sample matrix; standardized internally. Wide matrices (at least
        1024 columns) are standardized implicitly: only the columns that
        enter the working set are ever materialized.
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
        Weights in the standardized basis on both paths (constant columns
        get exactly 0), intercept, objective value, optimality residual, and
        a convergence flag; non-convergence returns the best iterate flagged,
        it does not raise.
    """
    X, y = _validate_problem(X, y)
    m = X.shape[1]
    if column_scale is not None:
        column_scale = np.asarray(column_scale, dtype=np.float64)
        if column_scale.shape != (m,):
            raise ValueError(f"column_scale must have shape ({m},)")
        if not np.isfinite(column_scale).all() or (column_scale <= 0).any():
            raise ValueError("column_scale entries must be positive and finite")
    if m >= _WORKING_SET_MIN_COLS:
        scale = np.ones(m) if column_scale is None else column_scale
        w, c, obj, kkt, conv, iters = _fit_l1_working_set(X, y, config, scale)
        return SolverSolution(w=w, c=c, objective=obj, kkt_residual=kkt,
                              converged=conv, n_iters=iters)
    Z, _, _, keep = standardize_columns(X)
    if column_scale is not None:
        Z = Z * column_scale[keep]
    w_kept, c, obj, kkt, conv, iters, _ = _prox_solve(
        Z, y, config.loss_weight, True, 0.0, np.zeros(Z.shape[1]),
        _initial_intercept(y), config.max_iters, config.tol_kkt,
        config.tol_objective, config.support_epsilon)
    w = np.zeros(m)
    w[keep] = w_kept
    return SolverSolution(w=w, c=c, objective=obj, kkt_residual=kkt,
                          converged=conv, n_iters=iters)


def fit_l2_logistic(X, y, lambda_ridge, max_iters=10000, tol_kkt=1e-6) -> SolverSolution:
    """Fit ridge-penalized logistic regression (intercept unpenalized).

    Minimizes ``L(w, c) + lambda_ridge/2 ||w||^2`` on standardized columns and
    stops when the gradient infinity-norm falls below ``tol_kkt``.
    """
    X, y = _validate_problem(X, y)
    if not (lambda_ridge >= 0 and math.isfinite(lambda_ridge)):
        raise ValueError("lambda_ridge must be non-negative and finite")
    Z, _, _, keep = standardize_columns(X)
    m = Z.shape[1]
    w_kept, c, obj, kkt, conv, iters, _ = _prox_solve(
        Z, y, 1.0, False, float(lambda_ridge), np.zeros(m), _initial_intercept(y),
        max_iters, tol_kkt, 1e-14, 0.0)
    w = np.zeros(X.shape[1])
    w[keep] = w_kept
    return SolverSolution(w=w, c=c, objective=obj, kkt_residual=kkt,
                          converged=conv, n_iters=iters)
