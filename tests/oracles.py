"""Independent reference implementations used by the tests.

Everything here is deliberately dumb and slow: dense grid scans, exhaustive
enumeration, plain python set arithmetic, and finite differences. It takes
one function from the package under test, the solver's logistic ``expit``:
the replays of the L1 kernel are compared with it bit for bit, and numpy's
exp rounds differently from scipy's. The logistic itself is checked against
scipy's in the solver tests. Everything else is independent, so a passing
comparison means two unrelated code paths agree.
"""

import itertools
import math

import numpy as np

from rss_select.solver import expit


def logistic_objective(Z, y, loss_weight, w, c, l1=True, ridge=0.0):
    """Direct evaluation of the penalized logistic objective."""
    margins = y * (Z @ w + c)
    loss = loss_weight * float(np.logaddexp(0.0, -margins).sum())
    pen = float(np.abs(w).sum()) if l1 else 0.5 * ridge * float(w @ w)
    return pen + loss


def _scan_coordinate(f, x0, span, resolution, include_zero):
    """Minimize f over one coordinate by a zooming 41-point grid scan.

    The bracket doubles outward while the minimum sits on an edge, then
    shrinks around the best point until it is narrower than `resolution`.
    """
    lo, hi = x0 - span, x0 + span
    best_x, best_f = x0, f(x0)
    for _ in range(200):
        xs = list(np.linspace(lo, hi, 41))
        if include_zero and lo < 0.0 < hi:
            xs.append(0.0)
        for x in xs:
            fx = f(x)
            if fx < best_f:
                best_x, best_f = x, fx
        width = hi - lo
        if best_x <= lo + 1e-12 * max(1.0, abs(lo)):
            lo, hi = lo - 2.0 * width, lo + 0.25 * width
        elif best_x >= hi - 1e-12 * max(1.0, abs(hi)):
            lo, hi = hi - 0.25 * width, hi + 2.0 * width
        else:
            step = width / 40.0
            lo, hi = best_x - step, best_x + step
            if width <= resolution:
                break
    return best_x, best_f


def l1_grid_minimize(Z, y, loss_weight, span=20.0, resolution=1e-7, max_cycles=400):
    """Global minimum of ||w||_1 + loss_weight * logistic loss by coordinate scans.

    Cyclic exact-ish coordinate minimization converges on this convex
    objective because the non-smooth part is separable. Each coordinate is
    minimized by a dense zooming grid; w coordinates always test 0 exactly.
    Returns (w, c, objective).
    """
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = Z.shape[1]
    w = np.zeros(m)
    c = 0.0
    f_prev = logistic_objective(Z, y, loss_weight, w, c)
    stall = 0
    for _ in range(max_cycles):
        def fc(x):
            return logistic_objective(Z, y, loss_weight, w, x)

        c, _ = _scan_coordinate(fc, c, span, resolution, include_zero=False)
        for j in range(m):
            def fj(x, j=j):
                old = w[j]
                w[j] = x
                val = logistic_objective(Z, y, loss_weight, w, c)
                w[j] = old
                return val

            w[j], _ = _scan_coordinate(fj, w[j], span, resolution, include_zero=True)
        f_now = logistic_objective(Z, y, loss_weight, w, c)
        if f_prev - f_now <= 1e-14 * max(1.0, abs(f_now)):
            stall += 1
            if stall >= 2:
                break
        else:
            stall = 0
        f_prev = f_now
    return w, c, f_now


def l1_dense_grid_1d(x_col, y, loss_weight, span=20.0, resolution=1e-5):
    """Literal dense 1-D grid search for |w| + loss_weight * loss, c fixed at 0."""
    n_pts = int(round(2 * span / resolution)) + 1
    grid = np.linspace(-span, span, n_pts)
    total = np.abs(grid)
    for xi, yi in zip(np.asarray(x_col, dtype=float), np.asarray(y, dtype=float)):
        total = total + loss_weight * np.logaddexp(0.0, -yi * xi * grid)
    return float(grid[np.argmin(total)])


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


def _soft_threshold_reference(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _l1_violation_reference(gw, w, eps):
    at_zero = np.abs(w) <= eps
    return np.where(at_zero, np.maximum(np.abs(gw) - 1.0, 0.0), np.abs(gw + np.sign(w)))


def prox_solve_reference(Z, y, loss_weight, w0, c0, max_iters, tol_kkt, support_epsilon,
                         steps=None):
    """The package's lockstep L1 kernel as a plain single-problem loop:
    accelerated proximal gradient on standardized columns, with a Newton
    finish.

    Minimizes ``loss_weight * L(w, c) + ||w||_1``. The intercept is one more
    coordinate of the proximal step: unpenalized, so its prox is the
    identity and it takes a plain gradient step, with the weights' step
    size, backtracking and momentum. Momentum restarts whenever the
    accepted objective would increase, so the accepted objective never
    increases.

    Once the signs of w have held for two iterations and every zero weight
    has ``|g_j| <= 1 + tol_kkt``, the next iteration tries a Newton step on
    the support S (|S| < n) and the intercept, for the smooth objective the
    signs give, its Hessian's diagonal raised by 1e-8 of its largest entry
    and the system padded with identity rows and columns to a multiple of
    8. Each trial point sets to 0 the weights whose sign it would reverse;
    the full step is halved up to four times while the objective of that
    point would rise. A step that does not raise the objective is taken and
    restarts the momentum, and the next iteration tries again if the zero
    weights still meet the condition above. A failed try is followed by the
    proximal step. Labels of one class have no finite intercept: no
    iteration, residual inf.

    Returns ``(w, c, objective, kkt, converged, iters)``. A list given as
    ``steps`` gets ``(kind, objective before, objective after, weights
    before, weights after)`` for each iteration, kind "newton" or "prox".
    """
    n, a = Z.shape
    w = np.asarray(w0, dtype=np.float64).copy()
    c = float(c0)
    mw = Z @ w

    def loss(margins):
        return loss_weight * float(np.logaddexp(0.0, -margins).sum())

    F = loss(y * (mw + c)) + float(np.abs(w).sum())
    if (y == y[0]).all():
        return w, c, F, math.inf, False, 0
    step = 1.0 / (0.25 * loss_weight * n + 1e-12)

    def attempt(from_w, from_mw, from_c):
        nonlocal step
        my = y * (from_mw + from_c)
        gvec = -(y * expit(-my))
        f_from = loss(my)
        gw = loss_weight * (Z.T @ gvec)
        gc = loss_weight * float(gvec.sum())
        while True:
            w_cand = _soft_threshold_reference(from_w - step * gw, step)
            c_cand = from_c - step * gc
            mw_cand = Z @ w_cand
            d, dc = w_cand - from_w, c_cand - from_c
            f_cand = loss(y * (mw_cand + c_cand))
            bound = f_from + float(gw @ d) + gc * dc + (float(d @ d) + dc * dc) / (2.0 * step)
            if f_cand <= bound + 1e-12 * max(1.0, abs(f_from)):
                break
            step *= 0.5
            if step < 1e-18:
                w_cand, mw_cand, c_cand, f_cand = from_w.copy(), from_mw, from_c, f_from
                break
        return w_cand, mw_cand, c_cand, f_cand + float(np.abs(w_cand).sum())

    def newton():
        # the Newton system of the smooth objective in the intercept and S,
        # padded with identity rows and columns to a multiple of 8
        S = np.flatnonzero(np.abs(w) > support_epsilon)
        s = S.size
        W = 8 * -(-(s + 1) // 8)
        A = np.zeros((n, W))
        A[:, 0] = 1.0
        A[:, 1 : s + 1] = Z[:, S]
        D = loss_weight * (q * (1.0 - q))
        H = A.T @ (A * D[:, None])
        diag = H.reshape(-1)[:: W + 1]
        diag += 1e-8 * diag.max()
        diag[s + 1 :] = 1.0
        r = np.zeros((W, 1))
        r[0, 0] = -gc
        r[1 : s + 1, 0] = -(gw[S] + sgn[S])
        try:
            d = np.linalg.solve(H, r)[:, 0]
        except np.linalg.LinAlgError:
            return None
        dw = np.zeros(a)
        dw[S] = d[1 : s + 1]
        dc = d[0]
        if not (np.isfinite(dw).all() and np.isfinite(dc)):
            return None
        h = 1.0
        for _ in range(5):
            w_new, c_new = w + h * dw, c + h * dc
            w_new[w_new * sgn < 0.0] = 0.0  # a weight crossing zero stops at zero
            mw_new = Z @ w_new
            F_new = loss(y * (mw_new + c_new)) + float(np.abs(w_new).sum())
            if F_new <= F:
                return w_new, mw_new, c_new, F_new
            h *= 0.5
        return None

    t = 1.0
    wy, mwy, cy = w.copy(), mw.copy(), c
    sgn = np.sign(w)
    due, settled = False, 0
    kkt = math.inf
    it = 0
    while it < max_iters:
        took = due and (found := newton()) is not None
        if took:
            w_cand, mw_cand, c_cand, F_cand = found
        else:
            w_cand, mw_cand, c_cand, F_cand = attempt(wy, mwy, cy)
            slack = 1e-12 * max(1.0, abs(F))
            if F_cand > F + slack:
                # momentum overshot: restart from the last accepted point
                t = 1.0
                w_cand, mw_cand, c_cand, F_cand = attempt(w, mw, c)
                if F_cand > F + slack:
                    break  # numerical floor, cannot make progress
        w_prev, mw_prev, c_prev, F_prev, sgn_prev = w, mw, c, F, sgn
        w, mw, c, F = w_cand, mw_cand, c_cand, min(F_cand, F)
        it += 1
        if steps is not None:
            steps.append(("newton" if took else "prox", F_prev, F, w_prev, w))

        q = expit(-(y * (mw + c)))
        gvec = -(y * q)
        gw = loss_weight * (Z.T @ gvec)
        gc = loss_weight * float(gvec.sum())
        viol = _l1_violation_reference(gw, w, support_epsilon)
        kkt = max(float(viol.max(initial=0.0)), abs(gc))
        if kkt <= tol_kkt:
            break

        if took:
            t = 1.0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        wy = w + beta * (w - w_prev)
        mwy = mw + beta * (mw - mw_prev)
        cy = c + beta * (c - c_prev)
        t = t_next
        step *= 1.1
        sgn = np.sign(w)
        settled = settled + 1 if (sgn == sgn_prev).all() else 0
        off = np.abs(w) <= support_epsilon
        due = ((settled >= 2 or took) and (~off).sum() < n
               and not (off & (viol > tol_kkt)).any())
    return w, c, F, kkt, kkt <= tol_kkt, it


def fit_l1_working_set_reference(X, y, loss_weight, column_scale, max_iters, tol_kkt,
                                 support_epsilon):
    """The wide L1 fit as first shipped: build the whole standardized, scaled
    matrix Z, then grow a working set from KKT screening of ``Z'g``, adding at
    most 512 violators per round, each restricted problem solved by
    :func:`prox_solve_reference`, until the KKT residual is at most
    ``tol_kkt`` or ``max_iters`` iterations are spent over all rounds.
    Returns ``(w, c, objective, kkt, converged, iters)`` with ``w`` over all
    columns of X.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    keep = std > 0.0
    Z = (X[:, keep] - mean[keep]) / std[keep]
    if column_scale is not None:
        Z = Z * np.asarray(column_scale, dtype=np.float64)[keep]

    n_pos = int((y > 0).sum())
    n_neg = y.size - n_pos
    c = math.log(n_pos / n_neg) if n_pos and n_neg else 0.0
    n, m = Z.shape
    w = np.zeros(m)
    _, c, _, _, _, it0 = prox_solve_reference(
        Z[:, :0], y, loss_weight, np.zeros(0), c, max_iters, tol_kkt, support_epsilon)
    iters_total = it0
    active = np.zeros(0, dtype=np.int64)
    mw = np.zeros(n)
    kkt = math.inf
    converged = False
    for _ in range(100):
        margins = y * (mw + c)
        gvec = -(y * expit(-margins))
        gw = loss_weight * (Z.T @ gvec)
        gc = loss_weight * float(gvec.sum())
        viol = _l1_violation_reference(gw, w, support_epsilon)
        kkt = max(float(viol.max()), abs(gc))
        if kkt <= tol_kkt:
            converged = True
            break
        if iters_total >= max_iters:
            break
        outside = viol.copy()
        outside[active] = 0.0
        candidates = np.flatnonzero(outside > tol_kkt)
        if candidates.size > 512:
            top = np.argpartition(outside[candidates], -512)[-512:]
            candidates = candidates[top]
        if candidates.size:
            active = np.union1d(active, candidates)
        wa, c, _, _, _, it_inner = prox_solve_reference(
            Z[:, active], y, loss_weight, w[active], c,
            max(max_iters - iters_total, 1), 0.5 * tol_kkt, support_epsilon)
        iters_total += it_inner
        w[:] = 0.0
        w[active] = wa
        mw = Z[:, active] @ wa
    objective = loss_weight * float(np.logaddexp(0.0, -(y * (mw + c))).sum())
    objective += float(np.abs(w).sum())
    w_full = np.zeros(X.shape[1])
    w_full[keep] = w
    return w_full, c, objective, kkt, converged, iters_total


def central_difference_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def l2_gd_minimize(Z, y, lambda_ridge, max_iters=200000, tol=1e-10):
    """Plain gradient descent on the smooth ridge logistic objective.

    The analytic gradient is checked against central differences at a random
    point before the descent starts, so a bug here cannot silently agree
    with the same bug in the solver under test.
    """
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, m = Z.shape

    def value(theta):
        w, c = theta[:m], theta[m]
        return logistic_objective(Z, y, 1.0, w, c, l1=False, ridge=lambda_ridge)

    def grad(theta):
        w, c = theta[:m], theta[m]
        margins = y * (Z @ w + c)
        s = -y / (1.0 + np.exp(margins))
        return np.concatenate([Z.T @ s + lambda_ridge * w, [s.sum()]])

    rng = np.random.default_rng(0)
    probe = rng.normal(size=m + 1)
    fd = central_difference_gradient(value, probe)
    an = grad(probe)
    assert np.allclose(an, fd, rtol=1e-5, atol=1e-7), "oracle gradient is wrong"

    theta = np.zeros(m + 1)
    step = 1.0 / (0.25 * n * (1.0 + float((Z ** 2).sum(axis=1).max())) + lambda_ridge)
    f = value(theta)
    for _ in range(max_iters):
        g = grad(theta)
        if np.abs(g).max() <= tol:
            break
        t = step * 4.0
        while True:
            cand = theta - t * g
            fc = value(cand)
            if fc <= f - 0.5 * t * float(g @ g) or t < 1e-18:
                break
            t *= 0.5
        theta, f = cand, fc
    return theta[:m], float(theta[m])


def l2_bfgs_minimize(Z, y, lambda_ridge):
    """Independent ridge logistic minimizer via scipy's BFGS.

    Faster than the tiny-step descent above on ill-conditioned instances.
    The analytic gradient is checked first, one term at a time: the
    logistic loss against central differences, and the ridge term against
    central differences of the ridge term alone. Each check is then relative
    to its own term's scale; on the sum, a ridge of 1e5 or more makes the
    rounding of the objective swamp the intercept's difference quotient.
    """
    from scipy.optimize import minimize

    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = Z.shape[1]

    def loss(theta):
        return logistic_objective(Z, y, 1.0, theta[:m], theta[m], l1=False, ridge=0.0)

    def loss_grad(theta):
        w, c = theta[:m], theta[m]
        margins = y * (Z @ w + c)
        s = -y / (1.0 + np.exp(margins))
        return np.concatenate([Z.T @ s, [s.sum()]])

    def ridge(theta):
        return 0.5 * lambda_ridge * float(theta[:m] @ theta[:m])

    def ridge_grad(theta):
        return np.concatenate([lambda_ridge * theta[:m], [0.0]])

    def value(theta):
        return loss(theta) + ridge(theta)

    def grad(theta):
        return loss_grad(theta) + ridge_grad(theta)

    probe = np.random.default_rng(1).normal(size=m + 1)
    fd = central_difference_gradient(loss, probe)
    assert np.allclose(loss_grad(probe), fd, rtol=1e-5, atol=1e-7), "oracle loss gradient is wrong"
    fd = central_difference_gradient(ridge, probe)
    scale = max(lambda_ridge, 1.0)
    assert np.allclose(ridge_grad(probe) / scale, fd / scale, rtol=1e-5, atol=1e-7), \
        "oracle ridge gradient is wrong"

    res = minimize(value, np.zeros(m + 1), jac=grad, method="BFGS",
                   options={"gtol": 1e-10, "maxiter": 10000})
    return res.x[:m], float(res.x[m])


def block_cover_reference(geometry, block_shape):
    """Anchor-to-voxel map of ``BlockCover`` as first shipped: every
    (anchor, voxel) pair, stable-argsorted by anchor. Returns
    ``(anchor_ids, starts, features)``; anchor a covers
    ``features[starts[a]:starts[a + 1]]``."""
    block = tuple(int(b) for b in block_shape)
    dims = np.asarray(geometry.dims)
    p = geometry.p
    n_cells = block[0] * block[1] * block[2]
    shifted_dims = dims + np.asarray(block) - 1
    anchor_of_pair = np.empty(p * n_cells, dtype=np.int64)
    feat_of_pair = np.empty(p * n_cells, dtype=np.int64)
    feats = np.arange(p, dtype=np.int64)
    pos = 0
    for ox in range(block[0]):
        for oy in range(block[1]):
            for oz in range(block[2]):
                shifted = geometry.mask + np.array([ox, oy, oz])
                flat = (shifted[:, 0] * shifted_dims[1] + shifted[:, 1]) * shifted_dims[2] + shifted[:, 2]
                anchor_of_pair[pos : pos + p] = flat
                feat_of_pair[pos : pos + p] = feats
                pos += p
    order = np.argsort(anchor_of_pair, kind="stable")
    sorted_anchors = anchor_of_pair[order]
    features = feat_of_pair[order]
    anchor_ids, starts = np.unique(sorted_anchors, return_index=True)
    starts = np.append(starts, sorted_anchors.size)
    return anchor_ids, starts, features


def block_draw_reference(starts, features, gen, parcellation, quotas):
    """``BlockCover.draw`` as a plain loop: one anchor per Python step until
    every quota is met (as first shipped), then the key trim that
    ``stability._quota_trim`` documents, one cluster at a time. ``starts``
    and ``features`` come from ``block_cover_reference``."""
    n_anchors = starts.size - 1
    assignment = parcellation.assignment
    members = parcellation.members()
    picked = np.zeros(assignment.size, dtype=bool)
    counts = np.zeros(parcellation.q, dtype=np.int64)
    cap = 10_000 + 50 * n_anchors
    draws = 0
    unmet = parcellation.q
    while unmet:
        if draws >= cap:
            raise RuntimeError(
                "block accumulation did not meet cluster quotas; geometry or parcellation is degenerate"
            )
        a = int(gen.integers(n_anchors))
        voxels = features[starts[a] : starts[a + 1]]
        fresh = voxels[~picked[voxels]]
        draws += 1
        if fresh.size == 0:
            continue
        picked[fresh] = True
        np.add.at(counts, assignment[fresh], 1)
        unmet = int((counts < quotas).sum())
    # one key in [0, 2**s) per picked voxel, clusters ascending and voxels
    # ascending within each; a cluster keeps its quota smallest (key, voxel)
    shift = 63 - (parcellation.q - 1).bit_length()
    keys = iter(gen.integers(2**shift, size=int(picked.sum())).tolist())
    out = []
    for g in range(parcellation.q):
        ranked = sorted((next(keys), v) for v in members[g][picked[members[g]]].tolist())
        out.append(np.array(sorted(v for _, v in ranked[: quotas[g]]), dtype=np.int64))
    return tuple(out)


def average_supervoxels_reference(X, picked):
    """Cluster averages as first shipped: one fancy-index mean per cluster."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty((X.shape[0], len(picked)))
    for j, cols in enumerate(picked):
        if len(cols) == 0:
            raise ValueError(f"cluster {j} has no picked features")
        out[:, j] = X[:, cols].mean(axis=1)
    return out


def pr_points_bruteforce(scores, truth):
    """PR points by explicit set arithmetic, one per distinct score, descending."""
    scores = list(map(float, scores))
    truth = set(int(t) for t in truth)
    points = []
    for t in sorted(set(scores), reverse=True):
        selected = {i for i, s in enumerate(scores) if s >= t}
        tp = len(selected & truth)
        precision = tp / len(selected) if selected else 1.0
        recall = tp / len(truth)
        points.append((t, precision, recall))
    return points


def pr_auc_bruteforce(points):
    """Trapezoid over recall with the (recall 0, precision 1) anchor."""
    rp = [(0.0, 1.0)] + [(r, p) for _, p, r in points]
    auc = 0.0
    for (r0, p0), (r1, p1) in zip(rp, rp[1:]):
        auc += (r1 - r0) * (p1 + p0) / 2.0
    return auc


def top_t_bruteforce(scores, T):
    order = sorted(range(len(scores)), key=lambda i: (-float(scores[i]), i))
    return set(order[:T])


def best_two_partition(points):
    """Exhaustive minimum within-cluster sum of squares over all 2-partitions.

    Point 0 is fixed to side A so each unordered partition is visited once.
    Returns (cost, frozenset of two frozensets). Only sane for <= ~15 points.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]

    def wcss(idx):
        if not idx:
            return 0.0
        sub = points[list(idx)]
        return float(((sub - sub.mean(axis=0)) ** 2).sum())

    best_cost, best_parts = math.inf, None
    for bits in itertools.product([0, 1], repeat=n - 1):
        a = [0] + [i + 1 for i, b in enumerate(bits) if b == 0]
        b = [i + 1 for i, b in enumerate(bits) if b == 1]
        if not b:
            continue
        cost = wcss(a) + wcss(b)
        if cost < best_cost:
            best_cost = cost
            best_parts = frozenset([frozenset(a), frozenset(b)])
    return best_cost, best_parts


def welch_t_bruteforce(a, b):
    """Welch statistic straight from the textbook formula."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    va = a.var(ddof=1) / a.size
    vb = b.var(ddof=1) / b.size
    if va + vb == 0.0:
        return 0.0
    return float((a.mean() - b.mean()) / math.sqrt(va + vb))


def kmeanspp_reference(features, q, rng):
    npts = features.shape[0]
    centers = np.empty((q, features.shape[1]))
    centers[0] = features[rng.integers(npts)]
    d2 = ((features - centers[0]) ** 2).sum(axis=1)
    for j in range(1, q):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(npts, p=d2 / total)
        else:
            idx = rng.integers(npts)  # all points coincide with a center
        centers[j] = features[idx]
        d2 = np.minimum(d2, ((features - centers[j]) ** 2).sum(axis=1))
    return centers


def cluster_sums_reference(features, assign, q):
    """Each cluster's rows added one at a time in index order, from +0.0."""
    sums = np.zeros((q, features.shape[1]))
    for i, g in enumerate(assign):
        sums[g] = sums[g] + features[i]
    return sums


def lloyd_reference(features, centers, max_iters):
    npts = features.shape[0]
    q = centers.shape[0]
    centers = centers.copy()
    sq_all = float((features**2).sum())
    prev = None
    history = []
    assign = np.zeros(npts, dtype=np.int64)
    for _ in range(max_iters):
        d = (
            (features**2).sum(axis=1)[:, None]
            - 2.0 * (features @ centers.T)
            + (centers**2).sum(axis=1)[None, :]
        )
        assign = d.argmin(axis=1)  # ties go to the lowest cluster id
        counts = np.bincount(assign, minlength=q)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            d_own = d[np.arange(npts), assign]
            for e in empties:
                # reseed with the farthest point whose cluster keeps a member
                eligible = counts[assign] > 1
                cand = np.where(eligible, d_own, -np.inf)
                far = int(cand.argmax())
                counts[assign[far]] -= 1
                assign[far] = e
                counts[e] = 1
                centers[e] = features[far]
                d_own[far] = 0.0
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        sums = np.zeros((q, features.shape[1]))
        np.add.at(sums, assign, features)
        centers = sums / counts[:, None]
        # WCSS identity: sum ||x||^2 - sum_g n_g ||mean_g||^2
        history.append(sq_all - float((counts * (centers**2).sum(axis=1)).sum()))
    return assign, history[-1], history


def kmeans_reference(features, q, rng, restarts=1, max_iters=300):
    """Best-of-restarts k-means with the plain kernels the package first shipped.

    k-means++ recomputes every squared distance from scratch, Lloyd builds
    the full distance matrix with the row-norm term and sums centroids with
    ``np.add.at``. Draws from ``rng`` in the same order as the package.
    Returns (assignment, inertia) of the first restart with the lowest WCSS.
    """
    features = np.asarray(features, dtype=np.float64)
    best_assign, best_inertia = None, np.inf
    for _ in range(restarts):
        centers = kmeanspp_reference(features, q, rng)
        assign, inertia, _ = lloyd_reference(features, centers, max_iters)
        if inertia < best_inertia:
            best_assign, best_inertia = assign, inertia
    return best_assign, best_inertia
