import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rss_select import solver
from rss_select.solver import (
    SolverConfig,
    apply_standardization,
    fit_l1_logistic,
    fit_l2_logistic,
    standardize_columns,
)


def _standardized(X):
    return (X - X.mean(axis=0)) / X.std(axis=0)


def _random_instance(rng):
    """Small instance with both classes and non-degenerate columns."""
    n = int(rng.integers(2, 11))
    m = int(rng.integers(1, 3))
    while True:
        X = rng.normal(size=(n, m)) * rng.uniform(0.5, 3.0, size=m) + rng.normal(size=m)
        if (X.std(axis=0) > 1e-9).all():
            break
    y = np.ones(n, dtype=np.int64)
    y[: n // 2] = -1
    y = y[rng.permutation(n)]
    if np.all(y == y[0]):
        y[0] = -y[0]
    return X, y


def _pad_with_noise(X, pad, seed):
    """Append ``pad`` Gaussian noise columns, so that a test made on a few
    columns runs again on more than a thousand."""
    noise = np.random.default_rng(seed).normal(size=(X.shape[0], pad))
    return np.hstack([X, noise])


# ----------------------------------------------------------- loss and grad


def test_logistic_is_quiet_at_extremes_and_exact_at_zero():
    """No overflow warning (the test config turns them into errors) at the
    extremes, 0.5 exactly at 0, and the limits 0 and 1 within rounding."""
    x = np.array([-np.inf, -1e308, -710.0, 0.0, 710.0, 1e308, np.inf])
    q = solver.expit(x)
    assert q[3] == 0.5
    assert (q[:3] <= 1.3e-308).all() and (q[:3] >= 0.0).all()
    assert (q[4:] == 1.0).all()
    assert x[0] == -np.inf and x[3] == 0.0  # the argument is not written


def test_logistic_matches_scipy_within_four_ulp():
    from scipy.special import expit as scipy_expit
    rng = np.random.default_rng(11)
    x = np.concatenate([np.linspace(-700.0, 700.0, 200001), rng.uniform(-40.0, 40.0, 100000),
                        rng.normal(scale=1e-3, size=1000)])
    q, ref = solver.expit(x), scipy_expit(x)
    assert (np.abs(q - ref) <= 4 * np.spacing(ref)).all()


def test_loss_at_zero_is_n_log_two():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(7, 4))
    y = np.where(rng.random(7) < 0.5, 1, -1)
    loss, _, _ = oracles.logistic_loss_and_grad(X, y, np.zeros(4), 0.0)
    assert loss == pytest.approx(7 * math.log(2), abs=1e-14)


def test_loss_huge_margin_is_tiny_and_finite():
    # single sample at margin 100: log(1 + e^-100) <= 4e-44
    loss, gw, gc = oracles.logistic_loss_and_grad(np.array([[100.0]]), np.array([1]),
                                                  np.array([1.0]), 0.0)
    assert 0.0 <= loss <= 4e-44
    assert math.isfinite(loss) and math.isfinite(gc) and np.isfinite(gw).all()


def test_loss_stable_at_extreme_margins():
    X = np.array([[1e4], [-1e4]])
    y = np.array([1, -1])
    for w in ([1.0], [-1.0]):
        loss, gw, gc = oracles.logistic_loss_and_grad(X, y, np.array(w), 0.5)
        assert math.isfinite(loss)
        assert np.isfinite(gw).all() and math.isfinite(gc)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(1)
    for _ in range(5):
        X = rng.normal(size=(5, 3))
        y = np.where(rng.random(5) < 0.5, 1, -1)
        w0 = rng.normal(size=3)
        c0 = float(rng.normal())

        def value(theta):
            loss, _, _ = oracles.logistic_loss_and_grad(X, y, theta[:3], theta[3])
            return loss

        _, gw, gc = oracles.logistic_loss_and_grad(X, y, w0, c0)
        analytic = np.concatenate([gw, [gc]])
        fd = oracles.central_difference_gradient(value, np.concatenate([w0, [c0]]))
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)


# ----------------------------------------------------------------- L1 fits


def test_tiny_loss_weight_gives_empty_support():
    rng = np.random.default_rng(2)
    X, y = _random_instance(rng)
    sol = fit_l1_logistic(X, y, SolverConfig(loss_weight=1e-12))
    assert np.abs(sol.w).sum() <= 1e-6
    assert sol.support(1e-8).size == 0


def test_all_zero_matrix_balanced_labels():
    X = np.zeros((4, 3))
    y = np.array([1, 1, -1, -1])
    sol = fit_l1_logistic(X, y, SolverConfig(loss_weight=2.0))
    np.testing.assert_array_equal(sol.w, np.zeros(3))  # dropped columns stay exactly 0
    assert abs(sol.c) <= 1e-8
    assert sol.converged


def test_one_dimensional_instance_matches_dense_grid():
    """X=[[1],[-1]], y=[+1,-1], loss weight 10: the minimizer is w=log 19, c=0."""
    X = np.array([[1.0], [-1.0]])
    y = np.array([1, -1])
    sol = fit_l1_logistic(X, y, SolverConfig(loss_weight=10.0))
    w_grid = oracles.l1_dense_grid_1d([1.0, -1.0], [1.0, -1.0], 10.0)
    assert sol.w[0] == pytest.approx(w_grid, abs=1e-4)
    assert sol.w[0] == pytest.approx(math.log(19.0), abs=1e-5)
    assert sol.c == pytest.approx(0.0, abs=1e-6)
    assert sol.kkt_residual <= 1e-6


def test_random_instances_match_grid_oracle():
    """Twenty quick draws of the solver-vs-oracle comparison; the acceptance
    suite runs the full hundred."""
    rng = np.random.default_rng(12345)
    for _ in range(20):
        X, y = _random_instance(rng)
        lw = float(rng.uniform(0.2, 5.0))
        sol = fit_l1_logistic(X, y, SolverConfig(loss_weight=lw))
        ow, oc, of = oracles.l1_grid_minimize(_standardized(X), y.astype(float), lw)
        np.testing.assert_allclose(sol.w, ow, atol=1e-4)
        assert sol.c == pytest.approx(oc, abs=1e-4)
        if sol.converged:
            assert sol.kkt_residual <= 1e-6


def test_objective_never_increases_with_more_iterations():
    rng = np.random.default_rng(9)
    X, y = _random_instance(rng)
    objs = []
    for cap in (1, 2, 3, 5, 8, 13, 21, 40, 80):
        sol = fit_l1_logistic(X, y, SolverConfig(loss_weight=3.0, max_iters=cap))
        objs.append(sol.objective)
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-12 * max(1.0, abs(a))


@pytest.mark.parametrize("pad", [0, 1100])
def test_constant_column_weight_is_exactly_zero(pad):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(8, 3))
    X[:, 1] = 7.7
    y = np.where(rng.random(8) < 0.5, 1, -1)
    if np.all(y == y[0]):
        y[0] = -y[0]
    X = _pad_with_noise(X, pad, 40)
    sol = fit_l1_logistic(X, y, SolverConfig(loss_weight=1.0))
    assert sol.w[1] == 0.0


@pytest.mark.parametrize("pad", [0, 1100])
def test_column_scale_of_ones_changes_nothing(pad):
    rng = np.random.default_rng(5)
    X, y = _random_instance(rng)
    X = _pad_with_noise(X, pad, 41)
    cfg = SolverConfig(loss_weight=1.5)
    a = fit_l1_logistic(X, y, cfg)
    b = fit_l1_logistic(X, y, cfg, column_scale=np.ones(X.shape[1]))
    np.testing.assert_array_equal(a.w, b.w)
    assert a.c == b.c


@pytest.mark.parametrize("pad", [0, 1100])
def test_column_scale_can_push_a_column_out_of_the_support(pad):
    """Scaling a column by s < 1 after standardization is the randomized-lasso
    weakness trick: the column's effective penalty grows by 1/s, so a strong
    enough damping keeps an otherwise-selected column out of the support."""
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 2))
    y = np.where(X[:, 0] + 0.3 * rng.normal(size=40) > 0, 1, -1)
    X = _pad_with_noise(X, pad, 42)
    cfg = SolverConfig(loss_weight=2.0)
    full = fit_l1_logistic(X, y, cfg)
    assert 0 in full.support(cfg.support_epsilon)
    scale = np.ones(X.shape[1])
    scale[0] = 0.01
    damped = fit_l1_logistic(X, y, cfg, column_scale=scale)
    assert 0 not in damped.support(cfg.support_epsilon)


def test_solver_input_validation():
    with pytest.raises(ValueError):
        fit_l1_logistic(np.zeros((2, 2)), np.array([1, 0]), SolverConfig(loss_weight=1.0))
    with pytest.raises(ValueError):
        fit_l1_logistic(np.zeros((2, 2)), np.array([1]), SolverConfig(loss_weight=1.0))
    with pytest.raises(ValueError):
        SolverConfig(loss_weight=0.0)
    with pytest.raises(ValueError):
        SolverConfig(loss_weight=1.0, max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(loss_weight=1.0, tol_kkt=-1.0)
    for tol_kkt in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol_kkt must be positive"):
            SolverConfig(loss_weight=1.0, tol_kkt=tol_kkt)
    for eps in (-1e-8, math.nan, math.inf):
        with pytest.raises(ValueError, match="support_epsilon non-negative, both finite"):
            SolverConfig(loss_weight=1.0, support_epsilon=eps)
    assert SolverConfig(loss_weight=1.0, support_epsilon=0.0).support_epsilon == 0.0


# ----------------------------------------------------------------- L2 fits


def test_huge_ridge_collapses_weights():
    rng = np.random.default_rng(7)
    X, y = _random_instance(rng)
    sol = fit_l2_logistic(X, y, 1e12)
    assert float(np.sqrt(sol.w @ sol.w)) <= 1e-6
    assert sol.converged


def test_l2_all_zero_matrix():
    sol = fit_l2_logistic(np.zeros((4, 2)), np.array([1, -1, 1, -1]), 1.0)
    np.testing.assert_array_equal(sol.w, np.zeros(2))
    assert abs(sol.c) <= 1e-8


def test_l2_on_labels_of_one_class_is_never_fitted():
    """Labels of one class have no finite intercept: the ridge fit stops
    before its first iteration, not converged, with residual inf, as an L1
    fit does, instead of reporting the vanishing gradient of an intercept
    running off as convergence."""
    X = np.random.default_rng(3).normal(size=(10, 30))
    for label in (1, -1):
        sol = fit_l2_logistic(X, np.full(10, label), 1.0)
        assert (sol.converged, sol.kkt_residual, sol.n_iters) == (False, math.inf, 0)
        assert not sol.w.any() and sol.c == 0.0


def test_l2_matches_gradient_descent_oracle():
    X = np.array([[1.0, 0.2], [2.0, -0.1], [-1.5, 0.3],
                  [-0.5, -0.4], [1.2, 0.9], [-2.0, -0.7]])
    y = np.array([1, 1, -1, -1, 1, -1])
    sol = fit_l2_logistic(X, y, 0.7)
    ow, oc = oracles.l2_gd_minimize(_standardized(X), y.astype(float), 0.7)
    np.testing.assert_allclose(sol.w, ow, atol=1e-4)
    assert sol.c == pytest.approx(oc, abs=1e-4)
    assert sol.kkt_residual <= 1e-6


def test_l2_random_instances_against_oracle():
    """Narrow instances with a moderate ridge, wide ones (m > n, where the
    fit runs in the row space) with a ridge from 1e-3 to 1e12, and
    unpenalized fits on 40 randomly labelled rows, whose classes overlap."""
    rng = np.random.default_rng(8)
    cases = [(*_random_instance(rng), float(rng.uniform(0.1, 5.0))) for _ in range(8)]
    for i in range(11):
        n, m = (int(rng.integers(8, 21)), int(rng.integers(20, 61))) if i < 8 else (40, 2)
        ridge = float(10.0 ** rng.uniform(-3.0, 12.0)) if i < 8 else 0.0
        X = rng.normal(size=(n, m)) * rng.uniform(0.5, 3.0, size=m) + rng.normal(size=m)
        y = np.where(rng.random(n) < 0.5, 1, -1)
        y[:2] = [1, -1]
        cases.append((X, y, ridge))
    for X, y, ridge in cases:
        sol = fit_l2_logistic(X, y, ridge)
        assert sol.converged and sol.kkt_residual <= 1e-6
        ow, oc = oracles.l2_bfgs_minimize(_standardized(X), y.astype(float), ridge)
        np.testing.assert_allclose(sol.w, ow, atol=1e-4)
        assert sol.c == pytest.approx(oc, abs=1e-4)


# ------------------------------------------------------------ standardizing


def test_standardize_columns_drops_constants():
    X = np.column_stack([np.arange(5.0), np.full(5, 3.3), np.arange(5.0) ** 2])
    Z, mean, std, keep = standardize_columns(X)
    np.testing.assert_array_equal(keep, [True, False, True])
    np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(Z.std(axis=0), 1.0)
    Z2 = apply_standardization(X, mean, std, keep)
    np.testing.assert_allclose(Z2, Z)


def test_standardization_uses_population_variance():
    X = np.array([[0.0], [2.0]])
    Z, _, std, _ = standardize_columns(X)
    assert std[0] == pytest.approx(1.0)  # ddof=0: std of {0,2} is 1
    np.testing.assert_allclose(Z[:, 0], [-1.0, 1.0])


def test_working_set_path_agrees_with_direct_path():
    """Fits of X route through gradient screening; the answer must be the
    same as the direct kernel's on a stack of the support columns alone."""
    rng = np.random.default_rng(11)
    n, m_signal = 30, 3
    X_signal = rng.normal(size=(n, m_signal))
    y = np.where(X_signal[:, 0] - X_signal[:, 2] + 0.5 * rng.normal(size=n) > 0, 1, -1)
    X_noise = rng.normal(size=(n, 1400))
    X = np.hstack([X_signal, X_noise])
    cfg = SolverConfig(loss_weight=0.8, tol_kkt=1e-9)
    screened = fit_l1_logistic(X, y, cfg)
    assert screened.kkt_residual <= cfg.tol_kkt
    support = np.flatnonzero(np.abs(screened.w) > cfg.support_epsilon)
    assert support.size > 0
    direct, = solver.fit_l1_standardized(solver.standardize_stack(X[:, support][None]),
                                         y[None].astype(np.float64), cfg)
    np.testing.assert_allclose(screened.w[support], direct.w, atol=1e-5)
    assert screened.c == pytest.approx(direct.c, abs=1e-5)


def test_implicit_gradient_matches_explicit_columns():
    """The screen's Z'g must equal the product with the built columns, also
    away from the intercept optimum where sum(g) is far from 0, on a column
    whose mean is far larger than its std, and on constant columns, one of
    them with a std that rounds to a tiny positive value. The columns are
    built from the fit's own statistics, which
    test_implicit_statistics_match_two_pass_statistics_on_every_row_set ties
    to the two-pass ones."""
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 50)) * rng.uniform(0.5, 3.0, size=50) + 20.0 * rng.normal(size=50)
    X[:, 7] = 4.2  # mean of 30 copies rounds, so std is about 1e-15, not 0
    X[:, 8] = 0.0
    X[:, 9] = 1e5 + 1e-3 * rng.normal(size=30)  # |mean| / std is about 1e8
    scale = rng.uniform(0.5, 1.0, size=50)
    cols = solver._ImplicitColumns(X, np.arange(30)[None], scale[None])  # one fit, every row
    assert cols.std[0, 7] > 0.0 and cols.exact[0].tolist() == [9]
    mean, std = X.mean(axis=0), X.std(axis=0)
    keep = std > 30 * np.finfo(np.float64).eps * np.abs(mean)
    assert keep.sum() == 48 and (cols.keep[0] == keep).all()
    mean, std = cols.mean[0], cols.std[0]
    Z = np.zeros_like(X)
    Z[:, keep] = ((X[:, keep] - mean[keep]) / std[keep]) * scale[keep]
    np.testing.assert_array_equal(cols.columns(0, np.flatnonzero(keep)), Z[:, keep])
    gvec = rng.uniform(0.0, 1.0, size=30)  # sum(g) is about 15
    got = cols.gradient(np.array([0]), gvec[None])[0]
    np.testing.assert_allclose(got, Z.T @ gvec, rtol=0, atol=1e-10)
    assert got[7] == 0.0 and got[8] == 0.0


@st.composite
def _wide_instances(draw):
    """Wide problems (m >= 1024) with offset columns, exactly constant
    columns, duplicated columns and near-constant columns (std 1e-6 about a
    mean below 1e-3), two classes, and an optional random column scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(12, 40))
    m = draw(st.integers(1024, 1200))
    X = rng.normal(size=(n, m)) * rng.uniform(0.5, 3.0, size=m) + 20.0 * rng.normal(size=m)
    Z = (X[:, :2] - X[:, :2].mean(axis=0)) / X[:, :2].std(axis=0)
    y = np.where(Z[:, 0] - Z[:, 1] + rng.normal(size=n) > 0, 1, -1)
    y[:2] = [1, -1]
    cols = rng.permutation(np.arange(2, m))
    n_const, n_dup, n_near = (draw(st.integers(1, 20)) for _ in range(3))
    const, dup, near = np.split(cols[: n_const + n_dup + n_near], [n_const, n_const + n_dup])
    X[:, const] = rng.normal(size=n_const) * 10.0
    X[:, dup] = X[:, rng.choice(np.r_[0, 1, cols[60:]], size=n_dup)]
    X[:, near] = rng.uniform(-1e-3, 1e-3, size=n_near) + 1e-6 * rng.normal(size=(n, n_near))
    scale = rng.uniform(0.5, 1.0, size=m) if draw(st.booleans()) else None
    return X, y, float(draw(st.floats(0.3, 2.0))), scale, const


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_wide_instances())
def test_working_set_path_matches_explicit_reference(instance):
    """Implicit standardization and the n-sized first screen must reach the
    answer of the explicit-Z working set with 512-column screens."""
    X, y, loss_weight, scale, const = instance
    cfg = SolverConfig(loss_weight=loss_weight, tol_kkt=1e-7)
    sol = fit_l1_logistic(X, y, cfg, column_scale=scale)
    want_w, want_c, _, _, want_conv, _ = oracles.fit_l1_working_set_reference(X, y, cfg, scale)
    assert want_conv and sol.converged
    assert sol.kkt_residual <= cfg.tol_kkt
    np.testing.assert_array_equal(sol.support(cfg.support_epsilon),
                                  np.flatnonzero(np.abs(want_w) > cfg.support_epsilon))
    np.testing.assert_allclose(sol.w, want_w, rtol=0, atol=1e-5)
    assert sol.c == pytest.approx(want_c, abs=1e-5)
    assert (sol.w[const] == 0.0).all()


# --------------------------------------------------------- lockstep kernel


def _stack(rng, B, n, a, separable=False):
    """B equal-shape problems: columns of mixed scale, labels from a noisy
    (or, if ``separable``, exact) linear rule."""
    Z = rng.normal(size=(B, n, a)) * rng.uniform(0.2, 3.0, size=(B, 1, a))
    score = Z[:, :, 0] if a and separable else rng.normal(size=(B, n))
    if a and not separable:
        score = score + Z[:, :, 0]
    y = np.where(score > 0, 1.0, -1.0)
    y[:, 0] = 1.0  # at least one of each class
    y[:, -1] = -1.0 if n > 1 else y[:, -1]
    return Z, y


@st.composite
def _lockstep_instances(draw, tols=(1e-4, 1e-7, 1e-10, 1e-14)):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B, n, a = draw(st.integers(1, 6)), draw(st.integers(2, 30)), draw(st.integers(0, 12))
    Z, y = _stack(rng, B, n, a, separable=draw(st.booleans()))
    w0 = rng.normal(size=(B, a)) * (rng.random((B, a)) < draw(st.sampled_from([0.0, 0.5])))
    return (Z, y, draw(st.floats(0.1, 20.0)), w0, rng.normal(size=B),
            draw(st.integers(1, 300)), draw(st.sampled_from(tols)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_lockstep_instances())
def test_lockstep_kernel_replays_reference_loop(instance):
    """Every problem of a stack gets, to the bit, what the single-problem loop
    gives it on its own: weights, intercept, objective, residual, flag and
    iteration count. Tight tolerances, separable labels and low caps drive
    problems into the iteration-cap rule too."""
    Z, y, lw, w0, c0, cap, tol = instance
    w, c, obj, kkt, conv, iters, stop = solver._prox_solve(Z, y, lw, w0, c0, cap, tol, 1e-8)
    for b in range(Z.shape[0]):
        ww, wc, wobj, wkkt, wconv, wit = oracles.prox_solve_reference(
            Z[b], y[b], lw, w0[b], c0[b], cap, tol, 1e-8)
        assert w[b].tobytes() == ww.tobytes()
        assert (c[b], obj[b], kkt[b], bool(conv[b]), iters[b]) == (wc, wobj, wkkt, wconv, wit)
        assert (solver._STOP_RULES[stop[b]] == "kkt") == wconv
        if solver._STOP_RULES[stop[b]] == "max iters":
            assert wit == cap


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_lockstep_instances(tols=(1e-4, 1e-7, 1e-10)))
def test_converged_problems_are_optimal_by_oracle_gradient(instance):
    """Every problem of a stack that reports converged is optimal by the
    oracle's gradient of (w, c), not only by the kernel's own residual: the
    L1 violation and the intercept's ``loss_weight * |sum g|`` are both at
    most tol_kkt."""
    Z, y, lw, w0, c0, cap, tol = instance
    w, c, _, _, conv, _, _ = solver._prox_solve(Z, y, lw, w0, c0, cap, tol, 1e-8)
    for b in np.flatnonzero(conv):
        _, gw, gc = oracles.logistic_loss_and_grad(Z[b], y[b], w[b], c[b])
        assert oracles._l1_violation_reference(lw * gw, w[b], 1e-8).max(initial=0.0) <= tol
        assert lw * abs(gc) <= tol


def test_lockstep_result_ignores_batch_mates():
    """A problem's bytes do not depend on which problems share its stack, on
    their number, order, or per-problem iteration caps."""
    rng = np.random.default_rng(21)
    Z, y = _stack(rng, 9, 24, 10)
    caps = rng.integers(20, 400, size=9)
    alone = [solver._prox_solve(Z[b:b + 1], y[b:b + 1], 1.3, np.zeros((1, 10)), np.zeros(1),
                                caps[b:b + 1], 1e-9, 1e-8) for b in range(9)]
    for order in (np.arange(9), rng.permutation(9), np.array([4, 0, 7])):
        got = solver._prox_solve(Z[order], y[order], 1.3, np.zeros((order.size, 10)),
                                 np.zeros(order.size), caps[order], 1e-9, 1e-8)
        for i, b in enumerate(order):
            for part, want in zip(got, alone[b]):
                assert part[i].tobytes() == want[0].tobytes()


def _steps(Z, y, lw, w0, c0, cap, tol):
    """The oracle's ``(kind, objective before, objective after)`` for each
    iteration of each problem of a stack, and its results."""
    runs = []
    for b in range(Z.shape[0]):
        steps = []
        runs.append((oracles.prox_solve_reference(Z[b], y[b], lw, w0[b], c0[b], cap, tol, 1e-8,
                                                  steps=steps), steps))
    return runs


def test_newton_finishes_stack_mates_at_different_iterations():
    """Six problems whose labels follow the first 1 to 6 columns finish by
    Newton steps after 8 to 15 iterations, on supports of 5, 6 and 8
    columns (Newton systems of two padded widths), each with the bytes of
    the single-problem loop: the lockstep kernel solves each problem's
    system as its own."""
    rng = np.random.default_rng(107)
    B, n, a = 6, 40, 10
    Z = rng.normal(size=(B, n, a))
    Z = (Z - Z.mean(axis=1, keepdims=True)) / Z.std(axis=1, keepdims=True)
    y = np.empty((B, n))
    for b in range(B):
        score = 2.0 * Z[b, :, : b + 1].sum(axis=1) + 0.7 * rng.normal(size=n)
        y[b] = np.where(score > 0, 1.0, -1.0)
    w0, c0 = np.zeros((B, a)), np.zeros(B)
    w, c, obj, kkt, conv, iters, stop = solver._prox_solve(Z, y, 1.0, w0, c0, 10000, 1e-9, 1e-8)
    finished_at, sizes = set(), set()
    for b, ((ww, wc, wobj, wkkt, wconv, wit), steps) in enumerate(
            _steps(Z, y, 1.0, w0, c0, 10000, 1e-9)):
        assert w[b].tobytes() == ww.tobytes()
        assert (c[b], obj[b], kkt[b], iters[b]) == (wc, wobj, wkkt, wit)
        assert solver._STOP_RULES[stop[b]] == "kkt" and steps[-1][0] == "newton"
        finished_at.add(int(iters[b]))
        sizes.add(int((np.abs(w[b]) > 1e-8).sum()))
    assert len(finished_at) >= 4 and sizes == {5, 6, 8}


def test_newton_step_stops_a_weight_that_would_cross_zero_at_zero(monkeypatch):
    """A 12 x 6 fit whose fifth iteration is a Newton step whose full length
    takes weight 2, and no other, across zero. The kernel sets that weight
    to exactly 0 and keeps the other signs, the objective does not rise,
    the next iteration tries Newton again although the signs changed, and
    every iteration is the single-problem loop's bit for bit."""
    rng = np.random.default_rng(4)
    Z = rng.normal(size=(12, 6)) * rng.uniform(0.2, 3.0, size=6)
    y = np.where(rng.normal(size=12) + Z[:, 0] > 0, 1.0, -1.0)
    y[0], y[-1] = 1.0, -1.0
    Z = (Z - Z.mean(axis=0)) / Z.std(axis=0)
    directions, real = [], solver._newton_directions

    def recording(*args):
        dw, dc = real(*args)
        directions.append(dw[0].copy())
        return dw, dc

    monkeypatch.setattr(solver, "_newton_directions", recording)
    runs = {}
    for cap in (4, 5, 6, 10000):
        directions.clear()
        w, _, obj, *_ = solver._prox_solve(Z[None], y[None], 2.0, np.zeros((1, 6)), np.zeros(1),
                                           cap, 1e-9, 1e-8)
        runs[cap] = w[0], obj[0], len(directions), directions[-1] if directions else None
    (w4, obj4, tries4, _), (w5, obj5, tries5, dw) = runs[4], runs[5]
    assert tries5 == tries4 + 1
    assert np.flatnonzero((w4 + dw) * w4 < 0.0).tolist() == [2]
    assert w5[2] == 0.0 != w4[2] and obj5 <= obj4
    keep = np.arange(6) != 2
    assert (np.sign(w5[keep]) == np.sign(w4[keep])).all()
    assert runs[6][2] == tries5 + 1
    steps = []
    want = oracles.prox_solve_reference(Z, y, 2.0, np.zeros(6), 0.0, 10000, 1e-9, 1e-8,
                                        steps=steps)
    assert [kind for kind, *_ in steps[4:6]] == ["newton", "newton"]
    assert steps[4][4].tobytes() == w5.tobytes()
    assert runs[10000][0].tobytes() == want[0].tobytes() and runs[10000][1] == want[2]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_lockstep_instances())
def test_newton_steps_never_raise_the_objective_and_stop_by_kkt(instance):
    """No Newton step raises its problem's objective or reverses the sign of
    any weight. A problem that stops right after a Newton step stops by
    ``kkt`` unless that step was its last allowed iteration, and no problem
    runs past its cap."""
    Z, y, lw, w0, c0, cap, tol = instance
    _, _, obj, _, _, iters, stop = solver._prox_solve(Z, y, lw, w0, c0, cap, tol, 1e-8)
    for b, (_, steps) in enumerate(_steps(Z, y, lw, w0, c0, cap, tol)):
        newton = [step for step in steps if step[0] == "newton"]
        assert all(after <= before for _, before, after, _, _ in newton)
        assert not any((w_after * w_before < 0.0).any() for *_, w_before, w_after in newton)
        assert iters[b] == len(steps) <= cap
        rule = solver._STOP_RULES[stop[b]]
        if rule == "max iters":
            assert iters[b] == cap
        if steps and steps[-1][0] == "newton":
            assert rule == "kkt" or (rule == "max iters" and iters[b] == cap)
            assert obj[b] <= steps[-1][1]


def test_singular_newton_system_fails_alone():
    """A problem whose rows all sit far out on the logistic tails has no
    curvature: its Newton system is singular, and its direction is nan,
    while the stack mate solved in the same call gets its own direction."""
    rng = np.random.default_rng(2)
    Z = rng.normal(size=(2, 9, 3))
    on = np.array([[True, False, True], [True, False, True]])
    q = np.full((2, 9), 0.3)
    q[0] = 0.0  # margins beyond the reach of expit
    gw, gc, sgn = rng.normal(size=(2, 3)), rng.normal(size=2), np.sign(rng.normal(size=(2, 3)))
    rows = np.arange(2)
    dw, dc = solver._newton_directions(Z, rows, on, gw, gc, sgn, q, 1.5)
    alone = solver._newton_directions(Z[1:], rows[:1], on[1:], gw[1:], gc[1:], sgn[1:], q[1:], 1.5)
    assert np.isnan(dw[0, [0, 2]]).all() and np.isnan(dc[0]) and dw[0, 1] == 0.0
    for got, want in zip((dw, dc), alone):
        assert got[1].tobytes() == want[0].tobytes()
    assert np.isfinite(dw[1]).all() and dw[1, 1] == 0.0


def test_fit_whose_residual_oscillated_now_stops_by_kkt():
    """A 10 x 4 fit of criterion 7 (trial 3, permutation 8, iteration 1,
    loss weight 4). With proximal steps alone its KKT residual rose and fell
    between 1e-6 and 1.1e-5 for 26 iterations and met tol_kkt 1e-6 after
    35; the Newton finish stops it by ``kkt`` after 5, far below tol_kkt."""
    Z = np.array([
        [-0.7741665622340212, 0.929898188629046, -0.2131423711508667, -0.1671513073074663],
        [-0.6319054486899344, -1.4614284777447926, 0.24355279009074546, -1.514095495779545],
        [0.8297825056279053, -0.48253266356597513, -1.4761508502001628, 0.00900702804526812],
        [-1.9318168445471553, -0.6810647452297881, -0.07416471938466929, -0.9491429632968229],
        [0.6123447595942908, 0.25353435409311115, 1.3659611998479415, 0.8942984621664368],
        [1.4975116780633293, -0.7204515535194611, -0.5860973050375342, -0.3953505999511356],
        [1.010987261303416, -0.30543240324720444, -1.4181680150956828, 1.4620256998969372],
        [0.31059910210946184, -0.691670443149828, 1.8067544813049938, -0.6069436606270004],
        [-0.004198645235698659, 1.8603717588706055, -0.11067099041107446, 1.754738098622254],
        [-0.919137805991592, 1.2987759848642872, 0.46212578003630994, -0.48738526176892527]])
    y = np.array([-1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
    sol, = solver.fit_l1_standardized(Z[None], y[None], SolverConfig(loss_weight=4.0))
    _, _, _, kkt, _, iters, stop = solver._prox_solve(Z[None], y[None], 4.0, np.zeros((1, 4)),
                                                      np.zeros(1), 10000, 1e-6, 1e-8)
    assert solver._STOP_RULES[stop[0]] == "kkt" and iters[0] <= 6 and kkt[0] <= 1e-9
    assert sol.converged and sol.n_iters <= 6 and sol.kkt_residual <= 1e-9
    assert sol.objective == pytest.approx(27.428151809149856, rel=1e-12)


def test_one_class_labels_are_never_fitted():
    """Labels of one class have no finite intercept: such a problem stops
    before its first iteration, not converged, with residual inf, on the
    stacked path and through fit_l1_batch, while its stack mates fit as
    they would alone."""
    Z, y = _stack(np.random.default_rng(8), 3, 12, 4)
    y[1] = -1.0
    w, c, obj, kkt, conv, iters, stop = solver._prox_solve(Z, y, 2.0, np.zeros((3, 4)),
                                                           np.zeros(3), 500, 1e-8, 1e-8)
    assert solver._STOP_RULES[stop[1]] == "one class"
    assert (kkt[1], bool(conv[1]), iters[1]) == (math.inf, False, 0) and not w[1].any()
    for b in (0, 2):
        alone = solver._prox_solve(Z[b:b + 1], y[b:b + 1], 2.0, np.zeros((1, 4)), np.zeros(1),
                                   500, 1e-8, 1e-8)
        assert all(part[b].tobytes() == want[0].tobytes()
                   for part, want in zip((w, c, obj, kkt, conv, iters, stop), alone))
    X, rows = Z.reshape(-1, 4), np.arange(36).reshape(3, 12)
    sols = solver.fit_l1_batch(X, y.reshape(-1), rows, SolverConfig(loss_weight=2.0))
    assert [sol.converged for sol in sols] == [True, False, True]
    assert sols[1].kkt_residual == math.inf and not sols[1].w.any()


def _wide_subsamples(seed, B, n=36, m=1100, k=18):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m)) * rng.uniform(0.5, 3.0, size=m) + 5.0 * rng.normal(size=m)
    Z = (X[:, :2] - X[:, :2].mean(axis=0)) / X[:, :2].std(axis=0)
    y = np.where(Z[:, 0] - Z[:, 1] + 0.2 * rng.normal(size=n) > 0, 1.0, -1.0)
    rows = np.sort(np.stack([rng.choice(n, size=k, replace=False) for _ in range(B)]), axis=1)
    return X, y, rows, rng.uniform(0.5, 1.0, size=(B, m))


def test_column_stats_in_blocks_match_the_whole_matrix(monkeypatch):
    """Column statistics read in blocks are numpy's statistics of the whole
    matrix bit for bit, with a short last block, on offset and scaled
    columns."""
    rng = np.random.default_rng(9)
    X = rng.normal(size=(37, 1000)) * rng.uniform(0.1, 1e4, size=1000)
    X += 1e3 * rng.normal(size=1000)
    monkeypatch.setattr(solver, "_BATCH_ENTRIES", 37 * 64)  # 15 blocks of 64 and one of 40
    mean, std, _ = solver.column_stats(X)
    assert mean.tobytes() == X.mean(axis=0).tobytes()
    assert std.tobytes() == X.std(axis=0).tobytes()


def test_subsample_stats_match_two_pass_statistics():
    """One-pass statistics over the row indicators agree with the two-pass
    ones on the drawn rows, also on offset and near-constant columns; the
    constant ones (exactly, or up to rounding, on the drawn rows) are
    recomputed in two passes and count as constant."""
    X, _, rows, _ = _wide_subsamples(5, 4)
    X[:, 10] = 1e5 + 1e-3 * np.random.default_rng(1).normal(size=X.shape[0])
    X[:, 11] = 0.0
    X[rows[0], 12] = 4.2  # constant on subsample 0 only
    X[rows[1], 13] = X[:, 13].mean()  # constant on subsample 1, at the shift
    mean, std, keep = solver._subsample_stats(X, rows)
    for b in range(4):
        want_mean, want_std, want_keep = solver.column_stats(X[rows[b]])
        np.testing.assert_array_equal(keep[b], want_keep)
        np.testing.assert_allclose(mean[b], want_mean, rtol=1e-13, atol=0)
        np.testing.assert_allclose(std[b, want_keep], want_std[want_keep], rtol=1e-9)
    assert not keep[:, 11].any() and not keep[0, 12] and not keep[1, 13]
    assert keep[1:, 12].all() and keep[[0, 2, 3], 13].all()


def test_implicit_statistics_match_two_pass_statistics_on_every_row_set(monkeypatch):
    """The implicit columns' statistics of any row set, all rows included,
    are the two-pass statistics of its rows within 1e-14, with the same
    constant columns: on ordinary columns, a constant one, one whose mean
    is 1e8 times its std, and one whose outlier row makes the subsamples
    without it cancel, so that their statistics are recomputed."""
    rng = np.random.default_rng(21)
    n = 24
    X = rng.normal(size=(n, 40)) * rng.uniform(0.5, 3.0, size=40) + 20.0 * rng.normal(size=40)
    X[:, 5] = 4.2
    X[:, 6] = 1e5 + 1e-3 * rng.normal(size=n)
    X[0, 7] = 1e6
    recomputed = []

    def spy(M):
        recomputed.append(M.shape)
        return column_stats(M)

    column_stats = solver.column_stats
    monkeypatch.setattr(solver, "column_stats", spy)
    for k in (n, n - 1, n // 2, 3):
        rows = np.sort(np.stack([rng.choice(n, size=k, replace=False) for _ in range(3)]), axis=1)
        cols = solver._ImplicitColumns(X, rows, np.ones((3, 40)))
        for b in range(3):
            mean, std, keep = column_stats(X[rows[b]])
            np.testing.assert_array_equal(cols.keep[b], keep)
            np.testing.assert_allclose(cols.mean[b], mean, rtol=1e-14, atol=0)
            np.testing.assert_allclose(cols.std[b, keep], std[keep], rtol=1e-14, atol=0)
        assert not cols.keep[:, 5].any() and cols.keep[:, 6].all()
    assert recomputed and all(shape[1] < 40 for shape in recomputed)


def test_wide_batch_matches_single_fits():
    """Each wide fit of a lockstep batch has the support of its own
    fit_l1_logistic on the drawn rows and the same objective to 1e-11, and
    a column constant on its drawn rows only gets weight exactly 0.

    The weights agree only to the solver tolerance: the one-pass column
    statistics and the padded active sets differ from the single fit in the
    last bits, which can move the iteration at which a fit crosses its KKT
    tolerance by one (on this instance one fit moves by 2.2e-6, the others
    by 1e-10 or less)."""
    X, y, rows, scale = _wide_subsamples(7, 6)
    cfg = SolverConfig(loss_weight=0.8)
    chosen = [b for b, sol in enumerate(solver.fit_l1_batch(X, y, rows, cfg, scale))
              if sol.w[0] != 0.0]
    assert chosen
    X[rows[chosen[0]], 0] = 2.5  # a selected column, now constant on one subsample
    sols = solver.fit_l1_batch(X, y, rows, cfg, scale)
    for b, sol in enumerate(sols):
        want = fit_l1_logistic(X[rows[b]], y[rows[b]], cfg, column_scale=scale[b])
        assert sol.converged and want.converged
        np.testing.assert_array_equal(sol.support(cfg.support_epsilon),
                                      want.support(cfg.support_epsilon))
        assert sol.objective == pytest.approx(want.objective, rel=1e-11)
        np.testing.assert_allclose(sol.w, want.w, rtol=0, atol=1e-5)
        assert sol.c == pytest.approx(want.c, abs=1e-5)
    assert sols[chosen[0]].w[0] == 0.0


@pytest.mark.parametrize("m", [40, 1100])
def test_kernel_calls_split_by_memory_invisibly(monkeypatch, m):
    """7 fits made as kernel calls of 3, 3 and 1, as the resampling loop
    splits them when one batch array holds only 3 problems. The fits, which
    depend on their batch mates in the last digits, keep their supports and
    their objectives to 1e-11, at a few columns and at more than a
    thousand."""
    X, y, rows, scale = _wide_subsamples(3, 7, m=m)
    cfg = SolverConfig(loss_weight=0.8)
    whole = solver.fit_l1_batch(X, y, rows, cfg, scale)
    sizes, real = [], solver._fit_l1_working_set

    def recording(first, y_stack, *args):
        sizes.append(y_stack.shape[0])
        return real(first, y_stack, *args)

    monkeypatch.setattr(solver, "_fit_l1_working_set", recording)
    split = [sol for part in (slice(0, 3), slice(3, 6), slice(6, None))
             for sol in solver.fit_l1_batch(X, y, rows[part], cfg, scale[part])]
    assert sizes == [3, 3, 1]
    assert any(sol.support(cfg.support_epsilon).size for sol in whole)
    for one, part in zip(whole, split, strict=True):
        assert one.converged and part.converged
        np.testing.assert_array_equal(part.support(cfg.support_epsilon),
                                      one.support(cfg.support_epsilon))
        assert part.objective == pytest.approx(one.objective, rel=1e-11)


def _traced_peak(fit):
    """Bytes that ``fit()`` allocates above what is held when it starts, at
    its peak, by tracemalloc (numpy reports its buffers to it)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fit()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_stacked_fit_holds_at_most_one_more_stack():
    """A stack of 50 problems of 25 x 120 (the README tour's rss run):
    standardize_stack works in place, holding a few matrices at most, and
    fit_l1_standardized allocates at most one stack, as the kernel works on
    views of the stack and gathers only half of it at most."""
    rng = np.random.default_rng(4)
    B, k, m = 50, 25, 120
    X = rng.normal(size=(B * k, m)) + 0.6 * rng.normal(size=(B * k, 1))
    y = np.where(X[:, :3].sum(axis=1) + rng.normal(size=B * k) > 0, 1.0, -1.0)
    rows = np.arange(B * k).reshape(B, k)
    cfg = SolverConfig(loss_weight=0.5)
    stack = X[rows]
    assert _traced_peak(lambda: solver.standardize_stack(stack)) <= 3 * stack[0].nbytes
    assert _traced_peak(lambda: solver.fit_l1_standardized(stack, y[rows], cfg)) \
        <= stack.nbytes


def test_wide_batch_peak_per_problem():
    """A wide call of 64 problems (25 of 50 rows, 1200 columns: the README
    tour's rand-l1 shape) peaks below 5 m-long float rows per problem,
    counting the batch's fixed costs: the column statistics, the active
    columns and the kernel, but no weight row until the end."""
    rng = np.random.default_rng(3)
    n, m, B, k = 50, 1200, 64, 25
    X = rng.normal(size=(n, m)) + 2.0 * rng.normal(size=m)
    signal = X[:, :4].sum(axis=1)
    y = np.where(signal - signal.mean() + rng.normal(size=n) > 0, 1.0, -1.0)
    rows = np.sort(np.stack([rng.choice(n, size=k, replace=False) for _ in range(B)]), axis=1)
    scale = rng.uniform(0.5, 1.0, size=(B, m))
    cfg = SolverConfig(loss_weight=0.5)
    assert _traced_peak(lambda: solver.fit_l1_batch(X, y, rows, cfg, scale)) < 5 * B * m * 8


@st.composite
def _subsample_stacks(draw):
    """Row subsamples of a matrix with offset columns, columns of 4.2 and of
    0, columns with |mean| / std about 1e8, and columns constant (4.2) on
    the first subsample's rows only."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(2, 40)), draw(st.integers(1, 12))
    B, k = draw(st.integers(1, 5)), draw(st.integers(1, n))
    X = rng.normal(size=(n, m)) * rng.uniform(0.1, 3.0, size=m) + 20.0 * rng.normal(size=m)
    kind = rng.integers(0, 5, size=m)
    X[:, kind == 1] = 4.2
    X[:, kind == 2] = 0.0
    X[:, kind == 3] = 1e5 + 1e-3 * rng.normal(size=(n, int((kind == 3).sum())))
    rows = np.sort(np.stack([rng.choice(n, size=k, replace=False) for _ in range(B)]), axis=1)
    X[np.ix_(rows[0], np.flatnonzero(kind == 4))] = 4.2
    return X, rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_subsample_stacks())
def test_stacked_standardization_matches_each_matrix(instance):
    """The stack standardize_stack makes of row subsamples' matrices holds
    each subsample's standardize_columns output, with zero columns where a
    column is constant on the drawn rows."""
    X, rows = instance
    Z = solver.standardize_stack(X[rows])
    for b in range(rows.shape[0]):
        Zb, _, _, keep = standardize_columns(X[rows[b]])
        want = np.zeros((rows.shape[1], X.shape[1]))
        want[:, keep] = Zb
        assert Z[b].tobytes() == want.tobytes()


def _stop_at_different_iterations():
    """A narrow stack whose problems stop at different iterations, some of
    them after the kernel has gathered the live ones: columns constant on
    some subsamples, and loss weights that make some fits take long."""
    rng = np.random.default_rng(21)
    B, k, m = 12, 20, 9
    X = rng.normal(size=(B * k, m)) + 0.5 * rng.normal(size=(B * k, 1))
    y = np.where(X[:, 0] - X[:, 1] + rng.normal(size=B * k) > 0, 1.0, -1.0)
    rows = np.arange(B * k).reshape(B, k)
    X[rows[::3], 4] = 2.5  # constant on every third subsample
    X[:, 7] = 0.0  # constant everywhere
    return X[rows], y[rows]


def test_standardized_fits_only_read_their_stack():
    """fit_l1_standardized leaves its stack byte for byte as it was, also
    when problems stop at different iterations and the kernel gathers the
    live ones into a stack of its own."""
    stack, y = _stop_at_different_iterations()
    Z = solver.standardize_stack(stack)
    before = Z.tobytes()
    sols = solver.fit_l1_standardized(Z, y, SolverConfig(loss_weight=2.0))
    assert Z.tobytes() == before
    iters = {sol.n_iters for sol in sols}
    assert len(iters) > 2 and all(sol.converged for sol in sols)
    # more than half the problems stop before the last one: the kernel gathered
    assert sum(sol.n_iters < max(iters) for sol in sols) * 2 >= len(sols)


def test_zero_columns_keep_weight_positive_zero():
    """A column constant in its matrix gets weight +0.0 byte for byte, on
    the stacked path, where it is a zero column, and through fit_l1_batch,
    where it never enters a working set."""
    stack, y = _stop_at_different_iterations()
    cfg = SolverConfig(loss_weight=2.0)
    Z = solver.standardize_stack(stack.copy())
    assert not Z[::3, :, 4].any() and not Z[:, :, 7].any()
    X, rows = stack.reshape(-1, stack.shape[2]), np.arange(y.size).reshape(y.shape)
    for sols in (solver.fit_l1_standardized(Z, y, cfg),
                 solver.fit_l1_batch(X, y.reshape(-1), rows, cfg)):
        for b, sol in enumerate(sols):
            zero = [4, 7] if b % 3 == 0 else [7]
            assert sol.w[zero].tobytes() == np.zeros(len(zero)).tobytes()
        assert any(sol.w[4] != 0.0 for sol in sols[1::3])
