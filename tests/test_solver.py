import math

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
    logistic_loss_and_grad,
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
    """Append ``pad`` Gaussian noise columns; past 1024 columns in all, the
    L1 fit takes the working-set path."""
    noise = np.random.default_rng(seed).normal(size=(X.shape[0], pad))
    return np.hstack([X, noise])


# ----------------------------------------------------------- loss and grad


def test_loss_at_zero_is_n_log_two():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(7, 4))
    y = np.where(rng.random(7) < 0.5, 1, -1)
    loss, _, _ = logistic_loss_and_grad(X, y, np.zeros(4), 0.0)
    assert loss == pytest.approx(7 * math.log(2), abs=1e-14)


def test_loss_huge_margin_is_tiny_and_finite():
    # single sample at margin 100: log(1 + e^-100) <= 4e-44
    loss, gw, gc = logistic_loss_and_grad(np.array([[100.0]]), np.array([1]),
                                          np.array([1.0]), 0.0)
    assert 0.0 <= loss <= 4e-44
    assert math.isfinite(loss) and math.isfinite(gc) and np.isfinite(gw).all()


def test_loss_stable_at_extreme_margins():
    X = np.array([[1e4], [-1e4]])
    y = np.array([1, -1])
    for w in ([1.0], [-1.0]):
        loss, gw, gc = logistic_loss_and_grad(X, y, np.array(w), 0.5)
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
            loss, _, _ = logistic_loss_and_grad(X, y, theta[:3], theta[3])
            return loss

        _, gw, gc = logistic_loss_and_grad(X, y, w0, c0)
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


def test_constant_column_weight_is_exactly_zero(pad=0):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(8, 3))
    X[:, 1] = 7.7
    y = np.where(rng.random(8) < 0.5, 1, -1)
    if np.all(y == y[0]):
        y[0] = -y[0]
    X = _pad_with_noise(X, pad, 40)
    sol = fit_l1_logistic(X, y, SolverConfig(loss_weight=1.0))
    assert sol.w[1] == 0.0


def test_constant_column_weight_is_exactly_zero_wide_path():
    test_constant_column_weight_is_exactly_zero(pad=1100)


def test_column_scale_of_ones_changes_nothing(pad=0):
    rng = np.random.default_rng(5)
    X, y = _random_instance(rng)
    X = _pad_with_noise(X, pad, 41)
    cfg = SolverConfig(loss_weight=1.5)
    a = fit_l1_logistic(X, y, cfg)
    b = fit_l1_logistic(X, y, cfg, column_scale=np.ones(X.shape[1]))
    np.testing.assert_array_equal(a.w, b.w)
    assert a.c == b.c


def test_column_scale_of_ones_changes_nothing_wide_path():
    test_column_scale_of_ones_changes_nothing(pad=1100)


def test_column_scale_can_push_a_column_out_of_the_support(pad=0):
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


def test_column_scale_can_push_a_column_out_of_the_support_wide_path():
    test_column_scale_can_push_a_column_out_of_the_support(pad=1100)


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
        # a ridge on Z is a ridge of 1 on Z / sqrt(ridge); at that scale the
        # oracle's finite-difference self-check holds for any ridge
        k = math.sqrt(ridge) or 1.0
        ou, oc = oracles.l2_bfgs_minimize(_standardized(X) / k, y.astype(float), ridge / k**2)
        np.testing.assert_allclose(sol.w, ou / k, atol=1e-4)
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
    """Wide problems route through gradient screening; the answer must be the
    same as padding the same columns into a small direct solve."""
    rng = np.random.default_rng(11)
    n, m_signal = 30, 3
    X_signal = rng.normal(size=(n, m_signal))
    y = np.where(X_signal[:, 0] - X_signal[:, 2] + 0.5 * rng.normal(size=n) > 0, 1, -1)
    X_noise = rng.normal(size=(n, 1400))
    X = np.hstack([X_signal, X_noise])
    cfg = SolverConfig(loss_weight=0.8, tol_kkt=1e-9)
    wide = fit_l1_logistic(X, y, cfg)  # 1403 columns: screening path
    assert wide.kkt_residual <= cfg.tol_kkt
    support = np.flatnonzero(np.abs(wide.w) > cfg.support_epsilon)
    assert support.size > 0
    narrow = fit_l1_logistic(X[:, support], y, cfg)  # direct path
    np.testing.assert_allclose(wide.w[support], narrow.w, atol=1e-5)
    assert wide.c == pytest.approx(narrow.c, abs=1e-5)


def test_implicit_gradient_matches_explicit_columns():
    """The screen's Z'g must equal the product with the built columns, also
    away from the intercept optimum where sum(g) is far from 0, on a column
    whose mean is far larger than its std, and on constant columns, one of
    them with a std that rounds to a tiny positive value."""
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 50)) * rng.uniform(0.5, 3.0, size=50) + 20.0 * rng.normal(size=50)
    X[:, 7] = 4.2  # mean of 30 copies rounds, so std is about 1e-15, not 0
    X[:, 8] = 0.0
    X[:, 9] = 1e5 + 1e-3 * rng.normal(size=30)  # |mean| / std is about 1e8
    scale = rng.uniform(0.5, 1.0, size=50)
    cols = solver._ImplicitColumns(X, scale)
    assert cols.std[7] > 0.0 and cols.exact.tolist() == [9]
    mean, std = X.mean(axis=0), X.std(axis=0)
    keep = std > 30 * np.finfo(np.float64).eps * np.abs(mean)
    assert keep.sum() == 48
    Z = np.zeros_like(X)
    Z[:, keep] = ((X[:, keep] - mean[keep]) / std[keep]) * scale[keep]
    np.testing.assert_array_equal(cols.columns(np.flatnonzero(keep)), Z[:, keep])
    gvec = rng.uniform(0.0, 1.0, size=30)  # sum(g) is about 15
    got = cols.gradient(gvec)
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
    want_w, want_c, _, _, want_conv, _ = oracles.fit_l1_working_set_reference(
        X, y, cfg, scale, solver._prox_solve)
    assert want_conv and sol.converged
    assert sol.kkt_residual <= cfg.tol_kkt
    np.testing.assert_array_equal(sol.support(cfg.support_epsilon),
                                  np.flatnonzero(np.abs(want_w) > cfg.support_epsilon))
    np.testing.assert_allclose(sol.w, want_w, rtol=0, atol=1e-5)
    assert sol.c == pytest.approx(want_c, abs=1e-5)
    assert (sol.w[const] == 0.0).all()
