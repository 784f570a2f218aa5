"""Baseline scorer tests: Welch t, single-fit weights, randomized L1."""

import numpy as np
import pytest
import scipy.stats
from numpy.testing import assert_allclose, assert_array_equal

from rss_select.baselines import (
    RandL1Config,
    l1_weight_scores,
    l2_weight_scores,
    randomized_l1,
    ttest_scores,
)
from rss_select.data import Dataset, RngStream
from rss_select import baselines, solver
from rss_select.solver import SolverConfig, fit_l1_logistic, standardize_columns
from rss_select.stability import draw_row_subsample

import oracles


def _dataset(X, y=None):
    X = np.asarray(X, dtype=np.float64)
    if y is None:
        half = X.shape[0] // 2
        y = np.array([1] * half + [-1] * (X.shape[0] - half))
    return Dataset(X=X, y=np.asarray(y))


def test_ttest_identical_classes_score_zero():
    block = np.arange(12.0).reshape(4, 3)
    X = np.vstack([block, block])
    ds = _dataset(X, y=[1] * 4 + [-1] * 4)
    assert_array_equal(ttest_scores(ds), np.zeros(3))


def test_ttest_hand_computed_value():
    # case column [2,4] vs control column [1,3]: |t| = 1/sqrt(2)
    ds = _dataset([[2.0], [4.0], [1.0], [3.0]], y=[1, 1, -1, -1])
    assert_allclose(ttest_scores(ds), [1.0 / np.sqrt(2.0)], rtol=1e-15)


def test_ttest_planted_shift_ranks_first():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 30))
    y = np.array([1] * 20 + [-1] * 20)
    X[y == 1, 7] += 3.0
    scores = ttest_scores(_dataset(X, y))
    assert int(np.argmax(scores)) == 7


def test_ttest_matches_scipy_welch():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(15, 8)) * rng.uniform(0.5, 3.0, size=8)
    y = np.array([1] * 7 + [-1] * 8)
    ds = _dataset(X, y)
    ref = scipy.stats.ttest_ind(X[y == 1], X[y == -1], equal_var=False)
    assert_allclose(ttest_scores(ds), np.abs(ref.statistic), rtol=1e-12)


def test_ttest_invariant_to_column_rescaling():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(20, 6))
    ds = _dataset(X)
    scale = rng.uniform(0.1, 10.0, size=6)
    rescaled = _dataset(X * scale)
    assert_allclose(ttest_scores(rescaled), ttest_scores(ds), rtol=1e-12)


def test_ttest_constant_column_scores_zero():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 3))
    X[:, 1] = 4.2
    assert ttest_scores(_dataset(X))[1] == 0.0


def test_ttest_needs_two_samples_per_class():
    ds = _dataset([[1.0], [2.0], [3.0]], y=[1, -1, -1])
    with pytest.raises(ValueError, match="two samples"):
        ttest_scores(ds)


def test_l1_scores_vanish_when_loss_weight_is_tiny():
    rng = np.random.default_rng(4)
    ds = _dataset(rng.normal(size=(12, 5)))
    scores = l1_weight_scores(ds, SolverConfig(loss_weight=1e-12))
    assert (scores <= 1e-6).all()


def test_l1_scores_are_non_negative():
    rng = np.random.default_rng(5)
    ds = _dataset(rng.normal(size=(16, 6)))
    scores = l1_weight_scores(ds, SolverConfig(loss_weight=0.8))
    assert (scores >= 0).all()
    assert np.isfinite(scores).all()


def test_l1_support_matches_grid_oracle():
    rng = np.random.default_rng(6)
    y = np.array([1] * 5 + [-1] * 5)
    X = rng.normal(size=(10, 2))
    X[:, 0] += 1.5 * y  # planted signal in column 0
    ds = _dataset(X, y)
    scores = l1_weight_scores(ds, SolverConfig(loss_weight=0.7))

    Z, _, _, keep = standardize_columns(X)
    assert keep.all()
    w_star, _, _ = oracles.l1_grid_minimize(Z, y, 0.7)
    assert_array_equal(scores > 1e-8, np.abs(w_star) > 1e-8)


def test_l1_scores_on_labels_of_one_class_raise():
    """Labels of one class have no finite intercept, so the fit has no
    weights to score: the scorer raises instead of returning zeros."""
    rng = np.random.default_rng(8)
    ds = _dataset(rng.normal(size=(10, 30)), np.ones(10, dtype=int))
    with pytest.raises(RuntimeError, match="labels hold one class"):
        l1_weight_scores(ds, SolverConfig(loss_weight=1.0))


def test_l2_scores_on_labels_of_one_class_raise():
    """As for l1: the ridge fit of one class has no weights to score."""
    rng = np.random.default_rng(8)
    ds = _dataset(rng.normal(size=(10, 30)), np.ones(10, dtype=int))
    with pytest.raises(RuntimeError, match="the l2 fit did not converge: the labels hold one class"):
        l2_weight_scores(ds, 1.0)


def test_l2_scores_vanish_under_huge_ridge():
    rng = np.random.default_rng(7)
    ds = _dataset(rng.normal(size=(12, 5)))
    assert (l2_weight_scores(ds, 1e12) <= 1e-6).all()


def test_l2_scores_are_non_negative():
    rng = np.random.default_rng(8)
    ds = _dataset(rng.normal(size=(14, 4)))
    scores = l2_weight_scores(ds, 0.3)
    assert (scores >= 0).all()
    assert np.isfinite(scores).all()


def test_l2_magnitudes_match_descent_oracle():
    rng = np.random.default_rng(9)
    y = np.array([1] * 6 + [-1] * 6)
    X = rng.normal(size=(12, 2))
    X[:, 1] -= 1.0 * y
    ds = _dataset(X, y)
    scores = l2_weight_scores(ds, 0.5)

    Z, _, _, _ = standardize_columns(X)
    w_star, _ = oracles.l2_bfgs_minimize(Z, y, 0.5)
    assert_allclose(scores, np.abs(w_star), atol=1e-4)


def _rl1_manual_counts(ds, config):
    """Re-derive randomized L1 counts from the documented draw order."""
    counts = np.zeros(ds.p, dtype=np.int64)
    for k in range(config.K):
        gen = RngStream(config.master_seed, k).generator()
        rows = draw_row_subsample(ds.n, config.alpha, gen)
        scale = gen.uniform(config.weakness, 1.0, size=ds.p)
        sol = fit_l1_logistic(ds.X[rows], ds.y[rows], config.solver, column_scale=scale)
        counts[sol.support(config.solver.support_epsilon)] += 1
    return counts


def test_randomized_l1_follows_documented_draw_order():
    rng = np.random.default_rng(10)
    ds = _dataset(rng.normal(size=(30, 8)))
    config = RandL1Config(solver=SolverConfig(loss_weight=0.6), K=15, master_seed=21)
    scores = randomized_l1(ds, config)
    assert_array_equal(scores.counts, _rl1_manual_counts(ds, config))
    assert scores.K == 15


def test_randomized_l1_weakness_one_is_pure_row_subsampling():
    rng = np.random.default_rng(11)
    y = np.array([1] * 12 + [-1] * 12)
    X = rng.normal(size=(24, 6))
    X[:, 2] += 1.2 * y
    ds = _dataset(X, y)
    solver = SolverConfig(loss_weight=0.6)
    config = RandL1Config(solver=solver, K=20, weakness=1.0, master_seed=3)
    scores = randomized_l1(ds, config)

    plain = np.zeros(ds.p, dtype=np.int64)
    for k in range(config.K):
        gen = RngStream(config.master_seed, k).generator()
        rows = draw_row_subsample(ds.n, config.alpha, gen)
        gen.uniform(1.0, 1.0, size=ds.p)  # stream position, scaling is identity
        sol = fit_l1_logistic(ds.X[rows], ds.y[rows], solver)
        plain[sol.support(solver.support_epsilon)] += 1
    assert_array_equal(scores.counts, plain)


def test_randomized_l1_counts_bounded_by_k():
    rng = np.random.default_rng(12)
    ds = _dataset(rng.normal(size=(20, 5)))
    scores = randomized_l1(ds, RandL1Config(solver=SolverConfig(loss_weight=0.5), K=8))
    assert scores.counts.min() >= 0
    assert scores.counts.max() <= 8


def test_randomized_l1_separating_feature_wins():
    """One strongly separating feature among 50 noise features at K=100 must
    top the normalized scores."""
    rng = np.random.default_rng(13)
    n = 40
    y = np.array([1] * 20 + [-1] * 20)
    X = rng.normal(size=(n, 51))
    X[:, 0] = y + 0.05 * rng.normal(size=n)
    ds = _dataset(X, y)
    config = RandL1Config(solver=SolverConfig(loss_weight=0.5), K=100, master_seed=1)
    scores = randomized_l1(ds, config)
    assert scores.normalized[0] >= scores.normalized.max()
    assert scores.normalized[0] > 0.5


def test_randomized_l1_thread_count_is_invisible():
    rng = np.random.default_rng(14)
    ds = _dataset(rng.normal(size=(24, 10)))
    config = RandL1Config(solver=SolverConfig(loss_weight=0.5), K=12, master_seed=8)
    assert_array_equal(
        randomized_l1(ds, config, threads=1).counts,
        randomized_l1(ds, config, threads=4).counts,
    )


@pytest.mark.parametrize("p", [10, 1100])
def test_randomized_l1_counts_ignore_threads_and_batches(monkeypatch, record_batches, p):
    """With lockstep batches of 4 and K=10 (batches of 4, 4 and 2), every
    thread count gives the counts of one fit_l1_logistic per iteration, at
    a few columns and at more than a thousand."""
    rng = np.random.default_rng(16)
    y = np.array([1] * 15 + [-1] * 15)
    X = rng.normal(size=(30, p)) + 3.0 * rng.normal(size=p)
    X[:, :3] += np.outer(y, [1.0, -0.8, 0.6])
    ds = _dataset(X, y)
    config = RandL1Config(solver=SolverConfig(loss_weight=0.8), K=10, master_seed=2)
    monkeypatch.setattr(solver, "_BATCH_ENTRIES", 4 * p)  # 4 fits of p-long rows
    sizes = record_batches(baselines)
    want = _rl1_manual_counts(ds, config)
    assert want[:3].sum() > 0
    for threads in (1, 2, 3):
        sizes.clear()
        assert_array_equal(randomized_l1(ds, config, threads=threads).counts, want)
        assert sorted(sizes) == [2, 4, 4]


@pytest.mark.parametrize("p", [10, 1100])
def test_randomized_l1_batches_take_the_solver_rule(record_batches, p):
    """rand-l1 hands the solver batches of lockstep_batch_size(p)
    consecutive iterations, the last one shorter, at any column count."""
    rng = np.random.default_rng(17)
    ds = _dataset(rng.normal(size=(30, p)))
    config = RandL1Config(solver=SolverConfig(loss_weight=0.5), K=70, master_seed=5)
    sizes = record_batches(baselines)
    randomized_l1(ds, config)
    assert solver.lockstep_batch_size(p) == 64
    assert sizes == [64, 6]


def test_randomized_l1_widespread_non_convergence_aborts():
    rng = np.random.default_rng(15)
    ds = _dataset(rng.normal(size=(20, 12)))
    strangled = SolverConfig(loss_weight=0.5, max_iters=1, tol_kkt=1e-12)
    with pytest.raises(RuntimeError, match="failed to converge"):
        randomized_l1(ds, RandL1Config(solver=strangled, K=10, master_seed=4))


def test_rand_l1_config_validation():
    solver = SolverConfig(loss_weight=0.5)
    with pytest.raises(ValueError, match="K"):
        RandL1Config(solver=solver, K=0)
    with pytest.raises(ValueError, match="alpha"):
        RandL1Config(solver=solver, alpha=0.0)
    with pytest.raises(ValueError, match="weakness"):
        RandL1Config(solver=solver, weakness=1.0001)
    with pytest.raises(ValueError, match="threads"):
        randomized_l1(_dataset(np.zeros((4, 2))), RandL1Config(solver=solver), threads=0)
