"""Evaluation harness tests: PR curves, top-T, CV threshold, permutation FP."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rss_select.data import Dataset, StabilityScores
from rss_select.baselines import ttest_scores
from rss_select.evaluation import (
    cv_threshold,
    permutation_fp_estimate,
    precision_recall_curve,
    prediction_accuracy,
    top_t_selection,
)

import oracles


def test_pr_indicator_scores_reach_auc_one():
    scores = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    curve = precision_recall_curve(scores, {1, 3})
    assert_allclose(curve.auc, 1.0, atol=1e-15)


def test_pr_identical_scores_give_single_prevalence_point():
    curve = precision_recall_curve(np.full(8, 0.7), {0, 5})
    assert curve.points.shape == (1, 3)
    threshold, precision, recall = curve.points[0]
    assert threshold == 0.7
    assert_allclose(precision, 2.0 / 8.0, rtol=1e-15)
    assert recall == 1.0


def test_pr_pinned_five_feature_instance():
    """scores [0.9,0.8,0.3,0.2,0.1] with truth {0,2}: every threshold
    enumerated by hand and by the brute-force oracle."""
    scores = np.array([0.9, 0.8, 0.3, 0.2, 0.1])
    truth = {0, 2}
    curve = precision_recall_curve(scores, truth)

    expected = np.array([
        [0.9, 1.0, 0.5],
        [0.8, 0.5, 0.5],
        [0.3, 2.0 / 3.0, 1.0],
        [0.2, 0.5, 1.0],
        [0.1, 0.4, 1.0],
    ])
    assert_allclose(curve.points, expected, rtol=1e-15)
    assert_allclose(curve.auc, 0.5 + 0.5 * (0.5 + 2.0 / 3.0) / 2.0, rtol=1e-15)

    assert_allclose(curve.points, oracles.pr_points_bruteforce(scores, truth), rtol=1e-15)
    assert_allclose(curve.auc, oracles.pr_auc_bruteforce(curve.points), rtol=1e-15)


def test_pr_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(0)
    for trial in range(30):
        p = int(rng.integers(2, 13))
        # coarse value set forces plenty of ties
        scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=p)
        n_truth = int(rng.integers(1, p + 1))
        truth = set(rng.choice(p, size=n_truth, replace=False).tolist())
        curve = precision_recall_curve(scores, truth)
        assert_allclose(curve.points, oracles.pr_points_bruteforce(scores, truth), rtol=1e-14)
        assert_allclose(curve.auc, oracles.pr_auc_bruteforce(curve.points), rtol=1e-14)
        # invariants: thresholds strictly descending, recall non-increasing
        # with threshold, everything inside [0, 1]
        assert (np.diff(curve.points[:, 0]) < 0).all()
        assert (np.diff(curve.points[:, 2]) >= 0).all()
        assert ((curve.points[:, 1:] >= 0) & (curve.points[:, 1:] <= 1)).all()
        assert 0.0 <= curve.auc <= 1.0


def test_pr_auc_invariant_to_monotone_transforms():
    rng = np.random.default_rng(1)
    scores = rng.uniform(size=20)
    truth = {1, 4, 9, 16}
    base = precision_recall_curve(scores, truth)
    for transform in [np.exp, lambda s: 3.0 * s + 7.0, lambda s: s**3]:
        curve = precision_recall_curve(transform(scores), truth)
        assert_allclose(curve.auc, base.auc, rtol=1e-12)
        assert_allclose(curve.points[:, 1:], base.points[:, 1:], rtol=1e-12)


def test_pr_rejects_empty_truth_and_bad_scores():
    with pytest.raises(ValueError, match="truth"):
        precision_recall_curve(np.ones(4), set())
    with pytest.raises(ValueError, match="finite"):
        precision_recall_curve(np.array([1.0, np.nan]), {0})


def test_top_t_whole_range_and_sorted_case():
    scores = np.array([0.3, 0.9, 0.1, 0.5])
    assert_array_equal(np.sort(top_t_selection(scores, 4)), np.arange(4))
    assert_array_equal(top_t_selection(scores, 2), [1, 3])


def test_top_t_breaks_ties_by_lowest_index():
    scores = np.array([5.0, 3.0, 3.0, 3.0, 1.0])
    assert_array_equal(top_t_selection(scores, 2), [0, 1])
    assert_array_equal(top_t_selection(scores, 3), [0, 1, 2])


def test_top_t_matches_bruteforce_with_ties():
    rng = np.random.default_rng(2)
    for trial in range(25):
        p = int(rng.integers(1, 13))
        scores = rng.choice([0.0, 0.5, 1.0], size=p)
        T = int(rng.integers(1, p + 1))
        assert_array_equal(top_t_selection(scores, T), sorted(oracles.top_t_bruteforce(scores, T)))


def test_top_t_bounds_checked():
    scores = np.ones(3)
    with pytest.raises(ValueError, match="T"):
        top_t_selection(scores, 0)
    with pytest.raises(ValueError, match="T"):
        top_t_selection(scores, 4)


def _planted_cv_dataset(seed=0, n=30, n_noise=40):
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.repeat([1, -1], n // 2))
    X = rng.normal(size=(n, 2 + n_noise))
    X[:, 0] = y + 0.05 * rng.normal(size=n)
    X[:, 1] = y + 0.05 * rng.normal(size=n)
    scores = np.full(2 + n_noise, 0.45)
    scores[:2] = 0.55
    return Dataset(X=X, y=y), scores


def test_cv_threshold_single_grid_value_passes_through():
    ds, scores = _planted_cv_dataset()
    assert cv_threshold(ds, scores, grid=(0.4,)) == 0.4


def test_cv_threshold_keeps_the_separating_cluster():
    # only tau=0.5 isolates the planted pair; 0.6+ select nothing and are
    # skipped, lower taus drag 40 noise features in
    ds, scores = _planted_cv_dataset()
    assert cv_threshold(ds, scores) == 0.5


def test_cv_threshold_ties_go_to_the_larger_threshold():
    ds, scores = _planted_cv_dataset(seed=1, n_noise=1)
    scores[:] = 0.2
    scores[:2] = 0.55  # 0.3, 0.4, 0.5 all select exactly the planted pair
    assert cv_threshold(ds, scores) == 0.5


def test_cv_threshold_errors_when_nothing_selectable():
    ds, scores = _planted_cv_dataset(seed=2)
    with pytest.raises(ValueError, match="zero features"):
        cv_threshold(ds, np.full(ds.p, 0.1))
    with pytest.raises(ValueError, match="grid"):
        cv_threshold(ds, scores, grid=())
    with pytest.raises(ValueError, match="align"):
        cv_threshold(ds, scores[:-1])


@pytest.mark.parametrize("n_folds", [0, 1, 11])
def test_cv_threshold_needs_two_to_the_smaller_class_count_folds(n_folds):
    ds, scores = _planted_cv_dataset()
    keep = np.flatnonzero(ds.y == 1).tolist() + np.flatnonzero(ds.y == -1)[:10].tolist()
    ds = Dataset(X=ds.X[keep], y=ds.y[keep])  # 15 rows of class +1, 10 of class -1
    assert cv_threshold(ds, scores, n_folds=10) == 0.5
    with pytest.raises(ValueError, match=r"n_folds must lie in \[2, 10\]"):
        cv_threshold(ds, scores, n_folds=n_folds)


def test_prediction_accuracy_separable_feature_is_perfect():
    ds, _ = _planted_cv_dataset(seed=3)
    assert prediction_accuracy(ds, ds, {0, 1}) == 1.0


def test_prediction_accuracy_constant_features_fall_back_to_majority():
    X = np.zeros((10, 2))
    y = np.array([1] * 7 + [-1] * 3)
    ds = Dataset(X=X, y=y)
    assert prediction_accuracy(ds, ds, {0}) == 0.7
    flipped = Dataset(X=X, y=-y)
    assert prediction_accuracy(flipped, flipped, {0}) == 0.7


def test_prediction_accuracy_hand_boundary():
    # symmetric one-feature training data puts the boundary at x = 0
    train = Dataset(
        X=np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [-2.0, 0.0]]),
        y=np.array([1, 1, -1, -1]),
    )
    test_X = np.array([[0.5, 9.0], [-0.5, 9.0], [3.0, -9.0], [-3.0, 0.0]])
    right = Dataset(X=test_X, y=np.array([1, -1, 1, -1]))
    assert prediction_accuracy(train, right, {0, 1}) == 1.0
    half = Dataset(X=test_X, y=np.array([1, 1, -1, -1]))
    assert prediction_accuracy(train, half, {0, 1}) == 0.5


def test_prediction_accuracy_rejects_empty_features():
    ds, _ = _planted_cv_dataset(seed=4)
    with pytest.raises(ValueError, match="empty"):
        prediction_accuracy(ds, ds, set())


def _threshold_selector(ds):
    counts = (ttest_scores(ds) > 2.5).astype(np.int64)
    return StabilityScores(counts=counts, K=1)


def _noise_dataset(seed, n=24, p=50):
    rng = np.random.default_rng(seed)
    return Dataset(X=rng.normal(size=(n, p)), y=rng.permutation(np.repeat([1, -1], n // 2)))


def test_permutation_estimate_zero_above_one():
    report = permutation_fp_estimate(_noise_dataset(5), _threshold_selector, tau=1.5, B=3)
    assert report.estimate == 0.0
    assert report.observed_count == 0


def test_permutation_single_replicate_is_its_own_mean():
    report = permutation_fp_estimate(_noise_dataset(6), _threshold_selector, tau=0.5, B=1)
    assert report.B == 1
    assert len(report.permuted_counts) == 1
    assert report.estimate == report.permuted_counts[0]


def test_permutation_report_is_deterministic():
    ds = _noise_dataset(7)
    a = permutation_fp_estimate(ds, _threshold_selector, tau=0.5, B=5, seed=2)
    b = permutation_fp_estimate(ds, _threshold_selector, tau=0.5, B=5, seed=2)
    assert a == b
    assert a.estimate == float(np.mean(a.permuted_counts))
    observed = int((_threshold_selector(ds).normalized >= 0.5).sum())
    assert a.observed_count == observed


def test_permutation_validation():
    ds = _noise_dataset(8)
    with pytest.raises(ValueError, match="B"):
        permutation_fp_estimate(ds, _threshold_selector, tau=0.5, B=0)
    with pytest.raises(ValueError, match="finite"):
        permutation_fp_estimate(ds, _threshold_selector, tau=float("inf"), B=2)
