"""Evaluation harness tests: PR curves, top-T, CV threshold, permutation FP."""

import dataclasses
import itertools
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rss_select import solver, stability
from rss_select.data import Dataset, GridGeometry, Parcellation, RngStream, StabilityScores
from rss_select.baselines import RandL1Config, randomized_l1, ttest_scores
from rss_select.evaluation import (
    PermutationReport,
    cv_threshold,
    permutation_fp_estimate,
    precision_recall_curve,
    prediction_accuracy,
    top_t_selection,
)
from rss_select.solver import SolverConfig
from rss_select.stability import StabilityConfig, threshold_scores

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


def test_prediction_accuracy_rejects_training_labels_of_one_class():
    """No finite intercept fits one class, so there is no model to test;
    before, the fit's margins all predicted that class."""
    X = np.random.default_rng(5).normal(size=(10, 4))
    train = Dataset(X=X, y=np.ones(10, dtype=int))
    with pytest.raises(ValueError, match="training labels hold one class"):
        prediction_accuracy(train, train, {0, 1})


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


# --- permutation estimate over rss: designs shared across replicates ---


def _grid_dataset(seed, n, dims, signal_cols=0):
    rng = np.random.default_rng(seed)
    coords = np.array(list(itertools.product(*(range(d) for d in dims))))
    geometry = GridGeometry(dims=dims, mask=coords)
    X = rng.normal(size=(n, geometry.p))
    y = rng.permutation(np.repeat([1, -1], n // 2))
    X[:, :signal_cols] += 0.8 * y[:, None]  # give the fits something to select
    return Dataset(X=X, y=y, geometry=geometry)


def _one_by_one(dataset, selector, tau, B, seed):
    """The estimate as separate selector calls on datasets built in full,
    outside any estimate."""
    observed = threshold_scores(selector(dataset), tau).size
    counts = []
    for b in range(1, B + 1):
        gen = RngStream(seed, b).generator()
        permuted = Dataset(X=dataset.X, y=dataset.y[gen.permutation(dataset.n)],
                           geometry=dataset.geometry)
        counts.append(threshold_scores(selector(permuted), tau).size)
    return PermutationReport(tau=float(tau), B=B, estimate=float(np.mean(counts)),
                             observed_count=int(observed),
                             permuted_counts=tuple(int(c) for c in counts))


def _rss_instances():
    # K=10 in lockstep batches of 4 (4, 4 and 2) under the patched budget
    ds = _grid_dataset(5, 20, (6, 6, 1), signal_cols=9)
    parc = Parcellation(assignment=np.arange(36) // 9, q=4)
    config = StabilityConfig(solver=SolverConfig(loss_weight=0.5), K=10, master_seed=9,
                             block_shape=(2, 2, 1))
    yield "three-batches", ds, parc, config, 0.1, 4 * 10 * 4
    # criterion 7's grid, parcellation and configuration, trial 0
    ds = _grid_dataset(10_000, 20, (6, 6, 1))
    config = StabilityConfig(solver=SolverConfig(loss_weight=4.0), K=10, alpha=0.5, beta=0.9,
                             block_shape=(2, 2, 1), master_seed=0)
    yield "criterion-7", ds, parc, config, 0.9, None


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("instance", ["three-batches", "criterion-7"])
def test_permutation_estimate_over_rss_matches_calls_one_by_one(monkeypatch, instance, threads):
    """Inside the estimate, later rss runs reuse the first run's design: the
    report, every call's counts and every stack the solver receives match
    the same calls made one by one outside an estimate. Each batch's fits
    in every run receive the design's own stack object, which is unchanged
    after the estimate."""
    _, ds, parc, config, tau, budget = next(i for i in _rss_instances() if i[0] == instance)
    if budget is not None:
        monkeypatch.setattr(solver, "_BATCH_ENTRIES", budget)
        assert solver.lockstep_batch_size(10 * 4) == 4
    received, real = [], stability.fit_l1_standardized

    def recording(stack, *args):
        received.append((stack, stack.tobytes()))
        return real(stack, *args)

    monkeypatch.setattr(stability, "fit_l1_standardized", recording)
    calls = []

    def selector(d):
        scores = stability.run_stability_selection(d, parc, config, threads=threads)
        calls.append(scores.counts)
        return scores

    report = permutation_fp_estimate(ds, selector, tau=tau, B=3, seed=4)
    shared_calls, shared = calls[:], received[:]
    calls.clear()
    received.clear()
    assert report == _one_by_one(ds, selector, tau, 3, 4)
    assert len(shared_calls) == len(calls) == 4
    assert sum(c.sum() for c in calls) > 0
    for got, want in zip(shared_calls, calls):
        assert_array_equal(got, want)
    batches = 3 if budget else 1
    assert len(shared) == len(received) == 4 * batches
    designs = {id(stack): stack for stack, _ in shared}
    assert len(designs) == batches
    for stack, as_received in shared:
        assert stack.tobytes() == as_received
    # batches on two threads reach the solver in either order
    assert sorted(b for _, b in shared) == sorted(b for _, b in received)


def _count_design_work(monkeypatch):
    counts = {"cover": 0, "draw": 0, "average": 0}
    real_init, real_draw = stability.BlockCover.__init__, stability.BlockCover.draw
    real_average = stability.average_supervoxels

    def init(self, *args):
        counts["cover"] += 1
        real_init(self, *args)

    def draw(self, *args):
        counts["draw"] += 1
        return real_draw(self, *args)

    def average(*args, **kwargs):
        counts["average"] += 1
        return real_average(*args, **kwargs)

    monkeypatch.setattr(stability.BlockCover, "__init__", init)
    monkeypatch.setattr(stability.BlockCover, "draw", draw)
    monkeypatch.setattr(stability, "average_supervoxels", average)
    return counts


def test_permutation_estimate_draws_and_averages_once(monkeypatch):
    """B=3 gives four rss runs of K iterations, but one design: K block
    draws and K averagings, not 4K, and one block cover. A second estimate
    makes its design again; outside an estimate every run makes its own."""
    _, ds, parc, config, tau, _ = next(_rss_instances())
    counts = _count_design_work(monkeypatch)

    def selector(d):
        return stability.run_stability_selection(d, parc, config)

    permutation_fp_estimate(ds, selector, tau=tau, B=3)
    assert counts == {"cover": 1, "draw": config.K, "average": config.K}
    permutation_fp_estimate(ds, selector, tau=tau, B=3)
    assert counts == {"cover": 2, "draw": 2 * config.K, "average": 2 * config.K}
    selector(ds)
    selector(ds)
    assert counts == {"cover": 4, "draw": 4 * config.K, "average": 4 * config.K}
    assert stability._DESIGNS.get() is None


def test_shared_designs_survive_thread_switches(monkeypatch):
    """Ten batches on four pool threads, switching threads every
    microsecond: a lost store of a batch's design would draw it again."""
    _, ds, parc, config, tau, budget = next(_rss_instances())
    config = dataclasses.replace(config, K=40)
    monkeypatch.setattr(solver, "_BATCH_ENTRIES", budget)
    counts = _count_design_work(monkeypatch)

    def selector(d):
        return stability.run_stability_selection(d, parc, config, threads=4)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = permutation_fp_estimate(ds, selector, tau=tau, B=3, seed=5)
    finally:
        sys.setswitchinterval(interval)
    assert counts == {"cover": 1, "draw": config.K, "average": config.K}
    assert report == _one_by_one(ds, selector, tau, 3, 5)


def test_permutation_estimate_that_raises_keeps_no_design(monkeypatch):
    """The scope ends with the estimate, also when a selector raises."""
    _, ds, parc, config, tau, _ = next(_rss_instances())
    seen = []

    def selector(d):
        seen.append(stability._DESIGNS.get())
        if len(seen) == 2:
            raise RuntimeError("selector failed")
        return stability.run_stability_selection(d, parc, config)

    with pytest.raises(RuntimeError, match="selector failed"):
        permutation_fp_estimate(ds, selector, tau=tau, B=3)
    assert seen[0] is seen[1] is not None and "batches" in seen[1]
    assert stability._DESIGNS.get() is None
    counts = _count_design_work(monkeypatch)
    stability.run_stability_selection(ds, parc, config)
    assert counts == {"cover": 1, "draw": config.K, "average": config.K}


def test_selector_changing_its_config_gets_no_other_design():
    """A selector whose master seed, beta, parcellation or dataset changes
    from call to call gets each call's own counts."""
    _, ds, parc, config, tau, _ = next(_rss_instances())
    other_parc = Parcellation(assignment=np.arange(ds.p) % parc.q, q=parc.q)
    other_ds = Dataset(X=ds.X[:, ::-1], y=ds.y, geometry=ds.geometry)
    variants = [
        (ds, parc, config),
        (ds, parc, dataclasses.replace(config, master_seed=config.master_seed + 1)),
        (ds, parc, dataclasses.replace(config, beta=0.3)),
        (ds, parc, config),
        (ds, other_parc, config),
        (other_ds, parc, config),
    ]
    rounds = []

    def selector(d):
        calls = rounds[-1]
        data, p, c = variants[len(calls) % len(variants)]
        data = d if data is ds else Dataset(X=data.X, y=d.y, geometry=d.geometry)
        scores = stability.run_stability_selection(data, p, c)
        calls.append(scores.counts)
        return scores

    rounds.append([])
    report = permutation_fp_estimate(ds, selector, tau=tau, B=11)
    rounds.append([])
    assert report == _one_by_one(ds, selector, tau, 11, 0)
    shared, alone = rounds
    assert len(shared) == len(alone) == 12
    for got, want in zip(shared, alone):
        assert_array_equal(got, want)
    assert len({c.tobytes() for c in alone}) > 2


def test_rand_l1_and_plain_selectors_are_unchanged_by_the_estimate():
    """Selectors other than rss see only the permuted datasets, which now
    skip the X check: their reports are those of the calls one by one."""
    _, ds, _, _, _, _ = next(_rss_instances())
    config = RandL1Config(solver=SolverConfig(loss_weight=0.5), K=20, master_seed=3)

    def rand_l1(d):
        return randomized_l1(d, config, threads=2)

    for selector, tau in ((rand_l1, 0.3), (_threshold_selector, 0.5)):
        report = permutation_fp_estimate(ds, selector, tau=tau, B=3, seed=1)
        assert report == _one_by_one(ds, selector, tau, 3, 1)
        assert report.observed_count > 0


def test_permuted_datasets_keep_x_and_geometry_objects():
    _, ds, _, _, _, _ = next(_rss_instances())
    seen = []

    def selector(d):
        seen.append(d)
        return _threshold_selector(d)

    permutation_fp_estimate(ds, selector, tau=0.5, B=3)
    assert all(d.X is ds.X and d.geometry is ds.geometry for d in seen)
    assert [sorted(d.y) for d in seen] == [sorted(ds.y)] * 4
    assert sum(not np.array_equal(d.y, ds.y) for d in seen[1:]) == 3
