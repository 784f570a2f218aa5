"""Evaluation against planted truth: PR curves, top-T sets, threshold
selection by cross-validation, permutation false-positive estimates, and
held-out prediction accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, RngStream, StabilityScores, with_permuted_labels
from .solver import apply_standardization, fit_l2_standardized, standardize_columns
from .solver import fit_l2_logistic  # noqa: F401  perfbench traces this name here
from .stability import sharing_designs, threshold_scores

DEFAULT_THRESHOLD_GRID = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def _as_index_array(features) -> np.ndarray:
    # plain sets are a natural way to pass feature collections around
    if isinstance(features, (set, frozenset)):
        features = sorted(features)
    return np.asarray(features, dtype=np.int64)


@dataclass(frozen=True)
class PRCurve:
    """PR points (threshold, precision, recall), thresholds descending.

    The area is trapezoidal over recall with a (recall 0, precision 1)
    anchor prepended, matching the convention that an empty selection has
    precision 1; a perfect indicator score therefore reaches area 1.
    """

    points: np.ndarray
    auc: float

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] < 1:
            raise ValueError("points must have shape (k, 3) with k >= 1")
        object.__setattr__(self, "points", points)


def precision_recall_curve(scores, truth) -> PRCurve:
    """PR curve over every distinct score value used as a threshold.

    Selection at threshold t is {i : scores[i] >= t}. ``truth`` holds the
    planted feature indices (non-empty). Invariant under strictly monotone
    transformations of the scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size < 1:
        raise ValueError("scores must be a non-empty 1-D array")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    truth = _as_index_array(truth)
    if truth.size < 1:
        raise ValueError("truth must be non-empty")
    if np.unique(truth).size != truth.size or truth.min() < 0 or truth.max() >= scores.size:
        raise ValueError("truth must hold unique feature indices within range")
    is_true = np.zeros(scores.size, dtype=bool)
    is_true[truth] = True

    values, inverse = np.unique(scores, return_inverse=True)
    per_value = np.bincount(inverse, minlength=values.size)
    true_per_value = np.bincount(inverse, weights=is_true.astype(np.float64),
                                 minlength=values.size)
    # descending thresholds: cumulative counts select everything >= value
    selected = np.cumsum(per_value[::-1])
    true_pos = np.cumsum(true_per_value[::-1])
    precision = true_pos / selected
    recall = true_pos / truth.size
    points = np.column_stack([values[::-1], precision, recall])

    r = np.concatenate([[0.0], recall])
    p = np.concatenate([[1.0], precision])
    auc = float(np.sum((r[1:] - r[:-1]) * (p[1:] + p[:-1]) / 2.0))
    return PRCurve(points=points, auc=auc)


def top_t_selection(scores, T: int) -> np.ndarray:
    """Sorted indices of the T highest scores, ties to the lowest index."""
    scores = np.asarray(scores, dtype=np.float64)
    if not (1 <= T <= scores.size):
        raise ValueError(f"T must lie in [1, {scores.size}]")
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:T])


def _stratified_folds(y, n_folds, seed):
    gen = RngStream(seed, 0).generator()
    fold_of = np.empty(y.size, dtype=np.int64)
    for label in (1, -1):
        idx = np.flatnonzero(y == label)
        idx = idx[gen.permutation(idx.size)]
        fold_of[idx] = np.arange(idx.size) % n_folds
    return fold_of


def cv_threshold(dataset: Dataset, scores, grid=DEFAULT_THRESHOLD_GRID,
                 n_folds: int = 5, lambda_ridge: float = 1.0, seed: int = 0) -> float:
    """Pick the score threshold whose selected features cross-validate best.

    Folds are stratified and deterministic in the seed. ``n_folds`` must lie
    in [2, the smaller class count], so that every fold tests, and trains on,
    both classes. Thresholds selecting zero features are skipped (error if
    that empties the grid); accuracy ties go to the larger threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (dataset.p,):
        raise ValueError("scores must align with dataset features")
    grid = sorted(float(t) for t in grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    smaller = min((dataset.y == 1).sum(), (dataset.y == -1).sum())
    if not 2 <= n_folds <= smaller:
        raise ValueError(f"n_folds must lie in [2, {smaller}] (2 to the smaller class count)")
    fold_of = _stratified_folds(dataset.y, n_folds, seed)
    folds = [(np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)) for f in range(n_folds)]
    X, y = dataset.X, dataset.y
    best_tau, best_acc = None, -1.0
    for tau in grid:
        features = np.flatnonzero(scores >= tau)
        if features.size == 0:
            continue
        accs = [_ridge_accuracy(X[np.ix_(train_rows, features)], y[train_rows],
                                X[np.ix_(test_rows, features)], y[test_rows], lambda_ridge)
                for train_rows, test_rows in folds]
        acc = float(np.mean(accs))
        if acc >= best_acc:  # >= keeps the larger threshold on ties
            best_tau, best_acc = tau, acc
    if best_tau is None:
        raise ValueError("every grid threshold selected zero features")
    return best_tau


def prediction_accuracy(train: Dataset, test: Dataset, features,
                        lambda_ridge: float = 1.0) -> float:
    """Accuracy on the test set of a ridge logistic fit on selected features.

    The test matrix is transformed with the training standardization
    statistics; a zero margin predicts +1. Training labels of one class fail.
    """
    features = _as_index_array(features)
    if features.size < 1:
        raise ValueError("features must be non-empty")
    if train.p != test.p:
        raise ValueError("train and test disagree on feature count")
    if (train.y == train.y[0]).all():
        raise ValueError("training labels hold one class")
    if features.min() < 0 or features.max() >= train.p:
        raise ValueError("feature indices out of range")
    return _ridge_accuracy(train.X[:, features], train.y, test.X[:, features], test.y,
                           lambda_ridge)


def _ridge_accuracy(Xtr, ytr, Xte, yte, lambda_ridge) -> float:
    """Test accuracy of a ridge fit on the selected columns of validated
    data: standardizes the training columns once, for the fit and for the
    test rows."""
    Ztr, mean, std, keep = standardize_columns(Xtr)
    sol = fit_l2_standardized(Ztr, ytr.astype(np.float64), lambda_ridge)
    margins = apply_standardization(Xte, mean, std, keep) @ sol.w + sol.c
    pred = np.where(margins >= 0, 1, -1)
    return float((pred == yte).mean())


@dataclass(frozen=True)
class PermutationReport:
    """Observed selection count at tau versus the label-permuted average."""

    tau: float
    B: int
    estimate: float
    observed_count: int
    permuted_counts: tuple[int, ...]


def permutation_fp_estimate(dataset: Dataset,
                            selector: Callable[[Dataset], StabilityScores],
                            tau: float, B: int, seed: int = 0) -> PermutationReport:
    """Average selection count at tau across B label permutations.

    ``selector`` maps a dataset to StabilityScores and must be deterministic
    for the estimate to be reproducible; permutation b uses stream b derived
    from the seed (stream 0 is reserved for fold drawing elsewhere). The
    permuted datasets keep ``dataset``'s X, checked once, and the calls run
    in ``sharing_designs``: B+1 rss runs of one config draw, average and
    standardize once and fit that design as it is, no run copying it (full
    scale, K=50: 4.9 MiB plus the 3.3 MiB cover, until the end).
    """
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    if B < 1:
        raise ValueError("B must be positive")
    with sharing_designs():
        observed = threshold_scores(selector(dataset), tau).size
        counts = []
        for b in range(1, B + 1):
            gen = RngStream(seed, b).generator()
            permuted = with_permuted_labels(dataset, gen.permutation(dataset.n))
            counts.append(threshold_scores(selector(permuted), tau).size)
    return PermutationReport(tau=float(tau), B=int(B),
                             estimate=float(np.mean(counts)),
                             observed_count=int(observed),
                             permuted_counts=tuple(int(c) for c in counts))
