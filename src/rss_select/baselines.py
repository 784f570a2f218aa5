"""Reference scorers: Welch t-test, single-fit weights, randomized L1.

All baselines share the scores CSV format with the stability engine so the
evaluation harness treats every method uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, StabilityScores
from .solver import SolverConfig, fit_l1_batch, fit_l1_logistic, fit_l2_logistic
from .stability import draw_row_subsample, resample


@dataclass(frozen=True)
class RandL1Config:
    """Randomized reweighted L1: subsample a fraction alpha of the rows, jitter penalties."""

    solver: SolverConfig
    K: int = 500
    alpha: float = 0.5
    weakness: float = 0.5
    master_seed: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be positive")
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")
        if not (0 < self.weakness <= 1):
            raise ValueError("weakness must lie in (0, 1]")


def ttest_scores(dataset: Dataset) -> np.ndarray:
    """Absolute two-sample Welch t statistic per feature.

    Features constant in both classes score 0. Requires at least two samples
    per class.
    """
    pos = dataset.X[dataset.y == 1]
    neg = dataset.X[dataset.y == -1]
    if pos.shape[0] < 2 or neg.shape[0] < 2:
        raise ValueError("Welch t needs at least two samples in each class")
    se2 = pos.var(axis=0, ddof=1) / pos.shape[0] + neg.var(axis=0, ddof=1) / neg.shape[0]
    diff = pos.mean(axis=0) - neg.mean(axis=0)
    out = np.zeros(dataset.p)
    ok = se2 > 0
    out[ok] = np.abs(diff[ok]) / np.sqrt(se2[ok])
    return out


def l1_weight_scores(dataset: Dataset, solver_config: SolverConfig) -> np.ndarray:
    """Absolute weights of a single L1 logistic fit on the full data.

    Raises RuntimeError when the fit does not converge, for instance on
    labels of one class, whose fit has no weights to score.
    """
    return _converged_weights("l1", fit_l1_logistic(dataset.X, dataset.y, solver_config))


def l2_weight_scores(dataset: Dataset, lambda_ridge: float) -> np.ndarray:
    """Absolute weights of a single ridge logistic fit on the full data;
    raises as :func:`l1_weight_scores` does."""
    return _converged_weights("l2", fit_l2_logistic(dataset.X, dataset.y, lambda_ridge))


def _converged_weights(name, sol) -> np.ndarray:
    """|w| of the fit ``sol``; RuntimeError naming the cause if it did not converge."""
    if not sol.converged:
        raise RuntimeError(
            f"the {name} fit did not converge: "
            + ("the labels hold one class, which no finite intercept fits"
               if math.isinf(sol.kkt_residual)
               else f"optimality residual {sol.kkt_residual:.3e} after {sol.n_iters} iterations"))
    return np.abs(sol.w)


def randomized_l1(dataset: Dataset, config: RandL1Config, threads: int = 1) -> StabilityScores:
    """Stability counts from K randomized reweighted L1 fits.

    Iteration k (stream k of the master seed) draws rows, then one penalty
    multiplier per column uniform on [weakness, 1], applied to standardized
    columns; with weakness=1 the reweighting degenerates to row subsampling
    alone. Runs on the stability selector's ``resample`` loop, so it aborts
    the same way when too many fits fail, and the thread count never changes
    the result.
    """
    X, y = dataset.X, dataset.y.astype(np.float64)

    def batch(start, gens):
        rows = np.stack([draw_row_subsample(dataset.n, config.alpha, gen) for gen in gens])
        scale = [gen.uniform(config.weakness, 1.0, size=dataset.p) for gen in gens]
        return [(sol.support(), sol) for sol in fit_l1_batch(X, y, rows, config.solver, scale)]

    return resample(dataset.p, config.K, config.master_seed, batch, dataset.p, threads)
