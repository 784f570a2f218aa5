"""Stability selection with constrained block subsampling.

Each resampling iteration draws a row subsample, picks a per-cluster quota of
features (spatially, by accumulating random blocks over the voxel grid, then
trimming), averages each cluster's picked features into one column, fits the
L1 logistic solver on the averaged matrix, and credits every picked feature
of every selected cluster. Scores are selection counts out of K.

``resample`` is the loop this selector shares with the randomized L1
baseline: iteration k always uses the random stream derived from
(master_seed, k), so results are independent of thread count and iteration
order.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, GridGeometry, Parcellation, StabilityScores, derive_stream
from .solver import SolverConfig, fit_l1_logistic

# loss weight giving useful sparsity on cluster-averaged fits at the default
# alpha; chosen on synthetic data, see README
DEFAULT_LOSS_WEIGHT = 0.5

_MAX_FAILURE_FRACTION = 0.2


@dataclass(frozen=True)
class StabilityConfig:
    """Resampling plan: solver settings plus subsampling fractions."""

    solver: SolverConfig
    K: int = 50
    alpha: float = 0.5
    beta: float = 0.1
    block_shape: tuple[int, int, int] = (3, 3, 3)
    master_seed: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be positive")
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")
        if not (0 < self.beta <= 1):
            raise ValueError("beta must lie in (0, 1]")
        block = tuple(int(b) for b in self.block_shape)
        if len(block) != 3 or any(b < 1 for b in block):
            raise ValueError("block_shape must be three positive integers")
        object.__setattr__(self, "block_shape", block)


@dataclass(frozen=True)
class SubsampleDraw:
    """The random choices of one iteration: rows plus per-cluster features."""

    rows: np.ndarray
    picked: tuple[np.ndarray, ...]


def round_nearest(x: float) -> int:
    """Nearest integer with halves rounding up (floor(x + 0.5))."""
    return int(math.floor(x + 0.5))


def draw_row_subsample(n: int, alpha: float, gen: np.random.Generator) -> np.ndarray:
    """Sorted indices of round_nearest(alpha*n) rows drawn without replacement."""
    if n < 1:
        raise ValueError("n must be positive")
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    k = round_nearest(alpha * n)
    if k == 0:
        raise ValueError(f"alpha={alpha} selects zero of {n} rows")
    return np.sort(gen.choice(n, size=min(k, n), replace=False))


def cluster_quotas(parcellation: Parcellation, beta: float) -> np.ndarray:
    """Per-cluster pick counts: max(1, round_nearest(beta * cluster size))."""
    if not (0 < beta <= 1):
        raise ValueError("beta must lie in (0, 1]")
    sizes = np.bincount(parcellation.assignment, minlength=parcellation.q)
    return np.maximum(1, np.array([round_nearest(beta * s) for s in sizes]))


class BlockCover:
    """Anchor-to-voxel coverage of a mask by a fixed block shape.

    Anchors range over every block position that overlaps the mask, including
    positions partially outside the grid; block cells falling outside the
    grid or mask are simply absent. Every in-mask voxel is therefore covered
    by exactly bx*by*bz anchors, which keeps inclusion uniform with no edge
    bias. Built once per geometry and reused across draws.
    """

    def __init__(self, geometry: GridGeometry, block_shape):
        block = tuple(int(b) for b in block_shape)
        if len(block) != 3 or any(b < 1 for b in block):
            raise ValueError("block_shape must be three positive integers")
        self.block = block
        dims = np.asarray(geometry.dims)
        p = geometry.p
        n_cells = block[0] * block[1] * block[2]
        # anchor coordinates are shifted by block-1 to stay non-negative;
        # anchor s covers voxel v exactly when s - (block-1) <= v <= s
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
        self.features = feat_of_pair[order]
        self.anchor_ids, self.starts = np.unique(sorted_anchors, return_index=True)
        self.starts = np.append(self.starts, sorted_anchors.size)

    @property
    def n_anchors(self) -> int:
        return self.anchor_ids.size

    def voxels_of(self, anchor_index: int) -> np.ndarray:
        return self.features[self.starts[anchor_index] : self.starts[anchor_index + 1]]

    def draw(self, gen: np.random.Generator, parcellation: Parcellation, quotas: np.ndarray,
             members: list[np.ndarray] | None = None) -> tuple[np.ndarray, ...]:
        """Accumulate random blocks until every cluster quota is met, then trim.

        Trimming drops uniformly random picked features of each over-quota
        cluster, cluster ids ascending, so each cluster returns exactly its
        quota, sorted.
        """
        assignment = parcellation.assignment
        if members is None:
            members = parcellation.members()
        picked = np.zeros(assignment.size, dtype=bool)
        counts = np.zeros(parcellation.q, dtype=np.int64)
        cap = 10_000 + 50 * self.n_anchors
        draws = 0
        unmet = parcellation.q
        while unmet:
            if draws >= cap:
                raise RuntimeError(
                    "block accumulation did not meet cluster quotas; geometry or parcellation is degenerate"
                )
            a = int(gen.integers(self.n_anchors))
            voxels = self.voxels_of(a)
            fresh = voxels[~picked[voxels]]
            draws += 1
            if fresh.size == 0:
                continue
            picked[fresh] = True
            np.add.at(counts, assignment[fresh], 1)
            unmet = int((counts < quotas).sum())
        out = []
        for g in range(parcellation.q):
            got = members[g][picked[members[g]]]
            if got.size > quotas[g]:
                keep = gen.choice(got.size, size=int(quotas[g]), replace=False)
                got = np.sort(got[keep])
            out.append(got)
        return tuple(out)


def _stratified_subsample(members, quotas, gen) -> tuple[np.ndarray, ...]:
    # no-geometry fallback: uniform per-cluster draws, cluster ids ascending
    out = []
    for g, mem in enumerate(members):
        take = gen.choice(mem.size, size=int(quotas[g]), replace=False)
        out.append(np.sort(mem[take]))
    return tuple(out)


def average_supervoxels(X, picked, parcellation: Parcellation | None = None) -> np.ndarray:
    """Column-average each cluster's picked features: rows x len(picked)."""
    X = np.asarray(X, dtype=np.float64)
    if parcellation is not None and len(picked) != parcellation.q:
        raise ValueError("picked feature groups do not match the parcellation")
    out = np.empty((X.shape[0], len(picked)))
    for j, cols in enumerate(picked):
        if len(cols) == 0:
            raise ValueError(f"cluster {j} has no picked features")
        out[:, j] = X[:, cols].mean(axis=1)
    return out


def draw_iteration(gen: np.random.Generator, n: int, alpha: float, parcellation: Parcellation,
                   quotas: np.ndarray, members: list[np.ndarray],
                   cover: BlockCover | None = None) -> SubsampleDraw:
    """The random draws of one iteration: rows first, then per-cluster
    features (random blocks over the cover, or plain stratified draws when
    there is no cover)."""
    rows = draw_row_subsample(n, alpha, gen)
    if cover is not None:
        picked = cover.draw(gen, parcellation, quotas, members)
    else:
        picked = _stratified_subsample(members, quotas, gen)
    return SubsampleDraw(rows=rows, picked=picked)


def resample(p: int, K: int, master_seed: int, iteration, threads: int = 1) -> StabilityScores:
    """Run K resampled fits and count how often each feature is selected.

    Iteration k calls ``iteration(gen)`` with the generator of
    ``derive_stream(master_seed, k)``; it returns (selected feature indices,
    SolverSolution of its fit). Aborts when more than _MAX_FAILURE_FRACTION
    of the fits fail to converge.

    ``threads > 1`` runs the iterations on a thread pool. Every iteration
    owns its stream, so the counts never depend on the thread count. On a
    2-vCPU machine with OpenBLAS, 2 threads gave no speed-up over 1 for
    either selector at full scale.
    """
    if threads < 1:
        raise ValueError("threads must be positive")

    def one(k):
        selected, sol = iteration(derive_stream(master_seed, k).generator())
        # keep no weight vector: K of them would hold K*p floats at once
        return selected, sol.converged, sol.kkt_residual

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, range(K)))
    else:
        results = [one(k) for k in range(K)]
    counts = np.zeros(p, dtype=np.int64)
    failures = []
    for k, (selected, converged, kkt) in enumerate(results):
        # indices within one iteration are unique, so fancy += is safe
        counts[selected] += 1
        if not converged:
            failures.append((k, kkt))
    if len(failures) > _MAX_FAILURE_FRACTION * K:
        k0, kkt0 = failures[0]
        raise RuntimeError(
            f"{len(failures)} of {K} resampled fits failed to converge "
            f"(limit {_MAX_FAILURE_FRACTION:.0%}); first failure at iteration {k0} "
            f"with optimality residual {kkt0:.3e}"
        )
    return StabilityScores(counts=counts, K=K)


def run_stability_selection(dataset: Dataset, parcellation: Parcellation,
                            config: StabilityConfig, threads: int = 1) -> StabilityScores:
    """Full stability selection pass; scores are selection counts out of K.

    The thread count never changes the result (see ``resample``). Without
    grid geometry the spatial step degrades to plain stratified sampling (a
    warning is emitted).
    """
    if parcellation.p != dataset.p:
        raise ValueError("parcellation and dataset disagree on feature count")
    cover = None
    if dataset.geometry is not None:
        cover = BlockCover(dataset.geometry, config.block_shape)
    else:
        import warnings

        warnings.warn("dataset has no grid geometry; falling back to stratified "
                      "per-cluster sampling without blocks", stacklevel=2)
    quotas = cluster_quotas(parcellation, config.beta)
    members = parcellation.members()
    X, y = dataset.X, dataset.y
    eps = config.solver.support_epsilon

    def iteration(gen):
        draw = draw_iteration(gen, dataset.n, config.alpha, parcellation, quotas, members, cover)
        averaged = average_supervoxels(X[draw.rows], draw.picked)
        sol = fit_l1_logistic(averaged, y[draw.rows], config.solver)
        # credit every picked feature of every selected cluster
        chosen = [draw.picked[g] for g in sol.support(eps)]
        selected = np.concatenate(chosen) if chosen else np.zeros(0, dtype=np.int64)
        return selected, sol

    return resample(dataset.p, config.K, config.master_seed, iteration, threads)


def threshold_scores(scores: StabilityScores, tau: float) -> np.ndarray:
    """Sorted feature indices with normalized score >= tau.

    tau is not range-checked: 0 keeps everything, values above 1 keep nothing.
    """
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    return np.flatnonzero(scores.normalized >= tau)


def save_scores_csv(path, score, counts=None, geometry: GridGeometry | None = None) -> None:
    """Write per-feature scores: feature,x,y,z,count,score.

    Continuous scorers have no resampling counts; the count column is 0 then.
    Coordinates are -1 when no geometry is attached.
    """
    score = np.asarray(score, dtype=np.float64)
    p = score.size
    if counts is None:
        counts = np.zeros(p, dtype=np.int64)
    counts = np.asarray(counts)
    if geometry is not None:
        coords = geometry.mask
    else:
        coords = np.full((p, 3), -1, dtype=np.int64)
    with open(path, "w") as f:
        f.write("feature,x,y,z,count,score\n")
        for i in range(p):
            x, y0, z = coords[i]
            f.write(f"{i},{x},{y0},{z},{int(counts[i])},{score[i]:.17g}\n")


def load_scores_csv(path):
    """Read a scores CSV back into a dict of aligned arrays."""
    feats, coords, counts, score = [], [], [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != ["feature", "x", "y", "z", "count", "score"]:
            raise ValueError(f"unexpected scores header {header!r}")
        for row in reader:
            feats.append(int(row[0]))
            coords.append((int(row[1]), int(row[2]), int(row[3])))
            counts.append(int(row[4]))
            score.append(float(row[5]))
    feats = np.asarray(feats, dtype=np.int64)
    if not np.array_equal(feats, np.arange(feats.size)):
        raise ValueError("scores file must cover features 0..p-1 in order")
    return {
        "feature": feats,
        "coords": np.asarray(coords, dtype=np.int64),
        "count": np.asarray(counts, dtype=np.int64),
        "score": np.asarray(score, dtype=np.float64),
    }
