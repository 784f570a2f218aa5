"""Stability selection with constrained block subsampling.

Each resampling iteration draws a row subsample, picks a per-cluster quota of
features (spatially, by accumulating random blocks over the voxel grid, then
trimming), averages each cluster's picked features into one column, fits the
L1 logistic solver on the averaged matrix, and credits every picked feature
of every selected cluster. Scores are selection counts out of K. A draw's
picks are one flat array, cluster by cluster (see ``_quota_trim``).

``resample`` is the loop this selector shares with the randomized L1
baseline: iteration k always draws from the random stream derived from
(master_seed, k), and the fits of each batch of consecutive iterations go
to the solver in one lockstep kernel call, so results are independent of
thread count and iteration order. Only the fits read labels, so rss runs of
one key inside ``sharing_designs`` share one design (cover, draws,
standardized averages).
"""

from __future__ import annotations

import itertools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .data import (Dataset, GridGeometry, Parcellation, RngStream, StabilityScores,
                   read_csv_rows)
from .solver import SolverConfig, fit_l1_standardized, lockstep_batch_size, standardize_stack
from .solver import fit_l1_logistic  # noqa: F401  perfbench traces this name here

# loss weight giving useful sparsity on cluster-averaged fits at the default
# alpha; chosen on synthetic data, see README
DEFAULT_LOSS_WEIGHT = 0.5

_MAX_FAILURE_FRACTION = 0.2
# the design slot of the sharing_designs scope in progress, None outside one
_DESIGNS: ContextVar[dict | None] = ContextVar("rss_designs", default=None)


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
    by exactly bx*by*bz anchors, so one uniform anchor covers every voxel
    with the same chance, at the mask's edge too. Built once per geometry
    and reused across draws; ``features`` and ``starts`` are int32 (3.3 MiB
    at full scale).

    That holds for one block, not for a :meth:`draw`: blocks accumulate until
    every cluster quota is met, which favours some voxels over others. On a
    10x10x2 grid with six scattered clusters at beta=0.1, per-voxel
    inclusion over 200000 draws ranges over 0.080-0.120.
    """

    def __init__(self, geometry: GridGeometry, block_shape):
        block = tuple(int(b) for b in block_shape)
        if len(block) != 3 or any(b < 1 for b in block):
            raise ValueError("block_shape must be three positive integers")
        self.block = block
        dims = np.asarray(geometry.dims, dtype=np.int64)
        pad = np.asarray(block) - 1
        # anchor coordinates are shifted by block-1 to stay non-negative;
        # anchor s covers voxel v = s - o for each block offset o in [0, block)
        shifted_dims = tuple(dims + pad)
        # voxel index per grid cell, -1 off the mask, padded by block-1 on
        # both sides of each axis: s - o + pad then stays inside every axis,
        # so flat offsets never wrap into a neighbouring row
        grid = np.full(tuple(dims + 2 * pad), -1, dtype=np.int32)
        grid[tuple((geometry.mask.astype(np.int64) + pad).T)] = np.arange(geometry.p)
        offsets = np.array(list(itertools.product(*(range(b) for b in block))))
        inside = grid >= 0
        covers = np.zeros(shifted_dims, dtype=bool)
        for o in pad - offsets:
            covers |= inside[tuple(slice(lo, lo + s) for lo, s in zip(o, shifted_dims))]
        self.anchor_ids = np.flatnonzero(covers)
        base = np.ravel_multi_index(np.unravel_index(self.anchor_ids, shifted_dims), grid.shape)
        # row a lists anchor a's voxel through each offset, offsets in
        # (ox, oy, oz) order, -1 where that cell is off the mask
        voxel_at = grid.reshape(-1)[base[:, None] + np.ravel_multi_index((pad - offsets).T, grid.shape)]
        present = voxel_at >= 0
        self.features = voxel_at[present]
        self.starts = np.concatenate([[0], np.cumsum(present.sum(axis=1))]).astype(np.int32)

    @property
    def n_anchors(self) -> int:
        return self.anchor_ids.size

    def voxels_of(self, anchor_index: int) -> np.ndarray:
        return self.features[self.starts[anchor_index] : self.starts[anchor_index + 1]]

    def draw(self, gen: np.random.Generator, parcellation: Parcellation,
             quotas: np.ndarray) -> np.ndarray:
        """Accumulate random blocks until every cluster quota is met, then trim.

        Anchors are drawn one ``gen.integers(n_anchors)`` at a time, in
        effect: a batch draw gives the same values and generator state as
        that many single draws, so each batch is scanned for the first
        anchor after which every quota is met, and the generator is rewound
        to draw exactly that prefix. The picked voxels then go through
        ``_quota_trim``, which keeps a uniformly random quota of each
        cluster with one more generator call: the flat picks hold exactly
        each cluster's quota. Each quota must lie in [1, cluster size].
        """
        quotas = _checked_quotas(parcellation, quotas)
        assignment = parcellation.assignment
        q = parcellation.q
        p = assignment.size
        picked = np.zeros(p, dtype=bool)
        need = quotas  # fresh voxels each cluster still lacks
        cap = 10_000 + 50 * self.n_anchors
        drawn, batch = 0, 512
        while True:
            if drawn >= cap:
                raise RuntimeError(
                    "block accumulation did not meet cluster quotas; geometry or parcellation is degenerate"
                )
            batch = min(batch, cap - drawn)
            state = gen.bit_generator.state
            anchors = gen.integers(self.n_anchors, size=batch)
            lo, hi = self.starts[anchors], self.starts[anchors + 1]
            lengths = hi - lo
            ends = np.cumsum(lengths)
            # batch position at which each voxel is first drawn; batch if never
            first_at = np.full(p, batch)
            np.minimum.at(first_at, self.features[np.arange(ends[-1]) + np.repeat(hi - ends, lengths)],
                          np.repeat(np.arange(batch), lengths))
            first_at[picked] = batch
            fresh = np.flatnonzero(first_at < batch)
            first = first_at[fresh]
            cluster = assignment[fresh]
            found = np.bincount(cluster, minlength=q)
            if (found >= need).all():
                # the position of each unmet cluster's need-th fresh voxel
                ranked = np.sort(cluster * batch + first)
                unmet = np.flatnonzero(need)
                nth = (np.cumsum(found) - found + need)[unmet] - 1
                stop = int((ranked[nth] - unmet * batch).max())
                gen.bit_generator.state = state
                gen.integers(self.n_anchors, size=stop + 1)
                picked[fresh[first <= stop]] = True
                break
            picked[fresh] = True
            need = np.maximum(need - found, 0)
            drawn += batch
            batch *= 2
        return _quota_trim(gen, picked, assignment, quotas)


def _checked_quotas(parcellation: Parcellation, quotas) -> np.ndarray:
    # one quota per cluster, each in [1, cluster size], as int64
    sizes = np.bincount(parcellation.assignment, minlength=parcellation.q)
    quotas = np.asarray(quotas)
    if quotas.shape != sizes.shape:
        raise ValueError(f"quotas must have shape {sizes.shape}, got {quotas.shape}")
    bad = np.flatnonzero((quotas < 1) | (quotas > sizes))
    if bad.size:
        g = int(bad[0])
        raise ValueError(f"quota {quotas[g]} of cluster {g} is outside [1, {sizes[g]}] "
                         "(1 to the cluster's size)")
    return quotas.astype(np.int64)


def _quota_trim(gen: np.random.Generator, picked: np.ndarray, assignment: np.ndarray,
                quotas: np.ndarray) -> np.ndarray:
    """Flat picks: a uniformly random ``quotas[g]`` of the ``picked`` voxels
    of each cluster g, ascending, after those of clusters 0 to g-1.

    One ``gen.integers(2**s, size=m)`` call draws a key for each of the m
    picked voxels, taken cluster ids ascending and voxel indices ascending
    within each cluster, where s = 63 - (q - 1).bit_length(): the key fills
    every bit of an int64 that the cluster id leaves free. Each cluster
    keeps the voxels with its quota smallest keys, and of two equal keys the
    lower voxel index (one stable sort of cluster id and key). Every cluster
    needs at least its quota of picked voxels.
    """
    p, q = assignment.size, quotas.size
    voxels = np.flatnonzero(picked)
    grouped = np.sort(assignment[voxels] * p + voxels)
    cluster = grouped // p
    voxels = grouped - cluster * p
    shift = 63 - (q - 1).bit_length()
    keys = gen.integers(1 << shift, size=voxels.size)
    order = np.argsort((cluster << shift) | keys, kind="stable")
    counts = np.bincount(cluster, minlength=q)
    # rank in its cluster's key order of the voxel at each sorted position
    rank = np.arange(voxels.size) - np.repeat(np.cumsum(counts) - counts, counts)
    keep = np.empty(voxels.size, dtype=bool)
    keep[order] = rank < np.repeat(quotas, counts)
    return voxels[keep]


def average_supervoxels(X, picked, sizes, rows: np.ndarray | None = None) -> np.ndarray:
    """Average each cluster's columns of the flat ``picked`` (``sizes[g]`` for
    cluster g, in turn) over ``rows``, all by default: len(rows) x len(sizes).

    Each average adds its picks left to right onto +0.0 and divides by their
    count, as ``X[:, cols].mean(axis=1)`` does on two or more rows.
    """
    X = np.asarray(X, dtype=np.float64)
    cols = np.asarray(picked)
    sizes = np.asarray(sizes, dtype=np.int64)
    if not sizes.size:
        raise ValueError("no picked feature groups")
    if (sizes < 1).any():
        raise ValueError(f"cluster {int(np.argmin(sizes))} has no picked features")
    if sizes.sum() != cols.size:
        raise ValueError(f"cluster sizes add up to {sizes.sum()}, not {cols.size} picks")
    if cols.min() < 0 or cols.max() >= X.shape[1]:
        raise ValueError(f"picked feature indices must lie in [0, {X.shape[1]})")
    rows = np.arange(X.shape[0]) if rows is None else np.asarray(rows)
    # clusters by size, largest first, so the clusters with a t-th pick are
    # a prefix; one flat take gathers the t-th picks of all of them next to
    # each other, for t = 0, 1, ..., on every drawn row
    order = np.argsort(-sizes, kind="stable")
    has = np.arange(sizes.max())[:, None] < sizes[order]
    starts = np.cumsum(sizes) - sizes
    seq = cols[(starts[order] + np.arange(sizes.max())[:, None])[has]]
    gathered = X.reshape(-1).take(rows[:, None] * X.shape[1] + seq)
    width = has.sum(axis=1)
    total = 0.0 + gathered[:, : width[0]]  # numpy's sums start from +0.0
    at = width[0]
    for w in width[1:]:
        total[:, :w] += gathered[:, at : at + w]
        at += w
    out = np.empty_like(total)
    out[:, order] = total / sizes[order]
    return out


def draw_iteration(gen: np.random.Generator, n: int, alpha: float, parcellation: Parcellation,
                   quotas: np.ndarray, cover: BlockCover | None = None) -> tuple:
    """The random draws of one iteration, ``(rows, picks)``: rows first, then
    flat picks (random blocks over the cover, or, when there is no cover,
    ``_quota_trim`` over every voxel: plain stratified draws)."""
    rows = draw_row_subsample(n, alpha, gen)
    if cover is not None:
        return rows, cover.draw(gen, parcellation, quotas)
    return rows, _quota_trim(gen, np.ones(parcellation.p, dtype=bool), parcellation.assignment,
                             _checked_quotas(parcellation, quotas))


def resample(p: int, K: int, master_seed: int, draw, fit, entries: int,
             threads: int = 1, designs: dict | None = None) -> StabilityScores:
    """Run K resampled fits and count how often each feature is selected.

    Iterations go in batches of ``lockstep_batch_size(entries)`` consecutive
    k, for fits of ``entries`` floats each (k x q for rss, p for rand-l1):
    this loop alone decides how many fits share a kernel call.
    ``draw(gens)`` makes a batch's design, iteration k drawing from
    ``RngStream(master_seed, k)``; ``fit(design)`` hands the whole batch
    to the solver, whose entry points only read it, in one lockstep kernel
    call and returns (selected feature indices, SolverSolution) for each.
    The scores also count the fits that did not converge and sum the
    solver iterations of all K.
    ``designs``, if given, maps (start, stop) to designs made so far and
    takes those drawn now. Aborts when more than _MAX_FAILURE_FRACTION of
    the fits do not converge, counting those whose drawn rows hold one
    class, which the solver reports with residual inf.

    ``threads > 1`` runs the batches on a thread pool, when there are two or
    more. Every iteration owns its stream and the batches do not depend on
    the thread count, so neither do the counts. A run that fits in one batch
    cannot be split across threads: rss with K=50 is one batch at full scale
    and on the README tour. The README gives measured thread timings.
    """
    if threads < 1:
        raise ValueError("threads must be positive")
    size = lockstep_batch_size(entries)

    def one(start):
        batch = (start, min(start + size, K))
        design = (designs or {}).get(batch) or draw(
            [RngStream(master_seed, k).generator() for k in range(*batch)])
        if designs is not None:
            designs[batch] = design
        # keep no weight vector: K of them would hold K*p floats at once
        return [(selected, sol.converged, sol.kkt_residual, sol.n_iters)
                for selected, sol in fit(design)]

    starts = range(0, K, size)
    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = [r for part in pool.map(one, starts) for r in part]
    else:
        results = [r for start in starts for r in one(start)]
    counts = np.zeros(p, dtype=np.int64)
    failures = []
    for k, (selected, converged, kkt, _) in enumerate(results):
        # indices within one iteration are unique, so fancy += is safe
        counts[selected] += 1
        if not converged:
            failures.append((k, kkt))
    if len(failures) > _MAX_FAILURE_FRACTION * K:
        k0, kkt0 = failures[0]
        one_class = sum(math.isinf(kkt) for _, kkt in failures)
        raise RuntimeError(
            f"{len(failures)} of {K} resampled fits failed to converge "
            f"(limit {_MAX_FAILURE_FRACTION:.0%})"
            + (f", {one_class} of them on drawn rows of one class, which no finite "
               "intercept fits (draw more rows)" if one_class else "")
            + f"; first failure at iteration {k0} with optimality residual {kkt0:.3e}"
        )
    return StabilityScores(counts=counts, K=K, fits_not_converged=len(failures),
                           solver_iterations=sum(r[3] for r in results))


@contextmanager
def sharing_designs():
    """Share rss designs between runs in this scope and thread, one at a
    time: that of the latest run's key (X, parcellation and geometry, held
    so their ids stay theirs; alpha, beta, block shape, master seed, K). A
    design is K averaged k x q matrices, standardized, K rows and flat
    picks, and the cover (3.8, 1.1 and 3.3 MiB at full scale, K=50), freed
    with the scope. Fits only read it, so no run copies it."""
    token = _DESIGNS.set({})
    try:
        yield
    finally:
        _DESIGNS.reset(token)


def run_stability_selection(dataset: Dataset, parcellation: Parcellation,
                            config: StabilityConfig, threads: int = 1) -> StabilityScores:
    """Full stability selection pass; scores are selection counts out of K.

    The thread count never changes the result (see ``resample``). Without
    grid geometry the spatial step degrades to plain stratified sampling (a
    warning is emitted). A design is each batch's rows, picks and averaged
    stack, standardized once when it is drawn; the solver only reads it, so
    inside ``sharing_designs`` a run fits the design of an earlier run of
    its key as it is.
    """
    if parcellation.p != dataset.p:
        raise ValueError("parcellation and dataset disagree on feature count")
    if dataset.geometry is None:
        warnings.warn("dataset has no grid geometry; falling back to stratified "
                      "per-cluster sampling without blocks", stacklevel=2)
    X, y, geometry = dataset.X, dataset.y.astype(np.float64), dataset.geometry
    slot = _DESIGNS.get()  # read here: pool threads do not inherit it
    memo = {} if slot is None else slot
    key = (id(X), id(parcellation), id(geometry), config.alpha, config.beta,
           config.block_shape, config.master_seed, config.K)
    if memo.get("key") != key:
        cover = None if geometry is None else BlockCover(geometry, config.block_shape)
        memo.update(key=key, held=(X, parcellation, geometry), cover=cover, batches={})
    cover = memo["cover"]
    quotas = cluster_quotas(parcellation, config.beta)
    eps = config.solver.support_epsilon

    def draw(gens):
        draws = [draw_iteration(gen, dataset.n, config.alpha, parcellation, quotas, cover)
                 for gen in gens]
        averaged = np.empty((len(draws), draws[0][0].size, parcellation.q))
        for a, (rows, picks) in zip(averaged, draws):
            a[:] = average_supervoxels(X, picks, quotas, rows=rows)
        return (np.stack([rows for rows, _ in draws]), [picks for _, picks in draws],
                standardize_stack(averaged))

    def fit(design):
        rows, picks, stack = design
        sols = fit_l1_standardized(stack, y[rows], config.solver)
        return [(credited(p, sol), sol) for p, sol in zip(picks, sols)]

    def credited(picks, sol):
        # every picked feature of every selected cluster
        chosen = np.zeros(parcellation.q, dtype=bool)
        chosen[sol.support(eps)] = True
        return picks[np.repeat(chosen, quotas)]

    entries = round_nearest(config.alpha * dataset.n) * parcellation.q
    return resample(dataset.p, config.K, config.master_seed, draw, fit, entries, threads,
                    None if slot is None else memo["batches"])


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
    rows = read_csv_rows(path, ("feature", "x", "y", "z", "count", "score"),
                         (int, int, int, int, int, float))
    ints = np.array([r[:5] for r in rows], dtype=np.int64)
    if not np.array_equal(ints[:, 0], np.arange(len(rows))):
        raise ValueError("scores file must cover features 0..p-1 in order")
    return {"feature": ints[:, 0], "coords": ints[:, 1:4], "count": ints[:, 4],
            "score": np.array([r[5] for r in rows])}
