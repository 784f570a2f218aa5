"""Feature parcellation by k-means over per-feature sample profiles.

Each feature becomes a vector of its standardized values across samples,
optionally extended with weighted grid coordinates so clusters prefer
spatial contiguity. Lloyd's algorithm runs from k-means++ starts; empty
clusters are reseeded with the point currently farthest from its centroid,
which keeps the within-cluster sum of squares non-increasing.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, Parcellation, RngStream, read_csv_rows
from .solver import standardize_columns


@dataclass(frozen=True)
class ClusterConfig:
    """Parcellation settings: target cluster count and k-means knobs."""

    q: int
    seed: RngStream
    restarts: int = 10
    max_lloyd_iters: int = 300
    spatial_weight: float = 0.0

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        if self.max_lloyd_iters < 1:
            raise ValueError("max_lloyd_iters must be positive")
        if not self.spatial_weight >= 0:
            raise ValueError("spatial_weight must be non-negative")


def build_feature_vectors(dataset: Dataset, spatial_weight: float = 0.0) -> np.ndarray:
    """Per-feature clustering vectors: standardized sample profile per row.

    Returns a p×n matrix (constant features become zero rows), or p×(n+3)
    when ``spatial_weight > 0``: each grid axis is scaled to [0, 1] and
    multiplied by the weight, so the weight is relative to standardized
    signal entries of unit variance.
    """
    if not spatial_weight >= 0:
        raise ValueError("spatial_weight must be non-negative")
    Z, _, _, keep = standardize_columns(dataset.X)
    vectors = np.zeros((dataset.p, dataset.n))
    vectors[keep] = Z.T
    if spatial_weight > 0:
        if dataset.geometry is None:
            raise ValueError("spatial_weight > 0 requires grid geometry")
        denom = np.maximum(np.asarray(dataset.geometry.dims) - 1, 1)
        coords = dataset.geometry.mask / denom
        vectors = np.hstack([vectors, spatial_weight * coords])
    return vectors


def _near_tol(dim):
    """Relative bound on the rounding error of |x|^2 - 2 x.c + |c|^2 when x == c."""
    return 4.0 * (dim + 2) * np.finfo(np.float64).eps


def _kmeanspp(features, q, rng):
    """k-means++ starts (Arthur & Vassilvitskii, SODA 2007).

    Distances to each new center come from one matrix-vector product against
    cached row norms. A row identical to a chosen center gets exactly 0, so
    it is never drawn again.
    """
    npts, dim = features.shape
    row_sq = np.einsum("ij,ij->i", features, features)
    near_tol = _near_tol(dim)
    centers = np.empty((q, dim))
    d2 = np.full(npts, np.inf)
    dist = np.empty(npts)
    idx = rng.integers(npts)
    for j in range(q):
        if j:
            total = d2.sum()
            if total > 0:
                idx = rng.choice(npts, p=d2 / total)
            else:
                idx = rng.integers(npts)  # all points coincide with a center
        center = features[idx]
        centers[j] = center
        np.dot(features, -2.0 * center, out=dist)
        dist += row_sq
        dist += row_sq[idx]
        np.maximum(dist, 0.0, out=dist)
        near = np.flatnonzero(dist <= near_tol * (row_sq + row_sq[idx]))
        dist[near[(features[near] == center).all(axis=1)]] = 0.0
        np.minimum(d2, dist, out=d2)
    return centers


# distance entries per block of rows in a Lloyd step (4 MiB of float64),
# so each block is reduced while it is still in cache
_BLOCK_ENTRIES = 1 << 19


def _lloyd(features, centers, max_iters):
    """Lloyd iterations with deterministic empty-cluster repair.

    Returns (assignment, inertia, history); history holds the WCSS after
    each center update, clamped at 0, and is non-increasing.
    """
    npts = features.shape[0]
    q = centers.shape[0]
    centers = centers.copy()
    sq_all = float((features**2).sum())
    # imported here, not at module level, so that CLI start-up does not pay
    # for it, and only once the p x n temporary of sq_all is freed, so that
    # scipy's memory never sits next to it. ru_maxrss through the k-means
    # stage of the first pipeline-full benchmark pass (seeds 10 and 12) read
    # 139.9 and 140.8 MiB with this import as the first line of _lloyd, 118.6
    # and 119.1 MiB with it here, and 133.0 and 130.3 MiB while the solver
    # imported scipy.special at start-up
    from scipy import sparse

    points = np.arange(npts)
    ones = np.ones(npts)
    block_rows = max(1, _BLOCK_ENTRIES // q)
    block = np.empty((min(block_rows, npts), q))
    d_own = np.empty(npts)
    prev = None
    history = []
    for _ in range(max_iters):
        # squared distances minus |x|^2, which does not change the argmin
        neg2_ct = np.ascontiguousarray(-2.0 * centers.T)
        center_sq = np.einsum("ij,ij->i", centers, centers)
        assign = np.empty(npts, dtype=np.int64)
        for start in range(0, npts, block_rows):
            stop = min(start + block_rows, npts)
            d = block[: stop - start]
            np.matmul(features[start:stop], neg2_ct, out=d)
            d += center_sq
            own = d.argmin(axis=1)  # ties go to the lowest cluster id
            assign[start:stop] = own
            d_own[start:stop] = d[points[: stop - start], own]
        counts = np.bincount(assign, minlength=q)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            row_sq = np.einsum("ij,ij->i", features, features)
            d_own += row_sq
            # a row within rounding of its own center gets exactly 0, so when
            # every eligible row sits on its center the lowest index moves,
            # whatever the sign of the rounding noise
            near_tol = _near_tol(features.shape[1])
            d_own[d_own <= near_tol * (row_sq + center_sq[assign])] = 0.0
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
        # indicator matmul: each cluster's rows are summed in index order
        members = sparse.csr_matrix((ones, (assign, points)), shape=(q, npts))
        centers = (members @ features) / counts[:, None]
        # WCSS identity: sum ||x||^2 - sum_g n_g ||mean_g||^2, which cancels
        # to rounding noise on pure clusters; a WCSS is never negative
        history.append(max(0.0, sq_all - float((counts * (centers**2).sum(axis=1)).sum())))
    return assign, history[-1], history


def kmeans(features, config: ClusterConfig) -> Parcellation:
    """Best-of-restarts k-means, deterministic for a given seed.

    Restarts run sequentially on the configured stream; the assignment with
    the lowest within-cluster sum of squares wins, first winner on ties.
    The result's ``lloyd_restarts`` holds each restart's Lloyd health.
    """
    features = np.ascontiguousarray(np.asarray(features, dtype=np.float64))
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("features must be a non-empty 2-D matrix")
    if not np.isfinite(features).all():
        raise ValueError("features contain NaN or Inf")
    if config.q > features.shape[0]:
        raise ValueError(f"q={config.q} exceeds the number of features {features.shape[0]}")
    rng = config.seed.generator()
    best_assign, best_inertia = None, np.inf
    records = []
    for _ in range(config.restarts):
        centers = _kmeanspp(features, config.q, rng)
        assign, inertia, history = _lloyd(features, centers, config.max_lloyd_iters)
        # each pass that does not stop on an unchanged assignment appends
        # one WCSS, so a full history means the cap cut the run short
        records.append({"iterations": len(history), "wcss": inertia,
                        "converged": len(history) < config.max_lloyd_iters})
        if inertia < best_inertia:
            best_assign, best_inertia = assign, inertia
    return Parcellation(assignment=best_assign, q=config.q, lloyd_restarts=tuple(records))


def within_cluster_ss(features, parcellation: Parcellation) -> float:
    """WCSS of a parcellation against cluster means of the given vectors."""
    features = np.asarray(features, dtype=np.float64)
    total = 0.0
    for members in parcellation.members():
        block = features[members]
        total += float(((block - block.mean(axis=0)) ** 2).sum())
    return total


def save_parcellation(parcellation: Parcellation, path, sidecar: dict | None = None) -> None:
    """Write feature->cluster CSV plus a JSON sidecar next to it."""
    path = Path(path)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["feature", "cluster"])
        for i, g in enumerate(parcellation.assignment):
            writer.writerow([i, int(g)])
    meta = {"q": parcellation.q, "checksum": parcellation.checksum()}
    if sidecar:
        meta.update(sidecar)
    with open(path.with_suffix(".json"), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def load_parcellation(path) -> Parcellation:
    rows = read_csv_rows(path, ("feature", "cluster"), (int, int))
    features, assignment = np.array(sorted(rows), dtype=np.int64).T.copy()
    if not np.array_equal(features, np.arange(features.size)):
        raise ValueError("parcellation must cover features 0..p-1 exactly once")
    return Parcellation(assignment=assignment, q=int(assignment.max()) + 1)
