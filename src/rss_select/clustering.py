"""Feature parcellation by k-means over per-feature sample profiles.

Each feature becomes a vector of its standardized values across samples,
optionally extended with weighted grid coordinates so clusters prefer
spatial contiguity. Lloyd's algorithm runs from k-means++ starts; empty
clusters are reseeded with the point currently farthest from its centroid,
which keeps the within-cluster sum of squares non-increasing. It all runs
on numpy alone, in blocks: no step makes a temporary the size of the
feature matrix.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, Parcellation, RngStream, read_csv_rows
from .solver import column_stats
from .solver import standardize_columns  # noqa: F401  perfbench traces this name here

# float64 entries per block (0.5 MiB): of rows of the Lloyd distances, so
# each block is reduced while it is still in L2 cache (15 full-scale Lloyd
# steps took 0.30 s with these and 0.32 s with 4 MiB blocks on 2 vCPUs,
# medians of 7), and of columns of X or flat features elsewhere here
_BLOCK_ENTRIES = 1 << 16


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
    signal entries of unit variance. Each profile entry is
    ``(x - mean) / std`` over the statistics of :func:`column_stats`, as
    ``standardize_columns`` computes it, written into the result one block
    of columns at a time.
    """
    if not spatial_weight >= 0:
        raise ValueError("spatial_weight must be non-negative")
    if spatial_weight > 0 and dataset.geometry is None:
        raise ValueError("spatial_weight > 0 requires grid geometry")
    X = dataset.X
    n, p = X.shape
    mean, std, keep = column_stats(X)
    vectors = np.zeros((p, n + 3 if spatial_weight > 0 else n))
    width = max(1, _BLOCK_ENTRIES // n)
    for j in range(0, p, width):
        cols = j + np.flatnonzero(keep[j : j + width])
        vectors[cols, :n] = ((X[:, cols] - mean[cols]) / std[cols]).T
    if spatial_weight > 0:
        denom = np.maximum(np.asarray(dataset.geometry.dims) - 1, 1)
        vectors[:, n:] = spatial_weight * (dataset.geometry.mask / denom)
    return vectors


def _near_tol(dim):
    """Relative bound on the rounding error of |x|^2 - 2 x.c + |c|^2 when x == c."""
    return 4.0 * (dim + 2) * np.finfo(np.float64).eps


def _choice(rng, p):
    """The index ``rng.choice(p.size, p=p)`` draws, and the same stream
    after it, without its checks of p: numpy normalizes the cumulative sums
    of p by the last one and inverts them at one uniform draw."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeanspp(features, q, rng):
    """k-means++ starts (Arthur & Vassilvitskii, SODA 2007).

    Distances to each new center come from one matrix-vector product against
    cached row norms. A row identical to a chosen center gets exactly 0, so
    it is never drawn again. Each next center is drawn with probability
    proportional to its squared distance, by :func:`_choice`.
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
                idx = _choice(rng, d2 / total)
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


def _sum_of_squares(features):
    """``float((features**2).sum())`` bit for bit, without the squares of
    the whole matrix. numpy's pairwise sum halves an array longer than 128
    at a multiple of 8; splitting the flat array the same way, down to
    pieces of at most ``_BLOCK_ENTRIES`` (at least 128), adds the same
    partial sums in the same order."""
    flat = features.reshape(-1)
    if flat.size <= _BLOCK_ENTRIES:
        return float(np.square(flat).sum())
    half = flat.size // 2
    half -= half % 8
    return _sum_of_squares(flat[:half]) + _sum_of_squares(flat[half:])


def _cluster_sums(features, assign, counts):
    """Each cluster's rows summed in index order onto +0.0, as a product of
    the 0/1 membership matrix with the features adds them (q x dim; every
    count positive). Clusters go largest first, so the clusters with a
    t-th member are a prefix, and round t adds the t-th members of all of
    them at once."""
    q = counts.size
    order = np.argsort(-counts, kind="stable")
    sizes = counts[order]
    widths = q - np.searchsorted(sizes[::-1], np.arange(sizes[0]), side="right")
    # each cluster's rows in index order: a stable sort of the ids in the
    # narrowest integer type that holds them gives the permutation the int64
    # ids would, and numpy radix-sorts 8 and 16 bits (at full scale, q=200:
    # 0.18 ms with the cast against 1.6 ms)
    members = np.argsort(assign.astype(np.min_scalar_type(q - 1)), kind="stable")
    # the rounds laid end to end: the member of rank t of the cluster in
    # place j of the order goes to place j of round t
    rank = np.arange(assign.size) - np.repeat(np.cumsum(counts) - counts, counts)
    place = np.empty(q, dtype=np.int64)
    place[order] = np.arange(q)
    rounds = np.empty_like(members)
    rounds[(np.cumsum(widths) - widths)[rank] + np.repeat(place, counts)] = members
    sums = np.zeros((q, features.shape[1]))
    at = 0
    for w in widths.tolist():
        sums[:w] += features[rounds[at : at + w]]
        at += w
    out = np.empty_like(sums)
    out[order] = sums
    return out


def _lloyd(features, centers, max_iters):
    """Lloyd iterations with deterministic empty-cluster repair.

    Returns (assignment, inertia, history); history holds the WCSS after
    each center update, clamped at 0, and is non-increasing. Distances are
    computed a block of rows at a time, and each center is its cluster's
    sum from :func:`_cluster_sums` over its count.
    """
    npts = features.shape[0]
    q = centers.shape[0]
    centers = centers.copy()
    sq_all = _sum_of_squares(features)
    points = np.arange(npts)
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
        centers = _cluster_sums(features, assign, counts) / counts[:, None]
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
