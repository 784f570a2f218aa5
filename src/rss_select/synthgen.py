"""Synthetic ground-truth generator on an ellipsoidal voxel mask.

Five compact clusters are planted in a two-class design: clusters 1 and 2
shift every case voxel by +1 and +2 respectively, while clusters 3-5 (equal
sizes) carry a joint constraint: each (voxel from 3, voxel from 4, voxel
from 5) triple is rejection-sampled so its sum exceeds the threshold for
cases and stays below it for controls. Every planted voxel is therefore
discriminative, marginally or only jointly. All remaining voxels are iid
noise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import Dataset, GridGeometry, RngStream, read_csv_rows

_N_CLUSTERS = 5
_MAX_REJECTION_ROUNDS = 10**6
# |constraint_threshold| / noise_sd at which the stricter side of the triple
# constraint accepts 1e-4 of draws (a triple sums to N(0, 3 noise_sd^2)): the
# reference instance then needs about 1e5 rounds (17-31 s on 2 vCPUs). The
# literal is -scipy.special.ndtri(1e-4) * 3**0.5, written out so that the
# module needs no scipy
_MAX_THRESHOLD_SDS = 6.441525506995479


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; defaults reproduce the reference instance.

    cluster_sizes lists clusters 1..5; the last three must be equal so the
    triple constraint pairs their voxels one-to-one.
    """

    dims: tuple[int, int, int] = (46, 55, 46)
    mask_size: int = 27884
    n_per_group: int = 50
    cluster_sizes: tuple[int, int, int, int, int] = (76, 76, 77, 77, 77)
    noise_sd: float = 1.0
    constraint_threshold: float = 1.0
    seed: int = 0

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError("dims must be three positive integers")
        sizes = tuple(int(s) for s in self.cluster_sizes)
        if len(sizes) != _N_CLUSTERS or any(s < 1 for s in sizes):
            raise ValueError(f"cluster_sizes must be {_N_CLUSTERS} positive integers")
        if len(set(sizes[2:])) != 1:
            raise ValueError("clusters 3-5 must have equal sizes for the triple constraint")
        if self.n_per_group < 1:
            raise ValueError("n_per_group must be positive")
        volume = dims[0] * dims[1] * dims[2]
        if not (1 <= self.mask_size <= volume):
            raise ValueError(f"mask_size must lie in [1, {volume}]")
        if not self.noise_sd > 0:
            raise ValueError("noise_sd must be positive")
        limit = _MAX_THRESHOLD_SDS * self.noise_sd
        if not abs(self.constraint_threshold) <= limit:
            raise ValueError(f"constraint_threshold must lie in [-{limit:.4g}, {limit:.4g}]")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "cluster_sizes", sizes)


@dataclass(frozen=True)
class GroundTruth:
    """Planted discriminative features, which cluster each came from, and the
    (x, y, z) voxel of each; coordinates are -1 when none are given."""

    features: np.ndarray
    cluster_ids: np.ndarray
    coords: np.ndarray | None = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.int64)
        cluster_ids = np.asarray(self.cluster_ids, dtype=np.int64)
        if features.shape != cluster_ids.shape or features.ndim != 1:
            raise ValueError("features and cluster_ids must be matching 1-D arrays")
        if features.size and (np.diff(features) <= 0).any():
            raise ValueError("features must be strictly increasing")
        coords = np.full((features.size, 3), -1) if self.coords is None else self.coords
        coords = np.asarray(coords, dtype=np.int64)
        if coords.shape != (features.size, 3):
            raise ValueError(f"coords must have shape ({features.size}, 3), got {coords.shape}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "cluster_ids", cluster_ids)
        object.__setattr__(self, "coords", coords)


def ellipsoid_mask(dims, mask_size: int) -> np.ndarray:
    """The mask_size voxels closest to the grid center in ellipsoid distance.

    Distance normalizes each axis offset by its semi-axis (dims/2); ties
    break lexicographically on (x, y, z), and the returned coordinates are in
    lexicographic order, so the mask is a pure function of its arguments.
    """
    dims = tuple(int(d) for d in dims)
    grid = np.indices(dims).reshape(3, -1).T.astype(np.float64)
    center = (np.asarray(dims) - 1) / 2.0
    semi = np.asarray(dims) / 2.0
    r2 = (((grid - center) / semi) ** 2).sum(axis=1)
    x, y, z = grid[:, 0], grid[:, 1], grid[:, 2]
    order = np.lexsort((z, y, x, r2))[:mask_size]
    coords = grid[order].astype(np.int64)
    return coords[np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))]


def _box_dims(size: int) -> tuple[int, int, int]:
    side = 1
    while side**3 < size:
        side += 1
    depth = -(-size // (side * side))
    return side, side, depth


def default_cluster_placement(dims, cluster_sizes) -> list[np.ndarray]:
    """Five disjoint compact boxes near the grid center, one per cluster.

    Each cluster of size s becomes a box of at most 2s voxels, truncated
    lexicographically to exactly s. Boxes sit on a lattice of equal cells
    centered in the grid; the five most central cells win, ties broken
    lexicographically. The placement uses fixed relative positions, so it
    involves no randomness.
    """
    dims = np.asarray([int(d) for d in dims])
    sizes = [int(s) for s in cluster_sizes]
    boxes = [_box_dims(s) for s in sizes]
    cell = np.max(np.asarray(boxes), axis=0)
    slots = dims // cell
    if int(slots.prod()) < len(sizes):
        raise ValueError(
            f"grid {tuple(dims)} cannot fit {len(sizes)} disjoint {tuple(cell)} boxes"
        )
    origin = (dims - slots * cell) // 2
    lattice = np.indices(slots).reshape(3, -1).T
    centers = origin + lattice * cell + (cell - 1) / 2.0
    grid_center = (dims - 1) / 2.0
    r2 = (((centers - grid_center) / (dims / 2.0)) ** 2).sum(axis=1)
    order = np.lexsort((lattice[:, 2], lattice[:, 1], lattice[:, 0], r2))
    placements = []
    for g, s in enumerate(sizes):
        anchor = origin + lattice[order[g]] * cell
        box = np.asarray(boxes[g])
        start = anchor + (cell - box) // 2
        coords = np.indices(tuple(box)).reshape(3, -1).T[:s] + start
        placements.append(coords.astype(np.int64))
    return placements


def _rejection_triples(gen, n_rows, n_triples, sd, threshold, above):
    """(n_rows, n_triples, 3) normals whose per-triple sum is constrained."""
    arr = gen.normal(0.0, sd, size=(n_rows, n_triples, 3))
    for _ in range(_MAX_REJECTION_ROUNDS):
        sums = arr.sum(axis=2)
        bad = (sums <= threshold) if above else (sums >= threshold)
        n_bad = int(bad.sum())
        if n_bad == 0:
            return arr
        arr[bad] = gen.normal(0.0, sd, size=(n_bad, 3))
    raise RuntimeError("triple rejection sampling exceeded the attempt limit")


def generate_synthetic(config: SynthConfig) -> tuple[Dataset, GroundTruth]:
    """Generate the labeled dataset and its planted ground truth.

    Rows 0..n_per_group-1 are cases (+1), the rest controls (-1). The same
    config always produces bit-identical output.
    """
    geometry = GridGeometry(config.dims, ellipsoid_mask(config.dims, config.mask_size))
    volume = config.dims[0] * config.dims[1] * config.dims[2]
    col_of = np.full(volume, -1, dtype=np.int64)
    col_of[geometry.ravel(geometry.mask)] = np.arange(geometry.p)

    placements = default_cluster_placement(config.dims, config.cluster_sizes)
    columns = []
    for coords in placements:
        cols = col_of[geometry.ravel(coords)]
        if (cols < 0).any():
            raise ValueError("cluster placement falls outside the mask; increase mask_size")
        columns.append(cols)

    npg = config.n_per_group
    n = 2 * npg
    sd = config.noise_sd
    gen = RngStream(config.seed, 0).generator()
    X = gen.normal(0.0, sd, size=(n, geometry.p))

    # clusters 1 and 2: cases shifted by the cluster number, controls pure noise
    for k in (1, 2):
        cols = columns[k - 1]
        X[:npg, cols] = k + gen.normal(0.0, sd, size=(npg, cols.size))
        X[npg:, cols] = gen.normal(0.0, sd, size=(npg, cols.size))

    # clusters 3-5: triple sums above the threshold for cases, below for controls
    s3 = config.cluster_sizes[2]
    case = _rejection_triples(gen, npg, s3, sd, config.constraint_threshold, above=True)
    ctrl = _rejection_triples(gen, npg, s3, sd, config.constraint_threshold, above=False)
    for j, k in enumerate((3, 4, 5)):
        X[:npg, columns[k - 1]] = case[:, :, j]
        X[npg:, columns[k - 1]] = ctrl[:, :, j]

    y = np.concatenate([np.ones(npg, dtype=np.int64), -np.ones(npg, dtype=np.int64)])
    dataset = Dataset(X=X, y=y, geometry=geometry)

    feats = np.concatenate(columns)
    ids = np.concatenate([np.full(c.size, k + 1, dtype=np.int64) for k, c in enumerate(columns)])
    order = np.argsort(feats)
    feats = feats[order]
    truth = GroundTruth(features=feats, cluster_ids=ids[order], coords=geometry.mask[feats])
    return dataset, truth


_TRUTH_HEADER = ("feature", "planted_cluster", "x", "y", "z")


def save_ground_truth(truth: GroundTruth, path) -> None:
    """Write one row per planted feature: feature,planted_cluster,x,y,z."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_TRUTH_HEADER)
        for feat, cid, xyz in zip(truth.features, truth.cluster_ids, truth.coords):
            writer.writerow([int(feat), int(cid), *map(int, xyz)])


def load_ground_truth(path) -> GroundTruth:
    rows = read_csv_rows(path, _TRUTH_HEADER, (int,) * len(_TRUTH_HEADER))
    table = np.array(sorted(rows), dtype=np.int64)
    return GroundTruth(features=table[:, 0], cluster_ids=table[:, 1], coords=table[:, 2:])
