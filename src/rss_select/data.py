"""Core domain types, the on-disk dataset container, and seeded RNG streams.

The dataset container is a directory holding ``manifest.json``, ``X.bin``
(magic ``RSS1`` followed by the row-major float64 matrix), and optionally
``mask.bin`` with one (x, y, z) voxel coordinate per feature column.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"RSS1"
FORMAT_NAME = "RSSD"
FORMAT_VERSION = 1


class ContainerError(ValueError):
    """A dataset container on disk is missing pieces or malformed."""


def sha256_file(path) -> str:
    """Hex SHA-256 digest of a file, streamed in 1 MiB chunks."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while True:
            chunk = f.read(1 << 20)
            if not chunk:
                break
            h.update(chunk)
    return h.hexdigest()


def read_csv_rows(path, header, parsers) -> list[tuple]:
    """The rows of a CSV file whose header starts with ``header``, each as a
    tuple of its leading fields converted by ``parsers``. A missing header,
    a short row, a field its parser rejects or no rows at all raise
    ValueError naming the file and the line."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        head = next(reader, [])
        if head[: len(header)] != list(header):
            raise ValueError(f"{path}, line 1: unexpected header {head!r}, "
                             f"expected {','.join(header)}")
        rows = []
        for row in reader:
            try:
                if len(row) < len(parsers):
                    raise ValueError(f"{len(row)} fields, expected {len(parsers)}")
                rows.append(tuple(parse(v) for parse, v in zip(parsers, row)))
            except ValueError as e:
                raise ValueError(f"{path}, line {reader.line_num}: {e}") from None
    if not rows:
        raise ValueError(f"{path}, line 2: no rows after the header")
    return rows


@dataclass(frozen=True)
class GridGeometry:
    """A 3-D voxel grid: grid dims plus one (x, y, z) coordinate per feature.

    Row ``i`` of ``mask`` is the voxel coordinate of feature column ``i``.
    Coordinates must be unique and lie inside ``dims``.
    """

    dims: tuple[int, int, int]
    mask: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError(f"dims must be three positive integers, got {self.dims}")
        mask = np.ascontiguousarray(np.asarray(self.mask, dtype=np.int64))
        if mask.ndim != 2 or mask.shape[1] != 3:
            raise ValueError(f"mask must have shape (p, 3), got {mask.shape}")
        if mask.shape[0] < 1:
            raise ValueError("mask must contain at least one voxel")
        if (mask < 0).any() or (mask >= np.asarray(dims)).any():
            raise ValueError("mask coordinates fall outside the grid dims")
        flat = self.ravel(mask)
        if np.unique(flat).size != mask.shape[0]:
            raise ValueError("mask coordinates must be unique")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mask", mask)

    @property
    def p(self) -> int:
        return self.mask.shape[0]

    def ravel(self, coords: np.ndarray) -> np.ndarray:
        """Map (…, 3) coordinates to flat grid indices."""
        coords = np.asarray(coords)
        dx, dy, dz = self.dims
        return (coords[..., 0] * dy + coords[..., 1]) * dz + coords[..., 2]


@dataclass(frozen=True)
class Dataset:
    """Sample matrix with ±1 labels and optional grid geometry.

    ``X`` is n×p float64, ``y`` holds one label in {+1, -1} per row, and
    ``geometry.p`` must match the number of columns when present.
    """

    X: np.ndarray
    y: np.ndarray
    geometry: GridGeometry | None = None

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=np.float64))
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError(f"X must be a non-empty 2-D matrix, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ValueError("X contains NaN or Inf entries")
        y = np.asarray(self.y)
        if y.shape != (X.shape[0],):
            raise ValueError(f"y must have shape ({X.shape[0]},), got {y.shape}")
        if not np.isin(y, (-1, 1)).all():
            raise ValueError("label domain error: labels must all be +1 or -1")
        y = y.astype(np.int64)
        if self.geometry is not None and self.geometry.p != X.shape[1]:
            raise ValueError(
                f"geometry has {self.geometry.p} voxels but X has {X.shape[1]} columns"
            )
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def with_permuted_labels(dataset: Dataset, order) -> Dataset:
    """``dataset`` with labels ``y[order]``: the same X and geometry, X not scanned again."""
    if not np.array_equal(np.sort(order), np.arange(dataset.n)):
        raise ValueError(f"order must be a permutation of the {dataset.n} rows")
    out = object.__new__(Dataset)
    vars(out).update(X=dataset.X, y=dataset.y[order], geometry=dataset.geometry)
    return out


@dataclass(frozen=True)
class Parcellation:
    """Assignment of each feature to one of q clusters; every cluster non-empty.

    ``lloyd_restarts`` records, for a parcellation that k-means produced, one
    dict per restart: Lloyd center updates (``iterations``), final WCSS
    (``wcss``) and whether the assignment stopped changing within the
    iteration cap (``converged``). It is empty for a loaded parcellation.
    """

    assignment: np.ndarray
    q: int
    lloyd_restarts: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        assignment = np.ascontiguousarray(np.asarray(self.assignment, dtype=np.int64))
        if assignment.ndim != 1 or assignment.size < 1:
            raise ValueError("assignment must be a non-empty 1-D integer array")
        q = int(self.q)
        if q < 1:
            raise ValueError("q must be positive")
        if assignment.min() < 0 or assignment.max() >= q:
            raise ValueError("cluster ids must lie in [0, q)")
        if np.unique(assignment).size != q:
            raise ValueError("every cluster id in [0, q) must be used")
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "q", q)

    @property
    def p(self) -> int:
        return self.assignment.size

    def members(self) -> list[np.ndarray]:
        """Per-cluster sorted feature indices, one array per cluster id."""
        order = np.argsort(self.assignment, kind="stable")
        bounds = np.searchsorted(self.assignment[order], np.arange(self.q + 1))
        return [order[bounds[g] : bounds[g + 1]] for g in range(self.q)]

    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.q).encode())
        h.update(self.assignment.astype("<i8").tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class StabilityScores:
    """Per-feature selection counts out of K resampling iterations, with the
    health of the K fits behind them: how many did not converge, and their
    solver iterations summed."""

    counts: np.ndarray
    K: int
    fits_not_converged: int = 0
    solver_iterations: int = 0

    def __post_init__(self):
        counts = np.ascontiguousarray(np.asarray(self.counts, dtype=np.int64))
        if counts.ndim != 1 or counts.size < 1:
            raise ValueError("counts must be a non-empty 1-D array")
        K = int(self.K)
        if K < 1:
            raise ValueError("K must be positive")
        if counts.min() < 0 or counts.max() > K:
            raise ValueError("counts must lie in [0, K]")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "K", K)

    @property
    def normalized(self) -> np.ndarray:
        """Counts divided by K, in [0, 1]."""
        return self.counts / self.K


SUPPORT_EPSILON = 1e-8  # a weight with |w| at or below this is off the support


@dataclass(frozen=True)
class SolverSolution:
    """Weights, intercept, and optimality certificate returned by a solver fit."""

    w: np.ndarray
    c: float
    objective: float
    kkt_residual: float
    converged: bool
    n_iters: int

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.w, dtype=np.float64))
        if w.ndim != 1:
            raise ValueError("w must be 1-D")
        if not np.isfinite(w).all() or not np.isfinite(self.c):
            raise ValueError("solution contains non-finite values")
        if not np.isfinite(self.objective):
            raise ValueError("objective must be finite")
        if self.kkt_residual < 0:
            raise ValueError("kkt_residual must be non-negative")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "c", float(self.c))

    def support(self) -> np.ndarray:
        """Indices with |w_i| > ``SUPPORT_EPSILON``."""
        return np.flatnonzero(np.abs(self.w) > SUPPORT_EPSILON)


@dataclass(frozen=True)
class RngStream:
    """A named, independently seedable random stream.

    Streams derived from the same master seed with different ids produce
    statistically independent byte streams; the same (seed, id) pair always
    reproduces the same stream, on any platform.
    """

    master_seed: int
    stream_id: int

    def __post_init__(self):
        object.__setattr__(self, "master_seed", int(self.master_seed) % (1 << 64))
        sid = int(self.stream_id)
        if sid < 0:
            raise ValueError("stream_id must be non-negative")
        object.__setattr__(self, "stream_id", sid)

    def generator(self) -> np.random.Generator:
        """A fresh Generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset container directory (manifest.json, X.bin, mask.bin).

    Numeric payloads are stored little-endian so containers round-trip
    bit-exactly across machines.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n": dataset.n,
        "p": dataset.p,
        "dtype": "f64le",
        "layout": "row-major",
        "labels": [int(v) for v in dataset.y],
        "grid_dims": list(dataset.geometry.dims) if dataset.geometry else None,
    }
    with open(path / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(path / "X.bin", "wb") as f:
        f.write(MAGIC)
        # the array's own buffer, not a bytes copy of it
        f.write(memoryview(np.ascontiguousarray(dataset.X, dtype="<f8")).cast("B"))
    if dataset.geometry is not None:
        with open(path / "mask.bin", "wb") as f:
            f.write(np.ascontiguousarray(dataset.geometry.mask, dtype="<u4").tobytes())


def load_dataset(path) -> Dataset:
    """Read a dataset container directory written by :func:`save_dataset`.

    Raises ContainerError on missing files, bad magic, version or dimension
    mismatches, and, naming the container, on whatever ``Dataset`` or
    ``GridGeometry`` refuses: labels outside ±1, non-finite matrix entries,
    mask coordinates off the grid.
    """
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.is_file():
        raise ContainerError(f"missing manifest.json in {path}")
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except json.JSONDecodeError as e:
        raise ContainerError(f"manifest.json is not valid JSON: {e}") from e

    if manifest.get("format") != FORMAT_NAME:
        raise ContainerError(f"unknown container format {manifest.get('format')!r}")
    if manifest.get("version") != FORMAT_VERSION:
        raise ContainerError(f"unsupported container version {manifest.get('version')!r}")
    for key in ("n", "p", "labels"):
        if key not in manifest:
            raise ContainerError(f"manifest.json lacks required key {key!r}")
    n, p = int(manifest["n"]), int(manifest["p"])
    if n < 1 or p < 1:
        raise ContainerError(f"manifest declares empty matrix ({n}x{p})")
    labels = manifest["labels"]
    if len(labels) != n:
        raise ContainerError(f"manifest lists {len(labels)} labels for n={n}")
    if manifest.get("dtype", "f64le") != "f64le":
        raise ContainerError(f"unsupported dtype {manifest.get('dtype')!r}")
    if manifest.get("layout", "row-major") != "row-major":
        raise ContainerError(f"unsupported layout {manifest.get('layout')!r}")

    x_path = path / "X.bin"
    if not x_path.is_file():
        raise ContainerError(f"missing X.bin in {path}")
    expected = n * p * 8
    with open(x_path, "rb") as f:
        if f.read(len(MAGIC)) != MAGIC:
            raise ContainerError("X.bin magic mismatch")
        found = os.fstat(f.fileno()).st_size - len(MAGIC)
        X = np.empty((n, p), dtype="<f8")
        # the payload goes straight into X, with no bytes object in between
        if found == expected:
            found = f.readinto(memoryview(X).cast("B"))
        if found != expected:
            raise ContainerError(
                f"X.bin dimension mismatch: expected {expected} payload bytes, found {found}"
            )

    mask, grid_dims = None, manifest.get("grid_dims")
    mask_path = path / "mask.bin"
    if grid_dims is not None:
        if not mask_path.is_file():
            raise ContainerError("manifest declares grid_dims but mask.bin is missing")
        mask_raw = mask_path.read_bytes()
        if len(mask_raw) != p * 3 * 4:
            raise ContainerError(
                f"mask.bin dimension mismatch: expected {p * 3 * 4} bytes, found {len(mask_raw)}"
            )
        mask = np.frombuffer(mask_raw, dtype="<u4").reshape(p, 3).astype(np.int64)
    try:
        geometry = None if mask is None else GridGeometry(tuple(grid_dims), mask)
        return Dataset(X=X, y=np.asarray(labels), geometry=geometry)
    except ValueError as e:
        raise ContainerError(f"{path}: {e}") from e
