import json

import numpy as np
import pytest

from rss_select.data import (
    ContainerError,
    Dataset,
    GridGeometry,
    Parcellation,
    RngStream,
    SolverSolution,
    StabilityScores,
    load_dataset,
    with_permuted_labels,
    save_dataset,
    sha256_file,
)


def _random_dataset(rng, n, p, with_geometry=False, dims=(6, 5, 4)):
    X = rng.normal(size=(n, p))
    y = np.where(rng.random(n) < 0.5, 1, -1)
    geometry = None
    if with_geometry:
        volume = dims[0] * dims[1] * dims[2]
        assert p <= volume
        flat = rng.choice(volume, size=p, replace=False)
        mask = np.column_stack(np.unravel_index(flat, dims))
        geometry = GridGeometry(dims, mask)
    return Dataset(X=X, y=y, geometry=geometry)


# ---------------------------------------------------------------- containers


def test_round_trip_small_container(tmp_path):
    rng = np.random.default_rng(0)
    ds = _random_dataset(rng, 4, 3)
    save_dataset(ds, tmp_path / "c")
    back = load_dataset(tmp_path / "c")
    assert back.n == 4 and back.p == 3
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.y, ds.y)
    assert back.geometry is None


def test_round_trip_is_bit_exact_over_random_instances(tmp_path):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        ds = _random_dataset(rng, int(rng.integers(2, 12)), int(rng.integers(1, 40)),
                             with_geometry=bool(seed % 2))
        path = tmp_path / f"c{seed}"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.X.tobytes() == ds.X.tobytes()
        np.testing.assert_array_equal(back.y, ds.y)
        if ds.geometry is None:
            assert back.geometry is None
        else:
            assert back.geometry.dims == ds.geometry.dims
            np.testing.assert_array_equal(back.geometry.mask, ds.geometry.mask)


def test_round_trip_preserves_mask_order(tmp_path):
    rng = np.random.default_rng(3)
    ds = _random_dataset(rng, 5, 30, with_geometry=True)
    save_dataset(ds, tmp_path / "c")
    back = load_dataset(tmp_path / "c")
    np.testing.assert_array_equal(back.geometry.mask, ds.geometry.mask)


def test_save_twice_identical_bytes(tmp_path):
    rng = np.random.default_rng(7)
    ds = _random_dataset(rng, 6, 9, with_geometry=True)
    save_dataset(ds, tmp_path / "a")
    save_dataset(ds, tmp_path / "b")
    for name in ("manifest.json", "X.bin", "mask.bin"):
        assert sha256_file(tmp_path / "a" / name) == sha256_file(tmp_path / "b" / name)


def test_container_layout_on_disk(tmp_path):
    """The on-disk format is pinned: json manifest, magic-prefixed float64
    payload, uint32 coordinate triples."""
    rng = np.random.default_rng(1)
    ds = _random_dataset(rng, 2, 3, with_geometry=True)
    save_dataset(ds, tmp_path / "c")
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["format"] == "RSSD"
    assert manifest["version"] == 1
    assert manifest["n"] == 2 and manifest["p"] == 3
    assert manifest["dtype"] == "f64le"
    assert manifest["layout"] == "row-major"
    assert manifest["labels"] == [int(v) for v in ds.y]
    assert manifest["grid_dims"] == list(ds.geometry.dims)
    raw = (tmp_path / "c" / "X.bin").read_bytes()
    assert raw[:4] == b"RSS1"
    np.testing.assert_array_equal(
        np.frombuffer(raw[4:], dtype="<f8").reshape(2, 3), ds.X)
    mask_raw = (tmp_path / "c" / "mask.bin").read_bytes()
    np.testing.assert_array_equal(
        np.frombuffer(mask_raw, dtype="<u4").reshape(3, 3), ds.geometry.mask)


def _write_valid_container(tmp_path, rng):
    ds = _random_dataset(rng, 4, 3)
    path = tmp_path / "c"
    save_dataset(ds, path)
    return path


def _patch_manifest(path, **updates):
    manifest = json.loads((path / "manifest.json").read_text())
    manifest.update(updates)
    (path / "manifest.json").write_text(json.dumps(manifest))


def test_load_rejects_row_count_mismatch(tmp_path):
    path = _write_valid_container(tmp_path, np.random.default_rng(0))
    _patch_manifest(path, n=5, labels=[1, -1, 1, -1, 1])
    with pytest.raises(ContainerError, match="dimension mismatch"):
        load_dataset(path)


def test_load_rejects_label_domain(tmp_path):
    path = _write_valid_container(tmp_path, np.random.default_rng(0))
    _patch_manifest(path, labels=[1, 0, 1, -1])
    with pytest.raises(ContainerError, match="label domain"):
        load_dataset(path)


def test_load_rejects_bad_magic(tmp_path):
    path = _write_valid_container(tmp_path, np.random.default_rng(0))
    raw = (path / "X.bin").read_bytes()
    (path / "X.bin").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ContainerError, match="magic"):
        load_dataset(path)


def test_load_rejects_unknown_version(tmp_path):
    path = _write_valid_container(tmp_path, np.random.default_rng(0))
    _patch_manifest(path, version=99)
    with pytest.raises(ContainerError, match="version"):
        load_dataset(path)


def test_load_rejects_nan_payload(tmp_path):
    path = _write_valid_container(tmp_path, np.random.default_rng(0))
    body = np.frombuffer((path / "X.bin").read_bytes()[4:], dtype="<f8").copy()
    body[5] = np.nan
    (path / "X.bin").write_bytes(b"RSS1" + body.tobytes())
    with pytest.raises(ContainerError, match="NaN"):
        load_dataset(path)


def test_load_rejects_missing_pieces(tmp_path):
    with pytest.raises(ContainerError, match="manifest"):
        load_dataset(tmp_path / "nowhere")
    path = _write_valid_container(tmp_path, np.random.default_rng(0))
    (path / "X.bin").unlink()
    with pytest.raises(ContainerError, match="X.bin"):
        load_dataset(path)


def test_load_rejects_declared_grid_without_mask(tmp_path):
    path = _write_valid_container(tmp_path, np.random.default_rng(0))
    _patch_manifest(path, grid_dims=[4, 4, 4])
    with pytest.raises(ContainerError, match="mask.bin"):
        load_dataset(path)


# ------------------------------------------------------------------ rng


def test_rng_stream_is_deterministic():
    a = RngStream(42, 0).generator().bytes(32)
    b = RngStream(42, 0).generator().bytes(32)
    assert a == b


def test_rng_stream_separates_stream_ids():
    a = RngStream(42, 0).generator().bytes(32)
    b = RngStream(42, 1).generator().bytes(32)
    assert a != b


def test_rng_stream_golden_bytes():
    """Regression pin so any platform or library drift is caught loudly."""
    got = RngStream(42, 7).generator().bytes(16).hex()
    assert got == "e402a59aac7d6700c4f41a583efabe17", got


def test_rng_stream_accepts_huge_seeds():
    s = RngStream(2**70 + 3, 5)
    assert s.generator().integers(1000) == RngStream(2**70 + 3, 5).generator().integers(1000)


# ------------------------------------------------------------------ types


def test_dataset_validation():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        Dataset(X=X, y=np.array([1, 1, 0]))
    with pytest.raises(ValueError):
        Dataset(X=X, y=np.array([1, 1]))
    with pytest.raises(ValueError):
        Dataset(X=X, y=np.array([1.7, -1.2, 1.0]))  # not truncated to +-1
    with pytest.raises(ValueError):
        Dataset(X=np.array([[np.inf, 0.0]]), y=np.array([1]))
    ds = Dataset(X=X, y=np.array([1, -1, 1]))
    assert ds.n == 3 and ds.p == 2
    assert ds.X.flags["C_CONTIGUOUS"]


def test_with_permuted_labels_keeps_x_and_checks_the_order():
    rng = np.random.default_rng(3)
    ds = _random_dataset(rng, 6, 5, with_geometry=True)
    order = np.array([5, 0, 4, 1, 3, 2])
    out = with_permuted_labels(ds, order)
    assert out.X is ds.X and out.geometry is ds.geometry
    assert out.y.dtype == np.int64
    np.testing.assert_array_equal(out.y, ds.y[order])
    for bad in (np.array([0, 0, 1, 2, 3, 4]), order[:5], np.arange(7)):
        with pytest.raises(ValueError, match="permutation"):
            with_permuted_labels(ds, bad)


def test_grid_geometry_validation():
    mask = np.array([[0, 0, 0], [1, 0, 0]])
    geom = GridGeometry((2, 2, 2), mask)
    assert geom.p == 2
    with pytest.raises(ValueError):
        GridGeometry((2, 2, 2), np.array([[0, 0, 0], [0, 0, 0]]))  # duplicate
    with pytest.raises(ValueError):
        GridGeometry((2, 2, 2), np.array([[0, 0, 2]]))  # out of bounds
    with pytest.raises(ValueError):
        GridGeometry((0, 2, 2), mask)


def test_parcellation_validation():
    Parcellation(assignment=np.array([0, 1, 0, 2]), q=3)
    with pytest.raises(ValueError):
        Parcellation(assignment=np.array([0, 2, 0, 2]), q=3)  # cluster 1 unused
    with pytest.raises(ValueError):
        Parcellation(assignment=np.array([0, 1, 3]), q=3)  # id out of range
    with pytest.raises(ValueError):
        Parcellation(assignment=np.array([0, -1, 1]), q=2)


def test_parcellation_members_partition():
    parc = Parcellation(assignment=np.array([1, 0, 1, 2, 0]), q=3)
    members = parc.members()
    assert sorted(np.concatenate(members).tolist()) == [0, 1, 2, 3, 4]
    np.testing.assert_array_equal(members[1], [0, 2])


def test_stability_scores_bounds():
    s = StabilityScores(counts=np.array([0, 3, 5]), K=5)
    np.testing.assert_allclose(s.normalized, [0.0, 0.6, 1.0])
    with pytest.raises(ValueError):
        StabilityScores(counts=np.array([0, 6]), K=5)
    with pytest.raises(ValueError):
        StabilityScores(counts=np.array([-1, 0]), K=5)


def test_solver_solution_support():
    sol = SolverSolution(w=np.array([0.0, 1e-12, 0.5]), c=0.1,
                         objective=1.0, kkt_residual=1e-9)
    np.testing.assert_array_equal(sol.support(1e-8), [2])
    with pytest.raises(ValueError):
        SolverSolution(w=np.array([np.nan]), c=0.0, objective=1.0, kkt_residual=0.0)
