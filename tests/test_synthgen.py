"""Generator tests: mask construction, cluster placement, planted signal."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import rss_select.synthgen as synthgen
from rss_select.synthgen import (
    GroundTruth,
    SynthConfig,
    default_cluster_placement,
    ellipsoid_mask,
    generate_synthetic,
    load_ground_truth,
    save_ground_truth,
)

SMALL = SynthConfig(dims=(12, 12, 6), mask_size=500, n_per_group=20,
                    cluster_sizes=(10, 10, 8, 8, 8), seed=3)


@pytest.fixture(scope="module")
def default_instance():
    return generate_synthetic(SynthConfig())


def test_ellipsoid_mask_size_and_grid_bounds():
    mask = ellipsoid_mask((10, 8, 6), 100)
    assert mask.shape == (100, 3)
    assert np.unique(mask, axis=0).shape[0] == 100
    assert (mask >= 0).all()
    assert (mask < np.array([10, 8, 6])).all()


def test_ellipsoid_mask_is_deterministic_and_nested():
    small = ellipsoid_mask((10, 8, 6), 60)
    again = ellipsoid_mask((10, 8, 6), 60)
    assert_array_equal(small, again)
    large = ellipsoid_mask((10, 8, 6), 200)
    small_set = {tuple(v) for v in small}
    large_set = {tuple(v) for v in large}
    assert small_set <= large_set


def test_ellipsoid_mask_keeps_the_most_central_voxels():
    dims = (9, 7, 5)
    mask = ellipsoid_mask(dims, 50)
    grid = np.indices(dims).reshape(3, -1).T
    center = (np.asarray(dims) - 1) / 2.0
    semi = np.asarray(dims) / 2.0
    r2 = (((grid - center) / semi) ** 2).sum(axis=1)
    chosen = {tuple(v) for v in mask}
    in_r2 = [r for v, r in zip(grid, r2) if tuple(v) in chosen]
    out_r2 = [r for v, r in zip(grid, r2) if tuple(v) not in chosen]
    assert max(in_r2) <= min(out_r2) + 1e-12


def test_placement_defaults_are_disjoint_and_total_383():
    placements = default_cluster_placement((46, 55, 46), (76, 76, 77, 77, 77))
    sizes = [c.shape[0] for c in placements]
    assert sizes == [76, 76, 77, 77, 77]
    flat = np.vstack(placements)
    assert np.unique(flat, axis=0).shape[0] == 383
    assert (flat >= 0).all()
    assert (flat < np.array([46, 55, 46])).all()


def test_placement_singletons():
    placements = default_cluster_placement((8, 8, 8), (1, 1, 1, 1, 1))
    flat = np.vstack(placements)
    assert flat.shape == (5, 3)
    assert np.unique(flat, axis=0).shape[0] == 5


def test_placement_is_deterministic():
    a = default_cluster_placement((20, 20, 10), (12, 9, 7, 7, 7))
    b = default_cluster_placement((20, 20, 10), (12, 9, 7, 7, 7))
    for ca, cb in zip(a, b):
        assert_array_equal(ca, cb)


def test_placement_boxes_are_compact():
    # bounding box volume stays within twice the cluster size
    for sizes in [(76, 76, 77, 77, 77), (30, 20, 11, 11, 11), (1, 2, 3, 3, 3)]:
        for coords in default_cluster_placement((46, 55, 46), sizes):
            span = coords.max(axis=0) - coords.min(axis=0) + 1
            assert span.prod() <= 2 * coords.shape[0]


def test_placement_rejects_impossible_grids():
    with pytest.raises(ValueError, match="cannot fit"):
        default_cluster_placement((4, 4, 1), (20, 20, 20, 20, 20))


def test_default_instance_matches_reference_scale(default_instance):
    ds, truth = default_instance
    assert ds.n == 100
    assert ds.p == 27884
    assert truth.features.size == 383
    assert_array_equal(np.unique(truth.cluster_ids), [1, 2, 3, 4, 5])
    sizes = np.bincount(truth.cluster_ids, minlength=6)[1:]
    assert_array_equal(sizes, [76, 76, 77, 77, 77])
    assert_array_equal(ds.y[:50], np.ones(50))
    assert_array_equal(ds.y[50:], -np.ones(50))


def test_univariate_cluster_means(default_instance):
    ds, truth = default_instance
    for k, shift in [(1, 1.0), (2, 2.0)]:
        cols = truth.features[truth.cluster_ids == k]
        case_mean = ds.X[:50][:, cols].mean()
        ctrl_mean = ds.X[50:][:, cols].mean()
        assert abs(case_mean - shift) <= 0.1
        assert abs(ctrl_mean) <= 0.1


def test_triple_sums_satisfy_the_constraint_exhaustively(default_instance):
    ds, truth = default_instance
    c3 = truth.features[truth.cluster_ids == 3]
    c4 = truth.features[truth.cluster_ids == 4]
    c5 = truth.features[truth.cluster_ids == 5]
    sums = ds.X[:, c3] + ds.X[:, c4] + ds.X[:, c5]
    assert (sums[:50] > 1.0).all()  # every case triple of every sample
    assert (sums[50:] < 1.0).all()


def test_generator_is_deterministic():
    a_ds, a_truth = generate_synthetic(SMALL)
    b_ds, b_truth = generate_synthetic(SMALL)
    assert_array_equal(a_ds.X, b_ds.X)
    assert_array_equal(a_ds.y, b_ds.y)
    assert_array_equal(a_ds.geometry.mask, b_ds.geometry.mask)
    assert_array_equal(a_truth.features, b_truth.features)
    assert_array_equal(a_truth.cluster_ids, b_truth.cluster_ids)


def test_constraint_threshold_is_configurable():
    config = SynthConfig(dims=(10, 10, 5), mask_size=300, n_per_group=10,
                         cluster_sizes=(4, 4, 6, 6, 6), constraint_threshold=2.0, seed=1)
    ds, truth = generate_synthetic(config)
    c3 = truth.features[truth.cluster_ids == 3]
    c4 = truth.features[truth.cluster_ids == 4]
    c5 = truth.features[truth.cluster_ids == 5]
    sums = ds.X[:, c3] + ds.X[:, c4] + ds.X[:, c5]
    assert (sums[:10] > 2.0).all()
    assert (sums[10:] < 2.0).all()


def test_cluster1_columns_separate_classes_reliably():
    """A 1-sigma mean shift with 20 case samples keeps Welch |t| above 3 for
    nearly every cluster-1 column; checked across seeds."""
    from rss_select.baselines import ttest_scores

    hits, total = 0, 0
    for seed in range(20):
        config = SynthConfig(dims=SMALL.dims, mask_size=SMALL.mask_size,
                             n_per_group=50, cluster_sizes=SMALL.cluster_sizes, seed=seed)
        ds, truth = generate_synthetic(config)
        cols = truth.features[truth.cluster_ids == 1]
        t = ttest_scores(ds)[cols]
        hits += int((t > 3.0).sum())
        total += cols.size
    assert hits / total >= 0.9


def test_noise_columns_are_standard_noise():
    ds, truth = generate_synthetic(SMALL)
    noise = np.setdiff1d(np.arange(ds.p), truth.features)
    block = ds.X[:, noise]
    assert abs(block.mean()) <= 0.02
    assert_allclose(block.std(), 1.0, atol=0.02)


def test_config_validation():
    with pytest.raises(ValueError, match="equal sizes"):
        SynthConfig(cluster_sizes=(10, 10, 5, 5, 6))
    with pytest.raises(ValueError, match="5 positive integers"):
        SynthConfig(cluster_sizes=(10, 10, 5, 5))
    with pytest.raises(ValueError, match="dims"):
        SynthConfig(dims=(0, 5, 5))
    with pytest.raises(ValueError, match="mask_size"):
        SynthConfig(dims=(4, 4, 4), mask_size=65)
    with pytest.raises(ValueError, match="noise_sd"):
        SynthConfig(noise_sd=0.0)
    with pytest.raises(ValueError, match="n_per_group"):
        SynthConfig(n_per_group=0)
    for threshold in (math.nan, math.inf, 6.45, -6.45, 100.0):
        with pytest.raises(ValueError, match=r"constraint_threshold must lie in \[-6.442, 6.442\]"):
            SynthConfig(constraint_threshold=threshold)
    # the range scales with the noise: a triple sums to N(0, 3 noise_sd^2)
    assert SynthConfig(constraint_threshold=-6.44).constraint_threshold == -6.44
    assert SynthConfig(noise_sd=2.0, constraint_threshold=12.8).constraint_threshold == 12.8
    with pytest.raises(ValueError, match=r"\[-12.88, 12.88\]"):
        SynthConfig(noise_sd=2.0, constraint_threshold=12.9)


def test_threshold_limit_literal_is_the_normal_quantile():
    """The written-out limit is the value scipy computes, bit for bit."""
    from scipy.special import ndtri
    assert synthgen._MAX_THRESHOLD_SDS == -ndtri(1e-4) * 3**0.5


def test_placement_outside_mask_is_rejected():
    # a mask too small to reach the central boxes
    config = SynthConfig(dims=(20, 20, 20), mask_size=2, n_per_group=4,
                         cluster_sizes=(8, 8, 8, 8, 8))
    with pytest.raises(ValueError, match="mask"):
        generate_synthetic(config)


def test_rejection_sampling_guard_trips(monkeypatch):
    # attempt limit lowered so a threshold that accepts 2.7e-4 of draws fails fast
    monkeypatch.setattr(synthgen, "_MAX_REJECTION_ROUNDS", 50)
    config = SynthConfig(dims=(10, 10, 5), mask_size=300, n_per_group=4,
                         cluster_sizes=(2, 2, 3, 3, 3), constraint_threshold=6.0)
    with pytest.raises(RuntimeError, match="rejection"):
        generate_synthetic(config)


def test_ground_truth_roundtrip(tmp_path):
    dataset, truth = generate_synthetic(SMALL)
    assert_array_equal(truth.coords, dataset.geometry.mask[truth.features])
    path = tmp_path / "ground_truth.csv"
    save_ground_truth(truth, path)
    assert path.read_text().splitlines()[0] == "feature,planted_cluster,x,y,z"
    back = load_ground_truth(path)
    assert_array_equal(back.features, truth.features)
    assert_array_equal(back.cluster_ids, truth.cluster_ids)
    assert_array_equal(back.coords, truth.coords)


def test_ground_truth_file_validation(tmp_path):
    path = tmp_path / "ground_truth.csv"
    path.write_text("voxel,cluster\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        load_ground_truth(path)


@pytest.mark.parametrize("text, line", [
    ("", "line 1: unexpected header"),
    ("feature,planted_cluster\n3,1\n", "line 1: unexpected header"),
    ("feature,planted_cluster,x,y,z\n", "line 2: no rows"),
    ("feature,planted_cluster,x,y,z\n3,1,0,0,0\n4,1,0,0\n", "line 3: 4 fields, expected 5"),
    ("feature,planted_cluster,x,y,z\n3,1,0,0,0\n\n", "line 3: 0 fields"),
])
def test_ground_truth_names_the_file_and_line_of_a_bad_row(tmp_path, text, line):
    path = tmp_path / "ground_truth.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"ground_truth.csv, {line}"):
        load_ground_truth(path)


def test_ground_truth_type_constraints():
    xyz = np.zeros((2, 3))
    with pytest.raises(ValueError, match="strictly increasing"):
        GroundTruth(features=np.array([3, 1]), cluster_ids=np.array([1, 2]), coords=xyz)
    with pytest.raises(ValueError, match="matching"):
        GroundTruth(features=np.array([1, 2]), cluster_ids=np.array([1]), coords=xyz)
    truth = GroundTruth(features=[2, 5], cluster_ids=[1, 1], coords=[[0, 1, 2], [3, 4, 5]])
    assert truth.coords.dtype == np.int64
    assert_array_equal(truth.coords, [[0, 1, 2], [3, 4, 5]])
    with pytest.raises(ValueError, match="coords"):
        GroundTruth(features=np.array([1, 2]), cluster_ids=np.array([1, 1]), coords=np.zeros((2, 2)))
