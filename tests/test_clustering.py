"""Parcellation tests: feature vectors, k-means behavior, and persistence."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from rss_select.clustering import (
    ClusterConfig,
    _kmeanspp,
    _lloyd,
    build_feature_vectors,
    kmeans,
    load_parcellation,
    save_parcellation,
    within_cluster_ss,
)
from rss_select.data import Dataset, GridGeometry, Parcellation, RngStream
from rss_select.synthgen import SynthConfig, generate_synthetic

import oracles


def _toy_dataset(n=6, p=5, seed=0, geometry=False, constant=2.5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X[:, 3] = constant  # constant feature
    y = np.array([1, -1] * (n // 2))
    geom = None
    if geometry:
        dims = (4, 3, 2)
        mask = np.array([[0, 0, 0], [1, 0, 0], [3, 2, 1], [2, 1, 0], [0, 2, 1]], dtype=np.uint32)
        geom = GridGeometry(dims=dims, mask=mask[:p])
    return Dataset(X=X, y=y, geometry=geom)


def test_feature_vectors_are_standardized_sample_profiles():
    ds = _toy_dataset()
    vectors = build_feature_vectors(ds)
    assert vectors.shape == (ds.p, ds.n)
    for j in range(ds.p):
        if j == 3:
            continue
        assert abs(vectors[j].mean()) < 1e-12
        assert_allclose(vectors[j].std(), 1.0, atol=1e-12)  # population std


def test_feature_vectors_constant_feature_becomes_zero_row():
    ds = _toy_dataset()
    vectors = build_feature_vectors(ds)
    assert_array_equal(vectors[3], np.zeros(ds.n))


def test_feature_vectors_repeated_value_with_rounding_std_becomes_zero_row():
    ds = _toy_dataset(n=30, constant=4.2)
    assert ds.X[:, 3].std() > 0.0  # std of 30 copies of 4.2 is 8.9e-16, not 0
    assert_array_equal(build_feature_vectors(ds)[3], np.zeros(ds.n))


def test_feature_vectors_duplicate_columns_get_identical_rows():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(8, 4))
    X[:, 2] = 3.0 * X[:, 0] + 1.0  # affine copy standardizes identically
    ds = Dataset(X=X, y=np.array([1, -1] * 4))
    vectors = build_feature_vectors(ds)
    assert_allclose(vectors[2], vectors[0], atol=1e-12)


def test_feature_vectors_spatial_weight_appends_scaled_coordinates():
    ds = _toy_dataset(geometry=True)
    weight = 0.7
    vectors = build_feature_vectors(ds, spatial_weight=weight)
    assert vectors.shape == (ds.p, ds.n + 3)
    denom = np.maximum(np.asarray(ds.geometry.dims) - 1, 1)
    expected = weight * ds.geometry.mask / denom
    assert_allclose(vectors[:, ds.n :], expected, atol=1e-15)
    # signal part is unchanged by the spatial extension
    assert_allclose(vectors[:, : ds.n], build_feature_vectors(ds), atol=0)


def test_feature_vectors_spatial_weight_requires_geometry():
    ds = _toy_dataset(geometry=False)
    with pytest.raises(ValueError, match="geometry"):
        build_feature_vectors(ds, spatial_weight=0.5)
    with pytest.raises(ValueError, match="non-negative"):
        build_feature_vectors(ds, spatial_weight=-0.1)


def test_kmeans_single_cluster_takes_everything():
    rng = np.random.default_rng(2)
    features = rng.normal(size=(9, 3))
    parc = kmeans(features, ClusterConfig(q=1, seed=RngStream(0, 0)))
    assert parc.q == 1
    assert_array_equal(parc.assignment, np.zeros(9, dtype=np.int64))


def test_kmeans_q_equals_p_gives_singletons():
    rng = np.random.default_rng(3)
    features = rng.normal(size=(8, 3))  # distinct rows almost surely
    parc = kmeans(features, ClusterConfig(q=8, seed=RngStream(1, 0), restarts=3))
    assert_array_equal(np.bincount(parc.assignment, minlength=8), np.ones(8, dtype=np.int64))


def test_kmeans_recovers_two_blobs_exactly():
    """12 points in two well-separated blobs: k-means must match the
    exhaustive minimum-cost 2-partition."""
    rng = np.random.default_rng(5)
    blob_a = rng.normal(loc=0.0, scale=0.3, size=(6, 2))
    blob_b = rng.normal(loc=10.0, scale=0.3, size=(6, 2))
    points = np.vstack([blob_a, blob_b])

    best_cost, best_parts = oracles.best_two_partition(points)
    parc = kmeans(points, ClusterConfig(q=2, seed=RngStream(7, 0), restarts=4))
    got_parts = frozenset(
        frozenset(np.flatnonzero(parc.assignment == g).tolist()) for g in range(2)
    )
    assert got_parts == best_parts
    assert_allclose(within_cluster_ss(points, parc), best_cost, rtol=1e-12)


def test_kmeans_deterministic_for_a_seed():
    rng = np.random.default_rng(6)
    features = rng.normal(size=(40, 4))
    a = kmeans(features, ClusterConfig(q=5, seed=RngStream(13, 2), restarts=3))
    b = kmeans(features, ClusterConfig(q=5, seed=RngStream(13, 2), restarts=3))
    assert_array_equal(a.assignment, b.assignment)


def test_kmeans_rejects_more_clusters_than_points():
    features = np.zeros((4, 2))
    with pytest.raises(ValueError, match="exceeds"):
        kmeans(features, ClusterConfig(q=5, seed=RngStream(0, 0)))


def test_kmeans_rejects_non_finite_features():
    features = np.ones((4, 2))
    features[1, 0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        kmeans(features, ClusterConfig(q=2, seed=RngStream(0, 0)))


def test_lloyd_never_increases_wcss():
    rng = np.random.default_rng(8)
    for trial in range(5):
        features = rng.normal(size=(50, 3))
        centers = _kmeanspp(features, 6, rng)
        _, inertia, history = _lloyd(features, centers, 100)
        assert history[-1] == inertia
        diffs = np.diff(history)
        assert (diffs <= 1e-9 * max(1.0, history[0])).all()


def test_lloyd_repairs_empty_clusters():
    """A center placed far from every point starts empty; the repair step
    must hand it a point instead of dividing by zero."""
    rng = np.random.default_rng(9)
    features = rng.uniform(size=(10, 2))
    centers = np.vstack([features[0], features[1], [1e3, 1e3]])
    assign, _, history = _lloyd(features, centers, 50)
    assert (np.bincount(assign, minlength=3) > 0).all()
    diffs = np.diff(history)
    assert (diffs <= 1e-9 * max(1.0, history[0])).all()


def test_lloyd_repair_moves_lowest_index_when_every_row_sits_on_a_center():
    """Six rows with two distinct values and q=3: the third center repeats
    the first, so its cluster starts empty while every row is at distance 0
    from its center. The repair must move the lowest eligible row, not the
    one rounding noise ranks highest, and leave pure clusters. Forty random
    value pairs; the noise picked another row for about a quarter of them."""
    for seed in range(40):
        v, w = np.random.default_rng(seed).normal(size=(2, 3))
        features = np.array([v, v, v, w, w, w])
        centers = np.array([v, w, v])
        first, _, _ = _lloyd(features, centers, 1)
        assign, _, _ = _lloyd(features, centers, 50)
        assert_array_equal(first, [2, 0, 0, 1, 1, 1], err_msg=f"seed {seed}")
        assert_array_equal(assign, [2, 0, 0, 1, 1, 1], err_msg=f"seed {seed}")
        for g in range(3):
            rows = features[assign == g]
            assert ((rows - rows[0]) ** 2).sum() == 0.0  # WCSS exactly 0


def test_lloyd_wcss_is_never_negative_on_pure_clusters():
    """Six rows with two distinct values and q=3 end in pure clusters, where
    the WCSS identity cancels to rounding noise; without the clamp it read
    below 0 in 51 of these 200 cases."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        v, w = rng.normal(size=(2, 3))
        features = np.array([v, v, v, w, w, w])[rng.permutation(6)]
        centers = features[rng.choice(6, 3, replace=False)]
        _, inertia, history = _lloyd(features, centers, 50)
        assert min(history) >= 0.0, f"seed {seed}"
        assert (np.diff(history) <= 1e-9 * max(1.0, history[0])).all(), f"seed {seed}"
        assert inertia == history[-1]


@st.composite
def _kmeans_instances(draw):
    """Gaussian rows with some zero rows and repeated rows, and any q in [1, p]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    npts = draw(st.integers(1, 40))
    features = rng.normal(size=(npts, draw(st.integers(1, 8))))
    features[: draw(st.integers(0, npts))] = 0.0
    repeats = draw(st.integers(0, npts - 1))
    features[npts - repeats :] = features[rng.integers(npts - repeats, size=repeats)]
    features = features[rng.permutation(npts)]
    q = draw(st.integers(1, npts))
    return features, q, draw(st.integers(0, 2**16)), draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kmeans_instances())
def test_kmeans_matches_reference_kernels(instance):
    features, q, seed, restarts = instance
    # seeding: same centers and same draws, so a row identical to a chosen
    # center must get probability exactly 0, as the reference's exact
    # differences give it
    rng, want_rng = RngStream(seed, 0).generator(), RngStream(seed, 0).generator()
    assert_array_equal(_kmeanspp(features, q, rng),
                       oracles.kmeanspp_reference(features, q, want_rng))
    assert rng.bit_generator.state == want_rng.bit_generator.state

    parc = kmeans(features, ClusterConfig(q=q, seed=RngStream(seed, 0), restarts=restarts))
    want_assign, want_inertia = oracles.kmeans_reference(
        features, q, RngStream(seed, 0).generator(), restarts=restarts
    )
    best = min(r["wcss"] for r in parc.lloyd_restarts)
    assert_allclose(best, want_inertia, rtol=1e-12, atol=1e-12)
    distinct, row_id = np.unique(features, axis=0, return_inverse=True)
    if q <= distinct.shape[0]:
        assert_array_equal(parc.assignment, want_assign)
    else:
        # every row already sits on a center, so every point the empty-cluster
        # repair may move is at distance 0 and rounding noise picks one, in
        # both versions; any such choice leaves pure clusters and WCSS 0
        assert abs(want_inertia) <= 1e-12 * (1.0 + float((features**2).sum()))
        for members in parc.members():
            assert np.unique(row_id.ravel()[members]).size == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(3, 40), st.integers(1, 5), st.integers(1, 8))
def test_lloyd_repair_matches_reference_with_far_center(seed, npts, dim, q):
    """A center far from every point starts empty and forces the repair."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(npts, dim))
    q = min(q, npts - 1)
    centers = np.vstack([features[rng.choice(npts, q, replace=False)], np.full(dim, 1e3)])
    assign, inertia, history = _lloyd(features, centers, 100)
    want_assign, want_inertia, want_history = oracles.lloyd_reference(features, centers, 100)
    assert_array_equal(assign, want_assign)
    assert len(history) == len(want_history)
    assert_allclose(history, want_history, rtol=1e-12, atol=1e-12)
    assert_allclose(inertia, want_inertia, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 15), st.integers(1, 5), st.integers(1, 3))
def test_kmeans_tripled_rows_give_one_triple_per_cluster(seed, distinct, dim, restarts):
    """Rows identical to a chosen center must never be drawn again, so with q
    equal to the number of distinct rows every cluster is one triple."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(distinct, dim))
    order = rng.permutation(3 * distinct)
    features = np.repeat(rows, 3, axis=0)[order]
    parc = kmeans(features, ClusterConfig(q=distinct, seed=RngStream(seed, 1), restarts=restarts))
    source = (np.arange(3 * distinct) // 3)[order]
    for members in parc.members():
        assert members.size == 3
        assert np.unique(source[members]).size == 1


def test_kmeans_matches_reference_at_full_scale():
    dataset, _ = generate_synthetic(SynthConfig(seed=0))
    features = build_feature_vectors(dataset)
    config = ClusterConfig(q=200, seed=RngStream(1000, 0), restarts=1, max_lloyd_iters=15)
    parc = kmeans(features, config)
    want_assign, want_inertia = oracles.kmeans_reference(
        features, 200, config.seed.generator(), restarts=1, max_iters=15
    )
    assert_array_equal(parc.assignment, want_assign)
    (record,) = parc.lloyd_restarts
    assert_allclose(record["wcss"], want_inertia, rtol=1e-12)
    assert record["iterations"] == 15 and not record["converged"]


def test_kmeans_records_lloyd_health_per_restart():
    rng = np.random.default_rng(12)
    features = rng.normal(size=(60, 3))
    parc = kmeans(features, ClusterConfig(q=4, seed=RngStream(2, 0), restarts=3))
    assert len(parc.lloyd_restarts) == 3
    for record in parc.lloyd_restarts:
        assert record["converged"] and 1 <= record["iterations"] < 300
    assert_allclose(min(r["wcss"] for r in parc.lloyd_restarts),
                    within_cluster_ss(features, parc), rtol=1e-9)

    capped = kmeans(features, ClusterConfig(q=4, seed=RngStream(2, 0), restarts=3,
                                            max_lloyd_iters=1))
    assert [r["iterations"] for r in capped.lloyd_restarts] == [1, 1, 1]
    assert not any(r["converged"] for r in capped.lloyd_restarts)


def test_within_cluster_ss_matches_lloyd_inertia():
    rng = np.random.default_rng(10)
    features = rng.normal(size=(30, 4))
    centers = _kmeanspp(features, 3, rng)
    assign, inertia, _ = _lloyd(features, centers, 100)
    parc = Parcellation(assignment=assign, q=3)
    assert_allclose(within_cluster_ss(features, parc), inertia, rtol=1e-9)


def test_parcellation_roundtrip_with_sidecar(tmp_path):
    rng = np.random.default_rng(11)
    features = rng.normal(size=(20, 3))
    parc = kmeans(features, ClusterConfig(q=4, seed=RngStream(3, 0), restarts=2))
    path = tmp_path / "parcellation.csv"
    save_parcellation(parc, path, sidecar={"seed": 3, "spatial_weight": 0.5})

    loaded = load_parcellation(path)
    assert loaded.q == parc.q
    assert_array_equal(loaded.assignment, parc.assignment)

    meta = json.loads(path.with_suffix(".json").read_text())
    assert meta["q"] == 4
    assert meta["seed"] == 3
    assert meta["spatial_weight"] == 0.5


def test_load_parcellation_rejects_bad_header(tmp_path):
    path = tmp_path / "parcellation.csv"
    path.write_text("voxel,group\n0,0\n")
    with pytest.raises(ValueError, match="header"):
        load_parcellation(path)


@pytest.mark.parametrize("text, line", [
    ("", "line 1: unexpected header"),
    ("feature,cluster\n", "line 2: no rows"),
    ("feature,cluster\n0,0\n1\n", "line 3: 1 fields, expected 2"),
    ("feature,cluster\n0,0\n\n", "line 3: 0 fields"),
    ("feature,cluster\n0,x\n", "line 2: invalid literal"),
])
def test_load_parcellation_names_the_file_and_line_of_a_bad_row(tmp_path, text, line):
    path = tmp_path / "parcellation.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"parcellation.csv, {line}"):
        load_parcellation(path)


def test_load_parcellation_requires_full_feature_coverage(tmp_path):
    path = tmp_path / "parcellation.csv"
    path.write_text("feature,cluster\n0,0\n2,1\n")  # feature 1 missing
    with pytest.raises(ValueError, match="0..p-1"):
        load_parcellation(path)


def test_cluster_config_validation():
    with pytest.raises(ValueError, match="q must be positive"):
        ClusterConfig(q=0, seed=RngStream(0, 0))
    with pytest.raises(ValueError, match="restarts"):
        ClusterConfig(q=1, seed=RngStream(0, 0), restarts=0)
    with pytest.raises(ValueError, match="max_lloyd_iters"):
        ClusterConfig(q=1, seed=RngStream(0, 0), max_lloyd_iters=0)
    with pytest.raises(ValueError, match="spatial_weight"):
        ClusterConfig(q=1, seed=RngStream(0, 0), spatial_weight=-1.0)
