"""Resampling engine tests: row draws, block subsampling, score accumulation."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import oracles
from rss_select.data import (
    Dataset,
    GridGeometry,
    Parcellation,
    RngStream,
    SolverSolution,
    StabilityScores,
)
from rss_select import solver, stability
from rss_select.solver import SolverConfig, fit_l1_logistic
from rss_select.stability import (
    BlockCover,
    StabilityConfig,
    average_supervoxels,
    cluster_quotas,
    draw_iteration,
    draw_row_subsample,
    load_scores_csv,
    resample,
    round_nearest,
    run_stability_selection,
    save_scores_csv,
    threshold_scores,
)
from rss_select.synthgen import SynthConfig, generate_synthetic

DEFAULT_SOLVER = SolverConfig(loss_weight=0.5)


def _full_grid_geometry(dims):
    coords = np.array(list(itertools.product(*(range(d) for d in dims))), dtype=np.uint32)
    return GridGeometry(dims=dims, mask=coords)


def _by_cluster(picks, quotas):
    # a draw's flat picks, one array per cluster
    return np.split(picks, np.cumsum(quotas)[:-1])


def _quadrant_parcellation(geometry):
    # 8x8x1 grid split into four 4x4 quadrants
    x, y = geometry.mask[:, 0], geometry.mask[:, 1]
    assignment = (x // 4) * 2 + (y // 4)
    return Parcellation(assignment=assignment.astype(np.int64), q=4)


def test_round_nearest_halves_go_up():
    assert round_nearest(0.5) == 1
    assert round_nearest(1.5) == 2
    assert round_nearest(2.5) == 3
    assert round_nearest(2.49) == 2
    assert round_nearest(2.51) == 3
    assert round_nearest(0.0) == 0
    assert round_nearest(-0.5) == 0


def test_row_subsample_alpha_one_returns_every_row():
    rows = draw_row_subsample(7, 1.0, RngStream(0, 0).generator())
    assert_array_equal(rows, np.arange(7))


def test_row_subsample_half_of_hundred():
    rows = draw_row_subsample(100, 0.5, RngStream(1, 0).generator())
    assert rows.size == 50
    assert np.unique(rows).size == 50
    assert rows.min() >= 0 and rows.max() < 100
    assert_array_equal(rows, np.sort(rows))


def test_row_subsample_frequencies_are_uniform():
    """Over 10000 draws with n=10, alpha=0.5 each row appears half the time."""
    gen = RngStream(2, 0).generator()
    hits = np.zeros(10)
    draws = 10000
    for _ in range(draws):
        hits[draw_row_subsample(10, 0.5, gen)] += 1
    freq = hits / draws
    assert (np.abs(freq - 0.5) <= 0.02).all()


def test_row_subsample_rejects_empty_draws():
    with pytest.raises(ValueError, match="zero"):
        draw_row_subsample(10, 0.04, RngStream(0, 0).generator())
    with pytest.raises(ValueError, match="alpha"):
        draw_row_subsample(10, 0.0, RngStream(0, 0).generator())
    with pytest.raises(ValueError, match="n must be positive"):
        draw_row_subsample(0, 0.5, RngStream(0, 0).generator())


def test_cluster_quotas_floor_and_rounding():
    parc = Parcellation(
        assignment=np.repeat([0, 1, 2], [10, 3, 5]).astype(np.int64), q=3
    )
    assert_array_equal(cluster_quotas(parc, 0.1), [1, 1, 1])
    assert_array_equal(cluster_quotas(parc, 0.5), [5, 2, 3])  # 2.5 rounds up
    assert_array_equal(cluster_quotas(parc, 1.0), [10, 3, 5])
    with pytest.raises(ValueError, match="beta"):
        cluster_quotas(parc, 0.0)


def test_block_cover_covers_each_masked_voxel_uniformly():
    """Every in-mask voxel belongs to exactly bx*by*bz anchors, so block
    placement introduces no edge bias."""
    rng = np.random.default_rng(3)
    full = np.array(list(itertools.product(range(5), range(4), range(3))), dtype=np.uint32)
    mask = full[np.sort(rng.choice(full.shape[0], size=30, replace=False))]
    geometry = GridGeometry(dims=(5, 4, 3), mask=mask)
    for block in [(1, 1, 1), (2, 2, 1), (3, 3, 3)]:
        cover = BlockCover(geometry, block)
        coverage = np.zeros(30, dtype=np.int64)
        for a in range(cover.n_anchors):
            coverage[cover.voxels_of(a)] += 1
        assert_array_equal(coverage, np.full(30, block[0] * block[1] * block[2]))


def test_block_subsample_beta_one_picks_everything():
    geometry = _full_grid_geometry((8, 8, 1))
    parc = _quadrant_parcellation(geometry)
    quotas = cluster_quotas(parc, 1.0)
    picks = BlockCover(geometry, (2, 2, 1)).draw(RngStream(4, 0).generator(), parc, quotas)
    picked = _by_cluster(picks, quotas)
    members = parc.members()
    assert len(picked) == 4
    for g in range(4):
        assert_array_equal(picked[g], members[g])


def test_block_subsample_small_cluster_quota_is_one():
    # cluster of size 10 at beta=0.1 yields exactly one voxel
    geometry = _full_grid_geometry((10, 1, 1))
    parc = Parcellation(assignment=np.zeros(10, dtype=np.int64), q=1)
    quotas = cluster_quotas(parc, 0.1)
    picks = BlockCover(geometry, (3, 1, 1)).draw(RngStream(5, 0).generator(), parc, quotas)
    picked = _by_cluster(picks, quotas)
    assert len(picked) == 1
    assert picked[0].size == 1


def test_block_subsample_quota_exactness_on_random_parcellations():
    rng = np.random.default_rng(6)
    geometry = _full_grid_geometry((12, 12, 2))
    gen = RngStream(7, 0).generator()
    for trial in range(10):
        q = int(rng.integers(2, 9))
        assignment = rng.integers(0, q, size=geometry.p)
        assignment[:q] = np.arange(q)  # keep every cluster populated
        parc = Parcellation(assignment=assignment.astype(np.int64), q=q)
        beta = float(rng.uniform(0.05, 0.6))
        quotas = cluster_quotas(parc, beta)
        picked = _by_cluster(BlockCover(geometry, (3, 3, 2)).draw(gen, parc, quotas), quotas)
        members = parc.members()
        for g in range(q):
            assert picked[g].size == quotas[g]
            assert_array_equal(picked[g], np.sort(picked[g]))
            assert np.isin(picked[g], members[g]).all()


def test_block_subsample_deterministic_for_stream():
    geometry = _full_grid_geometry((8, 8, 1))
    parc = _quadrant_parcellation(geometry)
    quotas = cluster_quotas(parc, 0.25)
    a = BlockCover(geometry, (2, 2, 1)).draw(RngStream(8, 3).generator(), parc, quotas)
    b = BlockCover(geometry, (2, 2, 1)).draw(RngStream(8, 3).generator(), parc, quotas)
    for pa, pb in zip(_by_cluster(a, quotas), _by_cluster(b, quotas)):
        assert_array_equal(pa, pb)


def test_block_subsample_inclusion_frequency_and_adjacency():
    """5000 draws on an 8x8x1 grid with four equal clusters at beta=0.25:
    per-voxel inclusion lands within 0.03 of beta, and grid-adjacent pairs
    co-occur more often than distant same-cluster pairs (blocks are the only
    source of that coupling)."""
    geometry = _full_grid_geometry((8, 8, 1))
    parc = _quadrant_parcellation(geometry)
    quotas = cluster_quotas(parc, 0.25)
    assert_array_equal(quotas, [4, 4, 4, 4])
    cover = BlockCover(geometry, (2, 2, 1))
    gen = RngStream(9, 0).generator()

    draws = 5000
    hits = np.zeros(geometry.p)
    joint = np.zeros((geometry.p, geometry.p))
    for _ in range(draws):
        picked = _by_cluster(cover.draw(gen, parc, quotas), quotas)
        flat = np.concatenate(picked)
        hits[flat] += 1
        joint[np.ix_(flat, flat)] += 1
    freq = hits / draws
    assert (np.abs(freq - 0.25) <= 0.03).all()

    coords = geometry.mask.astype(np.int64)
    same_cluster = parc.assignment[:, None] == parc.assignment[None, :]
    manhattan = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    adjacent = same_cluster & (manhattan == 1)
    distant = same_cluster & (manhattan >= 3)
    joint_freq = joint / draws
    assert joint_freq[adjacent].mean() > joint_freq[distant].mean() + 0.01


def test_block_draw_rejects_quotas_outside_cluster_sizes():
    """A quota above its cluster's size can never be met and a quota of 0
    would silently pick nothing; both are refused before any block is drawn."""
    geometry = _full_grid_geometry((8, 8, 1))
    parc = _quadrant_parcellation(geometry)  # four clusters of 16
    cover = BlockCover(geometry, (2, 2, 1))
    gen = RngStream(4, 0).generator()
    state = gen.bit_generator.state
    for quotas, bad in [([4, 4, 17, 4], "cluster 2"), ([4, 0, 4, 4], "cluster 1")]:
        with pytest.raises(ValueError, match=bad):
            cover.draw(gen, parc, np.array(quotas))
    with pytest.raises(ValueError, match="shape"):
        cover.draw(gen, parc, np.array([4, 4, 4]))
    assert gen.bit_generator.state == state
    picked = _by_cluster(cover.draw(gen, parc, np.array([16, 1, 16, 1])), [16, 1, 16, 1])
    assert [g.size for g in picked] == [16, 1, 16, 1]


@st.composite
def _block_instances(draw):
    """A random mask in a small grid (voxels in random order), a block shape
    from (1, 1, 1) to (3, 3, 3), q from 1 to p clusters and quotas from 1 to
    each cluster's size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    full = np.array(list(itertools.product(*(range(d) for d in dims))), dtype=np.uint32)
    p = draw(st.integers(1, full.shape[0]))
    geometry = GridGeometry(dims=dims, mask=full[rng.choice(full.shape[0], size=p, replace=False)])
    block = tuple(draw(st.integers(1, 3)) for _ in range(3))
    q = draw(st.integers(1, p))
    assignment = rng.integers(0, q, size=p)
    assignment[rng.permutation(p)[:q]] = np.arange(q)  # every cluster used
    parc = Parcellation(assignment=assignment, q=q)
    quotas = rng.integers(1, np.bincount(assignment, minlength=q) + 1)
    return geometry, block, parc, quotas


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_block_instances())
def test_block_cover_replays_reference(instance):
    geometry, block, _, _ = instance
    cover = BlockCover(geometry, block)
    anchor_ids, starts, features = oracles.block_cover_reference(geometry, block)
    assert cover.features.dtype == cover.starts.dtype == np.int32
    assert_array_equal(cover.anchor_ids, anchor_ids)
    assert cover.n_anchors == anchor_ids.size
    for a in range(cover.n_anchors):
        assert_array_equal(cover.voxels_of(a), features[starts[a] : starts[a + 1]])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_block_instances(), st.integers(0, 2**32 - 1))
def test_block_draw_replays_reference(instance, seed):
    """Three draws in a row from one generator: the same picks as the
    one-anchor-at-a-time loop, and the same generator state after each."""
    geometry, block, parc, quotas = instance
    cover = BlockCover(geometry, block)
    _, starts, features = oracles.block_cover_reference(geometry, block)
    gen, ref_gen = (RngStream(seed, 0).generator() for _ in range(2))
    for _ in range(3):
        picked = _by_cluster(cover.draw(gen, parc, quotas), quotas)
        want = oracles.block_draw_reference(starts, features, ref_gen, parc, quotas)
        assert len(picked) == len(want)
        for got, exp in zip(picked, want):
            assert_array_equal(got, exp)
            assert got.dtype == exp.dtype
        assert gen.bit_generator.state == ref_gen.bit_generator.state


@pytest.mark.parametrize("fallback", [False, True])
def test_quota_trim_picks_uniform_subsets(fallback):
    """Cluster 0 offers 5 voxels to a quota of 2, always: the trim of picked
    voxels that ``BlockCover.draw`` ends with, and the no-geometry fallback,
    which trims every voxel. Over 5000 streams each of the 10 subsets comes
    out equally often (chi-square), and every quota is exact."""
    from scipy.stats import chisquare

    assignment = np.array([0, 1, 0, 1, 0, 0, 1, 0, 1])
    parc = Parcellation(assignment=assignment, q=2)
    quotas = np.array([2, 1])
    members = parc.members()
    picked = np.isin(np.arange(9), [0, 2, 4, 5, 7, 3, 6])  # cluster 0 whole, 2 of cluster 1
    subsets = {s: i for i, s in enumerate(itertools.combinations(members[0].tolist(), 2))}
    freq = np.zeros(len(subsets))
    for k in range(5000):
        gen = RngStream(21, k).generator()
        if fallback:
            got = _by_cluster(draw_iteration(gen, 4, 0.5, parc, quotas)[1], quotas)
            assert np.isin(got[1], members[1]).all()
        else:
            got = _by_cluster(stability._quota_trim(gen, picked, assignment, quotas), quotas)
            assert np.isin(got[1], [3, 6]).all()
        assert [g.size for g in got] == [2, 1]
        assert_array_equal(got[0], np.sort(got[0]))
        freq[subsets[tuple(got[0].tolist())]] += 1
    assert chisquare(freq).pvalue > 1e-3


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2**40), st.integers(0, 300))
def test_batched_integers_match_single_draws(seed, n, k):
    """The block draw relies on this numpy property: one size-k draw gives
    the values, and leaves the state, of k single draws."""
    batch, single = (RngStream(seed, 0).generator() for _ in range(2))
    assert_array_equal(batch.integers(n, size=k), [single.integers(n) for _ in range(k)])
    assert batch.bit_generator.state == single.bit_generator.state


def test_average_supervoxels_examples():
    # constant picked columns stay constant through the mean
    X = np.ones((3, 4))
    X[:, [1, 2]] = 3.0
    out = average_supervoxels(X, np.array([1, 2]), [2])
    assert_array_equal(out, np.full((3, 1), 3.0))

    # singleton picks reduce to a column subset
    rng = np.random.default_rng(10)
    X = rng.normal(size=(5, 6))
    out = average_supervoxels(X, np.array([4, 0]), [1, 1])
    assert_array_equal(out, X[:, [4, 0]])

    # picked values {1, 3} per row average to 2
    X = np.array([[1.0, 3.0], [3.0, 1.0]])
    out = average_supervoxels(X, np.array([0, 1]), [2])
    assert_array_equal(out, np.full((2, 1), 2.0))


def test_average_supervoxels_rejects_empty_cluster_pick():
    X = np.ones((2, 3))
    with pytest.raises(ValueError, match="no picked"):
        average_supervoxels(X, np.array([0]), [1, 0])
    # cluster sizes that do not add up to the pick count
    for picks, sizes in [([0], [1, 1]), ([0, 1, 2], [1, 1])]:
        with pytest.raises(ValueError, match="add up"):
            average_supervoxels(X, np.array(picks), sizes)


def test_average_supervoxels_rejects_out_of_range_picks():
    # a negative index would otherwise read the last column, or, in the flat
    # gather, a neighbouring row
    X = np.arange(12.0).reshape(3, 4)
    for cols in ([-1], [4], [0, 2, 7]):
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            average_supervoxels(X, np.array([1, *cols]), [1, len(cols)])
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            average_supervoxels(X, np.array(cols), [len(cols)], rows=np.array([0, 2]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 40), st.integers(1, 8),
       st.booleans())
def test_average_supervoxels_replays_reference(seed, n_rows, p, q, all_rows):
    """Byte-equal to one fancy-index mean per cluster over the drawn rows,
    with picks of any size (singletons too, repeats allowed), values of
    mixed magnitude and signed zeros."""
    rng = np.random.default_rng(seed)
    n = n_rows if all_rows else int(rng.integers(n_rows, 10))
    X = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-6, 6, size=p)
    X[rng.random(X.shape) < 0.2] = -0.0
    X[rng.random(X.shape) < 0.1] = 0.0
    picked = tuple(rng.integers(0, p, size=int(rng.integers(1, 30))) for _ in range(q))
    flat, sizes = np.concatenate(picked), [cols.size for cols in picked]
    if all_rows:
        got = average_supervoxels(X, flat, sizes)
        want = oracles.average_supervoxels_reference(X, picked)
    else:
        rows = np.sort(rng.choice(n, size=n_rows, replace=False))
        got = average_supervoxels(X, flat, sizes, rows=rows)
        want = oracles.average_supervoxels_reference(X[rows], picked)
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def _noise_dataset(seed=0, n=40, dims=(10, 10, 4)):
    rng = np.random.default_rng(seed)
    geometry = _full_grid_geometry(dims)
    X = rng.normal(size=(n, geometry.p))
    y = rng.permutation(np.repeat([1, -1], n // 2))
    return Dataset(X=X, y=y, geometry=geometry)


def _slab_parcellation(p, q):
    size = p // q
    return Parcellation(assignment=(np.arange(p) // size).clip(max=q - 1), q=q)


def test_pure_noise_scores_stay_low():
    """Regression pin: on i.i.d. noise with balanced random labels nothing
    should look stable. Observed max normalized score 0.14 on this seed."""
    ds = _noise_dataset(seed=0)
    parc = _slab_parcellation(ds.p, 16)
    config = StabilityConfig(solver=DEFAULT_SOLVER, K=50, master_seed=0)
    scores = run_stability_selection(ds, parc, config)
    assert scores.normalized.max() <= 0.6


def test_separating_cluster_outscores_noise_clusters():
    rng = np.random.default_rng(11)
    geometry = _full_grid_geometry((6, 6, 1))
    x, y_coord = geometry.mask[:, 0], geometry.mask[:, 1]
    assignment = ((x // 3) * 2 + (y_coord // 3)).astype(np.int64)
    parc = Parcellation(assignment=assignment, q=4)

    n = 30
    y = rng.permutation(np.repeat([1, -1], n // 2))
    X = rng.normal(size=(n, geometry.p))
    signal = np.flatnonzero(assignment == 0)
    X[:, signal] = y[:, None] + 0.05 * rng.normal(size=(n, signal.size))

    config = StabilityConfig(solver=DEFAULT_SOLVER, K=25, alpha=0.5, beta=0.5,
                             block_shape=(2, 2, 1), master_seed=3)
    scores = run_stability_selection(ds := Dataset(X=X, y=y, geometry=geometry), parc, config)
    rest = np.flatnonzero(assignment != 0)
    assert scores.normalized[signal].max() > scores.normalized[rest].max()
    # the winning cluster is picked and kept in essentially every iteration
    assert scores.normalized[signal].max() > 0.4


def test_single_iteration_counts_are_binary():
    ds = _noise_dataset(seed=1, n=20, dims=(6, 6, 1))
    parc = _slab_parcellation(ds.p, 4)
    config = StabilityConfig(solver=DEFAULT_SOLVER, K=1, master_seed=5, block_shape=(2, 2, 1))
    scores = run_stability_selection(ds, parc, config)
    assert set(np.unique(scores.counts)) <= {0, 1}


def test_counts_accumulate_monotonically_in_k():
    ds = _noise_dataset(seed=2, n=20, dims=(6, 6, 1))
    parc = _slab_parcellation(ds.p, 4)
    solver = DEFAULT_SOLVER
    ten = run_stability_selection(
        ds, parc, StabilityConfig(solver=solver, K=10, master_seed=7, block_shape=(2, 2, 1))
    )
    eleven = run_stability_selection(
        ds, parc, StabilityConfig(solver=solver, K=11, master_seed=7, block_shape=(2, 2, 1))
    )
    assert (eleven.counts >= ten.counts).all()


def test_thread_count_does_not_change_counts():
    ds = _noise_dataset(seed=3, n=20, dims=(6, 6, 1))
    parc = _slab_parcellation(ds.p, 4)
    config = StabilityConfig(solver=DEFAULT_SOLVER, K=12, master_seed=9, block_shape=(2, 2, 1))
    serial = run_stability_selection(ds, parc, config, threads=1)
    pooled = run_stability_selection(ds, parc, config, threads=4)
    assert_array_equal(serial.counts, pooled.counts)


def test_counts_ignore_threads_across_lockstep_batches(monkeypatch, record_batches):
    """With lockstep batches of 4 and K=10 (batches of 4, 4 and 2), every
    thread count gives the counts of one fit per iteration."""
    ds = _noise_dataset(seed=5, n=20, dims=(6, 6, 1))
    X = ds.X.copy()
    X[:, :9] += 0.8 * ds.y[:, None]  # give the fits something to select
    ds = Dataset(X=X, y=ds.y, geometry=ds.geometry)
    parc = _slab_parcellation(ds.p, 4)
    config = StabilityConfig(solver=DEFAULT_SOLVER, K=10, master_seed=9, block_shape=(2, 2, 1))
    monkeypatch.setattr(solver, "_BATCH_ENTRIES", 4 * 10 * 4)  # 4 fits of 10 rows x 4 clusters
    sizes = record_batches(stability)
    want = _rss_manual_counts(ds, parc, config)
    assert want.sum() > 0
    for threads in (1, 2, 3):
        sizes.clear()
        assert_array_equal(run_stability_selection(ds, parc, config, threads=threads).counts, want)
        assert sorted(sizes) == [2, 4, 4]


@pytest.mark.parametrize("threads", [1, 2])
def test_resample_counts_unconverged_fits_and_sums_their_iterations(threads):
    """The scores report how many of the K fits did not converge and the
    sum of their solver iterations, the same in batches of one on any
    thread count."""
    def draw(gens):
        return [int(gen.integers(1, 60)) for gen in gens]

    def fit(design):
        return [(np.array([0]), SolverSolution(w=np.zeros(1), c=0.0, objective=1.0,
                                               kkt_residual=1.0, converged=n % 7 != 0, n_iters=n))
                for n in design]

    scores = resample(3, 30, 11, draw, fit, entries=1 << 30, threads=threads)
    want = [draw([RngStream(11, k).generator()])[0] for k in range(30)]
    assert scores.solver_iterations == sum(want)
    assert scores.fits_not_converged == sum(n % 7 == 0 for n in want) > 0
    assert scores.counts.tolist() == [30, 0, 0]


def test_rss_run_that_fits_one_call_is_one_kernel_call(monkeypatch):
    """When the solver's rule admits all K fits in one call, an rss run is
    one batch and one lockstep kernel call, on any thread count, and starts
    no thread pool."""
    ds = _noise_dataset(seed=6, n=20, dims=(6, 6, 1))
    parc = _slab_parcellation(ds.p, 4)
    config = StabilityConfig(solver=DEFAULT_SOLVER, K=50, master_seed=3, block_shape=(2, 2, 1))
    assert solver.lockstep_batch_size(10 * 4) >= config.K
    calls, real = [], solver._prox_solve

    def counting(Z, *args):
        calls.append(Z.shape[0])
        return real(Z, *args)

    def no_pool(*args, **kwargs):
        raise AssertionError("a single batch started a thread pool")

    monkeypatch.setattr(solver, "_prox_solve", counting)
    monkeypatch.setattr(stability, "ThreadPoolExecutor", no_pool)
    serial = run_stability_selection(ds, parc, config)
    assert calls == [50]
    pooled = run_stability_selection(ds, parc, config, threads=2)
    assert calls == [50, 50]
    assert_array_equal(serial.counts, pooled.counts)


def test_rss_stacks_stay_within_the_batch_budget_at_any_q(monkeypatch):
    """With q above a thousand clusters (allowed, with a warning, by the
    CLI), an rss run on the README tour's data still hands the solver
    stacks of at most 4 MiB: its batches are sized by the k x q matrices it
    fits, not by q alone (K=64 goes as 19, 19, 19 and 7 fits of 25 x
    1100)."""
    ds, _ = generate_synthetic(SynthConfig(dims=(16, 16, 8), mask_size=1200,
                                           cluster_sizes=(15, 15, 20, 20, 20),
                                           n_per_group=25, seed=0))
    parc = _slab_parcellation(ds.p, 1100)
    config = StabilityConfig(solver=DEFAULT_SOLVER, K=64, master_seed=0)
    stacks, real = [], stability.fit_l1_standardized

    def recording(stack, *args):
        stacks.append(stack.shape)
        assert stack.nbytes <= solver._BATCH_ENTRIES * 8
        return real(stack, *args)

    monkeypatch.setattr(stability, "fit_l1_standardized", recording)
    run_stability_selection(ds, parc, config)
    assert stacks == [(19, 25, 1100)] * 3 + [(7, 25, 1100)]


def test_draw_iteration_replays_deterministically():
    ds = _noise_dataset(seed=4, n=20, dims=(6, 6, 1))
    parc = _slab_parcellation(ds.p, 4)
    config = StabilityConfig(solver=DEFAULT_SOLVER, K=5, master_seed=11, block_shape=(2, 2, 1))
    quotas = cluster_quotas(parc, config.beta)
    cover = BlockCover(ds.geometry, config.block_shape)
    for k in range(3):
        (rows_a, picks_a), (rows_b, picks_b) = (
            draw_iteration(RngStream(config.master_seed, k).generator(), ds.n,
                           config.alpha, parc, quotas, cover)
            for _ in range(2))
        assert_array_equal(rows_a, rows_b)
        assert rows_a.size == round_nearest(config.alpha * ds.n)
        for g, (pa, pb) in enumerate(zip(_by_cluster(picks_a, quotas),
                                         _by_cluster(picks_b, quotas))):
            assert_array_equal(pa, pb)
            assert pa.size == quotas[g]


def _rss_manual_counts(ds, parc, config):
    """Re-derive rss counts from draw_iteration, one stream per iteration."""
    cover = BlockCover(ds.geometry, config.block_shape) if ds.geometry is not None else None
    quotas = cluster_quotas(parc, config.beta)
    counts = np.zeros(ds.p, dtype=np.int64)
    for k in range(config.K):
        gen = RngStream(config.master_seed, k).generator()
        rows, picks = draw_iteration(gen, ds.n, config.alpha, parc, quotas, cover)
        averaged = average_supervoxels(ds.X[rows], picks, quotas)
        sol = fit_l1_logistic(averaged, ds.y[rows], config.solver)
        picked = _by_cluster(picks, quotas)
        for g in sol.support(config.solver.support_epsilon):
            counts[picked[g]] += 1
    return counts


@pytest.mark.parametrize("geometry", [True, False])
def test_selection_replays_from_draw_iteration(geometry):
    ds = _noise_dataset(seed=8, n=24, dims=(6, 6, 2))
    y = ds.y
    X = ds.X.copy()
    X[:, :12] += 0.8 * y[:, None]  # give the fits something to select
    ds = Dataset(X=X, y=y, geometry=ds.geometry if geometry else None)
    parc = _slab_parcellation(ds.p, 6)
    config = StabilityConfig(solver=DEFAULT_SOLVER, K=12, beta=0.3, master_seed=13,
                             block_shape=(2, 2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the no-geometry fallback warns
        scores = run_stability_selection(ds, parc, config)
    want = _rss_manual_counts(ds, parc, config)
    assert want.sum() > 0
    assert_array_equal(scores.counts, want)


def test_missing_geometry_falls_back_with_warning():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(20, 30))
    y = np.array([1, -1] * 10)
    ds = Dataset(X=X, y=y)
    parc = _slab_parcellation(30, 3)
    config = StabilityConfig(solver=DEFAULT_SOLVER, K=5, master_seed=1)
    with pytest.warns(UserWarning, match="geometry"):
        scores = run_stability_selection(ds, parc, config)
    assert scores.counts.size == 30
    assert scores.K == 5


def test_widespread_non_convergence_aborts_with_diagnostics():
    ds = _noise_dataset(seed=5, n=20, dims=(6, 6, 1))
    parc = _slab_parcellation(ds.p, 4)
    strangled = SolverConfig(loss_weight=0.5, max_iters=1, tol_kkt=1e-12)
    config = StabilityConfig(solver=strangled, K=10, master_seed=2, block_shape=(2, 2, 1))
    with pytest.raises(RuntimeError, match="failed to converge"):
        run_stability_selection(ds, parc, config)


def test_feature_count_mismatch_rejected():
    ds = _noise_dataset(seed=6, n=20, dims=(6, 6, 1))
    parc = _slab_parcellation(ds.p + 1, 4)
    config = StabilityConfig(solver=DEFAULT_SOLVER, K=2)
    with pytest.raises(ValueError, match="feature count"):
        run_stability_selection(ds, parc, config)
    with pytest.raises(ValueError, match="threads"):
        run_stability_selection(ds, _slab_parcellation(ds.p, 4), config, threads=0)


def test_threshold_scores_examples():
    scores = StabilityScores(counts=np.array([50, 25, 0]), K=50)
    assert_array_equal(threshold_scores(scores, 0.0), [0, 1, 2])
    assert_array_equal(threshold_scores(scores, 1.5), [])
    assert_array_equal(threshold_scores(scores, 0.5), [0, 1])
    with pytest.raises(ValueError, match="finite"):
        threshold_scores(scores, float("nan"))


def test_stability_config_validation():
    solver = DEFAULT_SOLVER
    with pytest.raises(ValueError, match="K"):
        StabilityConfig(solver=solver, K=0)
    with pytest.raises(ValueError, match="alpha"):
        StabilityConfig(solver=solver, alpha=0.0)
    with pytest.raises(ValueError, match="beta"):
        StabilityConfig(solver=solver, beta=1.5)
    with pytest.raises(ValueError, match="block_shape"):
        StabilityConfig(solver=solver, block_shape=(0, 3, 3))
    with pytest.raises(ValueError, match="block_shape"):
        StabilityConfig(solver=solver, block_shape=(3, 3))


def test_scores_csv_roundtrip_with_geometry(tmp_path):
    ds = _noise_dataset(seed=7, n=20, dims=(4, 3, 2))
    rng = np.random.default_rng(13)
    counts = rng.integers(0, 10, size=ds.p)
    score = counts / 10 + rng.uniform(0, 1e-9, size=ds.p)  # exercise %.17g fidelity
    path = tmp_path / "scores.csv"
    save_scores_csv(path, score, counts=counts, geometry=ds.geometry)

    back = load_scores_csv(path)
    assert back["score"].dtype == np.float64
    assert_array_equal(back["count"], counts)
    assert_array_equal(back["coords"], ds.geometry.mask)
    assert_array_equal(back["score"], score)  # exact round trip
    assert path.read_text().splitlines()[0] == "feature,x,y,z,count,score"


def test_scores_csv_without_geometry_uses_sentinel_coords(tmp_path):
    path = tmp_path / "scores.csv"
    save_scores_csv(path, np.array([0.5, 0.25]))
    back = load_scores_csv(path)
    assert_array_equal(back["coords"], np.full((2, 3), -1))
    assert_array_equal(back["count"], [0, 0])


def test_scores_csv_rejects_corrupted_files(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("feature,score\n0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        load_scores_csv(path)
    path.write_text("feature,x,y,z,count,score\n1,-1,-1,-1,0,0.5\n")
    with pytest.raises(ValueError, match="0..p-1"):
        load_scores_csv(path)


@pytest.mark.parametrize("text, line", [
    ("", "line 1: unexpected header"),
    ("feature,x,y,z,count,score\n", "line 2: no rows"),
    ("feature,x,y,z,count,score\n0,-1,-1,-1,0,0.5\n1,-1,-1\n", "line 3: 3 fields, expected 6"),
    ("feature,x,y,z,count,score\n0,-1,-1,-1,0,0.5\n\n", "line 3: 0 fields"),
    ("feature,x,y,z,count,score\n0,-1,-1,-1,0,half\n", "line 2: could not convert"),
])
def test_scores_csv_names_the_file_and_line_of_a_bad_row(tmp_path, text, line):
    path = tmp_path / "scores.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"scores.csv, {line}"):
        load_scores_csv(path)
