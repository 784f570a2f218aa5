"""Acceptance gate: one test per release criterion, each printing a verdict.

Run `pytest tests/test_acceptance.py -s` to watch the verdict lines appear;
criteria 1 and 2 share a five-seed full-scale resampling fixture that takes
a few minutes of wall time. Every other criterion finishes in seconds.
"""

import hashlib
import itertools
import time

import numpy as np
import pytest

import oracles
from rss_select.baselines import RandL1Config, l1_weight_scores, randomized_l1
from rss_select.cli import main
from rss_select.clustering import ClusterConfig, build_feature_vectors, kmeans
from rss_select.data import Dataset, GridGeometry, Parcellation, RngStream
from rss_select.evaluation import (
    permutation_fp_estimate,
    precision_recall_curve,
    top_t_selection,
)
from rss_select.solver import (
    SolverConfig,
    fit_l1_logistic,
    standardize_columns,
)
from rss_select.stability import (
    DEFAULT_LOSS_WEIGHT,
    BlockCover,
    StabilityConfig,
    cluster_quotas,
    run_stability_selection,
)
from rss_select.synthgen import SynthConfig, generate_synthetic

pytestmark = pytest.mark.acceptance

SEEDS = range(5)
SECONDS_PER_SEED_BUDGET = 600.0


def _verdict(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _full_grid(dims):
    coords = np.array(list(itertools.product(*(range(d) for d in dims))), dtype=np.uint32)
    return GridGeometry(dims=dims, mask=coords)


def _random_instance(rng):
    # n >= m+1 so the standardized design has full column rank and the
    # minimizing w is unique (with n == m == 2 both z-scored columns collapse
    # to +-[1, -1] and any same-sign split of the weight is optimal)
    m = int(rng.integers(1, 3))
    n = int(rng.integers(m + 1, 11))
    while True:
        X = rng.normal(size=(n, m)) * rng.uniform(0.5, 3.0, size=m) + rng.normal(size=m)
        if (X.std(axis=0) > 1e-9).all():
            break
    y = np.ones(n, dtype=np.int64)
    y[: n // 2] = -1
    y = y[rng.permutation(n)]
    if np.all(y == y[0]):
        y[0] = -y[0]
    return X, y


@pytest.fixture(scope="module")
def full_scale_runs():
    """Five seeds at reference scale: n=100, p=27884, q=200, K=50, block 3x3x3."""
    solver = SolverConfig(loss_weight=DEFAULT_LOSS_WEIGHT)
    runs = []
    for seed in SEEDS:
        t0 = time.monotonic()
        dataset, truth = generate_synthetic(SynthConfig(seed=seed))
        vectors = build_feature_vectors(dataset)
        parcellation = kmeans(
            vectors, ClusterConfig(q=200, seed=RngStream(1000 + seed, 0), restarts=2)
        )
        rss = run_stability_selection(
            dataset,
            parcellation,
            StabilityConfig(solver=solver, K=50, alpha=0.5, beta=0.1,
                            block_shape=(3, 3, 3), master_seed=seed),
        )
        rl1 = randomized_l1(
            dataset, RandL1Config(solver=solver, K=500, master_seed=seed)
        )
        l1 = l1_weight_scores(dataset, solver)

        truth_set = truth.features
        T = truth_set.size

        def auc(scores):
            return precision_recall_curve(scores, truth_set).auc

        def hits(scores):
            return int(np.intersect1d(top_t_selection(scores, T), truth_set).size)

        runs.append({
            "seed": seed,
            "rss_auc": auc(rss.normalized),
            "rl1_auc": auc(rl1.normalized),
            "l1_auc": auc(l1),
            "rss_hits": hits(rss.normalized),
            "l1_hits": hits(l1),
            "seconds": time.monotonic() - t0,
        })
        print(f"  seed {seed}: rss_auc={runs[-1]['rss_auc']:.4f} "
              f"rl1_auc={runs[-1]['rl1_auc']:.4f} l1_auc={runs[-1]['l1_auc']:.4f} "
              f"rss_hits={runs[-1]['rss_hits']} l1_hits={runs[-1]['l1_hits']} "
              f"({runs[-1]['seconds']:.0f}s)")
    return runs


def test_criterion_1_pr_auc_ordering(full_scale_runs):
    margin_rl1 = min(r["rss_auc"] - r["rl1_auc"] for r in full_scale_runs)
    margin_l1 = min(r["rss_auc"] - r["l1_auc"] for r in full_scale_runs)
    slowest = max(r["seconds"] for r in full_scale_runs)
    ok = margin_rl1 > 0 and margin_l1 > 0 and slowest <= SECONDS_PER_SEED_BUDGET
    assert _verdict(
        1, ok,
        f"PR-AUC ordering on {len(full_scale_runs)}/5 seeds: min margin over "
        f"randomized L1 {margin_rl1:+.4f}, over plain L1 {margin_l1:+.4f}; "
        f"slowest seed {slowest:.0f}s (budget {SECONDS_PER_SEED_BUDGET:.0f}s)",
    )


def test_criterion_2_top_t_sensitivity(full_scale_runs):
    ratios = [r["rss_hits"] / max(1, r["l1_hits"]) for r in full_scale_runs]
    ok = all(r["rss_hits"] >= 2 * r["l1_hits"] for r in full_scale_runs)
    assert _verdict(
        2, ok,
        "top-383 true-voxel recovery vs plain L1 per seed: "
        + ", ".join(f"{r['rss_hits']}/{r['l1_hits']}" for r in full_scale_runs)
        + f" (min ratio {min(ratios):.1f}x, need 2x)",
    )


def test_criterion_3_solver_against_dense_oracle():
    rng = np.random.default_rng(0)
    worst_dw = worst_dc = worst_kkt = 0.0
    converged = 0
    for _ in range(100):
        X, y = _random_instance(rng)
        loss_weight = float(rng.uniform(0.1, 2.0))
        sol = fit_l1_logistic(X, y, SolverConfig(loss_weight=loss_weight))
        Z, _, _, keep = standardize_columns(X)
        w_star, c_star, _ = oracles.l1_grid_minimize(Z, y, loss_weight, resolution=1e-5)
        full = np.zeros(X.shape[1])
        full[keep] = w_star
        worst_dw = max(worst_dw, float(np.abs(sol.w - full).max()))
        worst_dc = max(worst_dc, abs(sol.c - c_star))
        if sol.converged:
            converged += 1
            worst_kkt = max(worst_kkt, sol.kkt_residual)

    worst_grad = 0.0
    for _ in range(20):
        X, y = _random_instance(rng)
        m = X.shape[1]
        w0, c0 = rng.normal(size=m), float(rng.normal())

        def value(theta, X=X, y=y, m=m):
            loss, _, _ = oracles.logistic_loss_and_grad(X, y, theta[:m], theta[m])
            return loss

        _, gw, gc = oracles.logistic_loss_and_grad(X, y, w0, c0)
        fd = oracles.central_difference_gradient(value, np.concatenate([w0, [c0]]))
        analytic = np.concatenate([gw, [gc]])
        rel = float(np.abs(analytic - fd).max() / max(1.0, np.abs(fd).max()))
        worst_grad = max(worst_grad, rel)

    ok = (worst_dw <= 1e-4 and worst_dc <= 1e-4 and worst_kkt <= 1e-6
          and worst_grad <= 1e-5)
    assert _verdict(
        3, ok,
        f"100 instances vs dense grid oracle: max |dw|={worst_dw:.2e}, "
        f"max |dc|={worst_dc:.2e} (tol 1e-4); max KKT {worst_kkt:.2e} on "
        f"{converged}/100 converged (tol 1e-6); gradient rel err {worst_grad:.2e} "
        f"(tol 1e-5)",
    )


def test_criterion_4_quota_exactness_and_inclusion():
    rng = np.random.default_rng(1)

    # part 1: exact quotas on randomized parcellations, 1000 draws
    geometry = _full_grid((12, 12, 2))
    exact = True
    draws = 0
    for trial in range(40):
        q = int(rng.integers(3, 12))
        assignment = rng.integers(0, q, size=geometry.p)
        assignment[:q] = np.arange(q)
        parcellation = Parcellation(assignment=assignment.astype(np.int64), q=q)
        beta = float(rng.uniform(0.05, 0.5))
        quotas = cluster_quotas(parcellation, beta)
        cover = BlockCover(geometry, (3, 3, 2))
        gen = RngStream(500 + trial, 0).generator()
        for _ in range(25):
            picked = np.split(cover.draw(gen, parcellation, quotas), np.cumsum(quotas)[:-1])
            draws += 1
            exact = exact and all(p.size == quotas[g] for g, p in enumerate(picked))

    # part 2: per-voxel inclusion frequency at beta=0.1 on clusters >= 20
    freq_grid = _full_grid((10, 10, 2))
    sizes = [20, 20, 30, 30, 40, 60]
    assignment = rng.permutation(np.repeat(np.arange(6), sizes)).astype(np.int64)
    parcellation = Parcellation(assignment=assignment, q=6)
    beta = 0.1
    quotas = cluster_quotas(parcellation, beta)
    cover = BlockCover(freq_grid, (3, 3, 2))
    gen = RngStream(900, 0).generator()
    # the largest true deviation here is about 0.020 (200000 draws); at
    # 3000 draws its standard error is 0.0055, so the gate would fail about
    # one stream in four on noise alone; 20000 draws make it 0.0021
    mc_draws = 20000
    hits = np.zeros(freq_grid.p)
    for _ in range(mc_draws):
        for picked in np.split(cover.draw(gen, parcellation, quotas), np.cumsum(quotas)[:-1]):
            hits[picked] += 1
    max_dev = float(np.abs(hits / mc_draws - beta).max())

    ok = exact and max_dev <= 0.03
    assert _verdict(
        4, ok,
        f"{draws} randomized-parcellation draws all met quotas exactly: {exact}; "
        f"max inclusion deviation from beta over {mc_draws} draws: {max_dev:.4f} "
        f"(tol 0.03)",
    )


def test_criterion_5_score_files_ignore_thread_count(tmp_path):
    base = tmp_path / "data"
    assert main(["synth", "--out-dir", str(base), "--dims", "12x12x4",
                 "--mask", "400", "--clusters", "10,10,8,8,8",
                 "--n-per-group", "10", "--seed", "0"]) == 0
    data = base / "dataset"
    assert main(["cluster", "--dataset", str(data), "--q", "40", "--seed", "1",
                 "--restarts", "2", "--out-dir", str(tmp_path / "parc")]) == 0
    parcellation = tmp_path / "parc" / "parcellation.csv"

    method_flags = {
        "rss": ["--parcellation", str(parcellation), "--K", "10"],
        "rand-l1": ["--K", "20"],
    }
    identical = {}
    for method, extra in method_flags.items():
        digests = []
        for threads in ("1", "8"):
            out = tmp_path / f"{method}-t{threads}"
            assert main(["select", "--dataset", str(data), "--method", method,
                         "--threads", threads, "--out-dir", str(out), *extra]) == 0
            digests.append(hashlib.sha256((out / "scores.csv").read_bytes()).hexdigest())
        identical[method] = digests[0] == digests[1]

    ok = all(identical.values())
    assert _verdict(
        5, ok,
        "scores.csv bytes equal for --threads 1 vs 8: "
        + ", ".join(f"{m}={v}" for m, v in identical.items()),
    )


def test_criterion_6_generator_fidelity():
    dataset, truth = generate_synthetic(SynthConfig())
    npg = 50

    cols = {k: truth.features[truth.cluster_ids == k] for k in range(1, 6)}
    sums = dataset.X[:, cols[3]] + dataset.X[:, cols[4]] + dataset.X[:, cols[5]]
    triples_ok = bool((sums[:npg] > 1.0).all() and (sums[npg:] < 1.0).all())

    mean_devs = []
    for k in (1, 2):
        entries = dataset.X[:npg][:, cols[k]]
        se = 1.0 / np.sqrt(entries.size)
        mean_devs.append(abs(entries.mean() - k) / se)
    means_ok = all(dev <= 3.0 for dev in mean_devs)

    count_ok = truth.features.size == 383
    ok = triples_ok and means_ok and count_ok
    assert _verdict(
        6, ok,
        f"triple-sum constraints exact: {triples_ok}; cluster-1/2 case means at "
        f"{mean_devs[0]:.2f}/{mean_devs[1]:.2f} standard errors (limit 3); "
        f"|discriminative| = {truth.features.size} (need 383)",
    )


def test_criterion_7_permutation_estimate_tracks_noise():
    geometry = _full_grid((6, 6, 1))
    parcellation = Parcellation(assignment=(np.arange(36) // 9), q=4)
    # generous loss weight and beta keep tau=0.9 counts away from zero even
    # on noise, exercising the estimate at a meaningful level
    solver = SolverConfig(loss_weight=4.0)

    observed, estimates = [], []
    for trial in range(20):
        rng = np.random.default_rng(10_000 + trial)
        X = rng.normal(size=(20, 36))
        y = rng.permutation(np.repeat([1, -1], 10))
        dataset = Dataset(X=X, y=y, geometry=geometry)
        config = StabilityConfig(solver=solver, K=10, alpha=0.5, beta=0.9,
                                 block_shape=(2, 2, 1), master_seed=trial)

        def selector(d, parcellation=parcellation, config=config):
            return run_stability_selection(d, parcellation, config)

        report = permutation_fp_estimate(dataset, selector, tau=0.9, B=20, seed=trial)
        observed.append(report.observed_count)
        estimates.append(report.estimate)

    mean_obs = float(np.mean(observed))
    mean_est = float(np.mean(estimates))
    if mean_obs <= 0.5 and mean_est <= 0.5:
        ok = True  # nothing selected anywhere: estimate trivially agrees
    else:
        ok = 0.5 <= mean_est / max(mean_obs, 1e-12) <= 2.0
    assert _verdict(
        7, ok,
        f"20 noise trials at tau=0.9, B=20: mean observed count {mean_obs:.2f}, "
        f"mean permuted estimate {mean_est:.2f} (must agree within factor 2)",
    )


def test_criterion_8_pr_and_top_t_match_bruteforce():
    rng = np.random.default_rng(2)
    pr_checked = top_checked = 0
    pr_ok = top_ok = True
    for trial in range(100):
        p = int(rng.integers(2, 13))
        if trial % 2:
            scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=p)  # heavy ties
        else:
            scores = rng.uniform(size=p)
        truth = set(rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False).tolist())
        curve = precision_recall_curve(scores, truth)
        expected = np.asarray(oracles.pr_points_bruteforce(scores, truth))
        pr_ok = pr_ok and np.allclose(curve.points, expected, rtol=1e-12)
        pr_ok = pr_ok and np.isclose(curve.auc, oracles.pr_auc_bruteforce(expected), rtol=1e-12)
        pr_checked += 1

        T = int(rng.integers(1, p + 1))
        top_ok = top_ok and np.array_equal(
            top_t_selection(scores, T), sorted(oracles.top_t_bruteforce(scores, T))
        )
        top_checked += 1
    ok = pr_ok and top_ok
    assert _verdict(
        8, ok,
        f"brute-force agreement on p<=12: PR curves {pr_checked}/{pr_checked} "
        f"{'exact' if pr_ok else 'MISMATCH'}, top-T {top_checked}/{top_checked} "
        f"{'exact' if top_ok else 'MISMATCH'}",
    )


def test_criterion_9_external_data_out_of_scope():
    assert _verdict(
        9, True,
        "informational: comparisons on externally collected neuroimaging "
        "recordings need private preprocessed data that cannot ship with this "
        "package; criteria 1-8 verify the method end to end at synthetic scale",
    )
