"""Command-line front end: synth, cluster, select, eval, perm.

Each ``cmd_*`` writes its outputs into --out-dir and returns its input
checksums, its output paths and a summary line; ``main`` then writes the
command's manifest (parsed arguments, input and output checksums, seed,
duration) beside them. A selector flag of select and perm that is not
given is None there: the command takes its method's default, and refuses
a given flag that its method does not read. Rerunning a command with the
same arguments reproduces every output byte for byte; manifests record
wall-clock fields and are the one exception.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (
    RandL1Config,
    l1_weight_scores,
    l2_weight_scores,
    randomized_l1,
    ttest_scores,
)
from .clustering import (
    ClusterConfig,
    build_feature_vectors,
    kmeans,
    load_parcellation,
    save_parcellation,
)
from .data import RngStream, load_dataset, save_dataset, sha256_file
from .evaluation import (
    DEFAULT_THRESHOLD_GRID,
    cv_threshold,
    permutation_fp_estimate,
    precision_recall_curve,
    prediction_accuracy,
    top_t_selection,
)
from .solver import SolverConfig
from .stability import (
    DEFAULT_LOSS_WEIGHT,
    StabilityConfig,
    load_scores_csv,
    run_stability_selection,
    save_scores_csv,
)
from .synthgen import SynthConfig, generate_synthetic, load_ground_truth, save_ground_truth

# the selector flags, by argparse dest: type and help, then the defaults of
# the methods that read each. The parser defaults them all to None, so that
# a flag given to a method that does not read it is refused
_SELECTOR_FLAGS = {
    "seed": (int, "master seed of the resampled draws"),
    "threads": (int, "threads that run the batches of resampled fits; a batch is one "
                     "lockstep solver call of up to 64 fits, so an rss run of K=50 is one "
                     "batch that no thread count splits; outputs are the same at any count"),
    "parcellation": (str, "parcellation CSV, required"),
    "K": (int, "resampling iterations"),
    "alpha": (float, "row fraction per iteration"),
    "beta": (float, "per-cluster feature fraction"),
    "block": (str, "block shape AxBxC"),
    "loss_weight": (float, "weight on the logistic loss in the L1 objective"),
    "weakness": (float, "lower bound of the penalty jitter, in (0, 1]"),
    "lambda_ridge": (float, "ridge strength"),
}
_SELECTOR_DEFAULTS = {
    "rss": {"seed": 0, "threads": 1, "parcellation": None, "K": StabilityConfig.K,
            "alpha": StabilityConfig.alpha, "beta": StabilityConfig.beta,
            "block": "x".join(map(str, StabilityConfig.block_shape)),
            "loss_weight": DEFAULT_LOSS_WEIGHT},
    "rand-l1": {"seed": 0, "threads": 1, "K": RandL1Config.K, "alpha": RandL1Config.alpha,
                "weakness": RandL1Config.weakness, "loss_weight": DEFAULT_LOSS_WEIGHT},
    "l1": {"loss_weight": DEFAULT_LOSS_WEIGHT},
    "l2": {"lambda_ridge": 1.0},
    "ttest": {},
}
_COUNT_METHODS = ("rss", "rand-l1")
_ALL_METHODS = tuple(_SELECTOR_DEFAULTS)


def _parse_triple(text, label):
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ValueError(f"{label} must look like AxBxC, got {text!r}")
    return tuple(int(p) for p in parts)


def _parse_int_list(text):
    return tuple(int(p) for p in text.split(","))


def _parse_float_list(text):
    return tuple(float(p) for p in text.split(","))


def _dataset_checksums(path):
    path = Path(path)
    out = {}
    for name in ("manifest.json", "X.bin", "mask.bin"):
        f = path / name
        if f.is_file():
            out[str(f)] = sha256_file(f)
    return out


def _load_container(path, scores_path, coords):
    """The dataset at ``path``; refused if it has the scores' voxel count but
    not their ``coords`` (-1 for no grid). Other counts fail later checks."""
    dataset = load_dataset(path)
    grid = np.full((dataset.p, 3), -1) if dataset.geometry is None else dataset.geometry.mask
    if len(coords) == dataset.p and not np.array_equal(coords, grid):
        raise ValueError(f"{scores_path} holds other voxels than {path}: the two come from "
                         "different datasets")
    return dataset


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_synth(args, out_dir):
    config = SynthConfig(
        dims=_parse_triple(args.dims, "--dims"),
        mask_size=args.mask_size,
        n_per_group=args.n_per_group,
        cluster_sizes=_parse_int_list(args.cluster_sizes),
        noise_sd=args.noise_sd,
        constraint_threshold=args.constraint_threshold,
        seed=args.seed,
    )
    dataset, truth = generate_synthetic(config)
    container = out_dir / "dataset"
    save_dataset(dataset, container)
    truth_path = out_dir / "ground_truth.csv"
    save_ground_truth(truth, truth_path)
    outputs = [container / "manifest.json", container / "X.bin", container / "mask.bin", truth_path]
    return {}, outputs, f"wrote {container} (n={dataset.n}, p={dataset.p}) and {truth_path}"


def cmd_cluster(args, out_dir):
    dataset = load_dataset(args.dataset)
    if not (2 * dataset.n <= args.q <= 5 * dataset.n):
        print(
            f"warning: q={args.q} is outside the suggested range "
            f"[2n, 5n] = [{2 * dataset.n}, {5 * dataset.n}]",
            file=sys.stderr,
        )
    config = ClusterConfig(
        q=args.q,
        seed=RngStream(args.seed, 0),
        restarts=args.restarts,
        max_lloyd_iters=args.max_lloyd_iters,
        spatial_weight=args.spatial_weight,
    )
    vectors = build_feature_vectors(dataset, config.spatial_weight)
    parcellation = kmeans(vectors, config)
    parc_path = out_dir / "parcellation.csv"
    save_parcellation(parcellation, parc_path, sidecar={
        "seed": args.seed,
        "restarts": args.restarts,
        "max_lloyd_iters": args.max_lloyd_iters,
        "spatial_weight": args.spatial_weight,
        "inertia": min(r["wcss"] for r in parcellation.lloyd_restarts),
        "lloyd": list(parcellation.lloyd_restarts),
        "dataset": str(args.dataset),
    })
    outputs = [parc_path, parc_path.with_suffix(".json")]
    return _dataset_checksums(args.dataset), outputs, f"wrote {parc_path} (q={parcellation.q})"


def _selector_settings(args):
    """The selector flags that ``args.method`` reads, by dest: each given
    value, else its default. A selector flag given to a method that does
    not read it is an error, so that no run records a flag that did not
    act."""
    reads = _SELECTOR_DEFAULTS[args.method]
    unread = [d for d in _SELECTOR_FLAGS if d not in reads and getattr(args, d, None) is not None]
    if unread:
        raise ValueError(f"method {args.method} does not read "
                         + ", ".join("--" + d.replace("_", "-") for d in unread))
    return {d: default if getattr(args, d) is None else getattr(args, d)
            for d, default in reads.items()}


def _build_count_selector(args, settings):
    """Configured rss / rand-l1 scorer plus its metadata, for select and perm."""
    solver = SolverConfig(loss_weight=settings["loss_weight"])
    meta = {"method": args.method, "master_seed": settings["seed"],
            **{d: settings[d] for d in ("K", "alpha", "beta", "weakness", "loss_weight")
               if d in settings}}
    if args.method == "rss":
        if args.parcellation is None:
            raise ValueError("method rss requires --parcellation")
        parcellation = load_parcellation(args.parcellation)
        config = StabilityConfig(solver=solver, K=settings["K"], alpha=settings["alpha"],
                                 beta=settings["beta"],
                                 block_shape=_parse_triple(settings["block"], "--block"),
                                 master_seed=settings["seed"])
        meta.update(block_shape=list(config.block_shape), parcellation=str(args.parcellation),
                    parcellation_checksum=parcellation.checksum())
        return (lambda d: run_stability_selection(d, parcellation, config,
                                                  threads=settings["threads"])), meta
    config = RandL1Config(solver=solver, K=settings["K"], alpha=settings["alpha"],
                          weakness=settings["weakness"], master_seed=settings["seed"])
    return (lambda d: randomized_l1(d, config, threads=settings["threads"])), meta


def cmd_select(args, out_dir):
    settings = _selector_settings(args)
    dataset = load_dataset(args.dataset)
    counts = None
    if args.method in _COUNT_METHODS:
        selector, meta = _build_count_selector(args, settings)
        scores = selector(dataset)
        counts = scores.counts
        values = scores.normalized
        meta["fits_not_converged"] = scores.fits_not_converged
        meta["solver_iterations"] = scores.solver_iterations
    elif args.method == "l1":
        values = l1_weight_scores(dataset, SolverConfig(loss_weight=settings["loss_weight"]))
        meta = {"method": "l1", "loss_weight": settings["loss_weight"]}
    elif args.method == "l2":
        values = l2_weight_scores(dataset, settings["lambda_ridge"])
        meta = {"method": "l2", "lambda_ridge": settings["lambda_ridge"]}
    else:
        values = ttest_scores(dataset)
        meta = {"method": "ttest"}
    meta["dataset"] = str(args.dataset)
    scores_path = out_dir / "scores.csv"
    save_scores_csv(scores_path, values, counts=counts, geometry=dataset.geometry)
    meta_path = out_dir / "scores_meta.json"
    _write_json(meta_path, meta)
    return (_dataset_checksums(args.dataset), [scores_path, meta_path],
            f"wrote {scores_path} ({args.method}, p={dataset.p})")


def cmd_eval(args, out_dir):
    if args.top_t is not None and not args.truth:
        raise ValueError("--top-t needs --truth")
    accuracy = args.train or args.test or args.tau is not None
    if accuracy and not (args.train and args.test and args.tau is not None):
        raise ValueError("accuracy evaluation needs --train, --test and --tau")
    if args.grid is not None and not args.cv_train:
        raise ValueError("--grid needs --cv-train")
    grid = DEFAULT_THRESHOLD_GRID if args.grid is None else _parse_float_list(args.grid)
    loaded = load_scores_csv(args.scores)
    values = loaded["score"]
    inputs = {str(args.scores): sha256_file(args.scores)}
    # every container is loaded and checked before any output is written
    train, test, cv_train = (path and _load_container(path, args.scores, loaded["coords"])
                             for path in (args.train, args.test, args.cv_train))
    outputs = []
    if args.truth:
        truth = load_ground_truth(args.truth)
        inputs[str(args.truth)] = sha256_file(args.truth)
        curve = precision_recall_curve(values, truth.features)
        if not np.array_equal(loaded["coords"][truth.features], truth.coords):
            raise ValueError(f"{args.scores} holds other voxels than {args.truth} at the planted "
                             "features: the two come from different datasets")
        pr_path = out_dir / "pr_curve.csv"
        with open(pr_path, "w") as f:
            f.write("threshold,precision,recall\n")
            for t, prec, rec in curve.points:
                f.write(f"{t:.17g},{prec:.17g},{rec:.17g}\n")
        T = args.top_t if args.top_t is not None else truth.features.size
        top = top_t_selection(values, T)
        hits = np.intersect1d(top, truth.features).size
        summary_path = out_dir / "pr_summary.json"
        _write_json(summary_path, {
            "auc": curve.auc,
            "T": int(T),
            "top_t_precision": hits / T,
            "n_truth": int(truth.features.size),
        })
        outputs += [pr_path, summary_path]
    if accuracy:
        inputs.update(_dataset_checksums(args.train))
        inputs.update(_dataset_checksums(args.test))
        if values.size != train.p:
            raise ValueError("scores must align with dataset features")
        features = np.flatnonzero(values >= args.tau)
        if features.size == 0:
            raise ValueError(f"no features reach tau={args.tau}")
        acc = prediction_accuracy(train, test, features, args.lambda_ridge)
        acc_path = out_dir / "accuracy.json"
        _write_json(acc_path, {
            "tau": args.tau,
            "n_features": int(features.size),
            "lambda_ridge": args.lambda_ridge,
            "accuracy": acc,
        })
        outputs.append(acc_path)
    if args.cv_train:
        inputs.update(_dataset_checksums(args.cv_train))
        chosen = cv_threshold(cv_train, values, grid=grid, n_folds=args.folds,
                              lambda_ridge=args.lambda_ridge, seed=args.seed)
        cv_path = out_dir / "cv_threshold.json"
        _write_json(cv_path, {
            "chosen_tau": chosen,
            "grid": list(grid),
            "n_folds": args.folds,
            "lambda_ridge": args.lambda_ridge,
            "seed": args.seed,
        })
        outputs.append(cv_path)
    if not outputs:
        raise ValueError("eval needs --truth, --train/--test/--tau, or --cv-train")
    return inputs, outputs, f"wrote {', '.join(str(p) for p in outputs)}"


def cmd_perm(args, out_dir):
    settings = _selector_settings(args)
    dataset = load_dataset(args.dataset)
    selector, meta = _build_count_selector(args, settings)
    report = permutation_fp_estimate(dataset, selector, args.tau, args.replicates,
                                     seed=args.perm_seed)
    report_path = out_dir / "permutation_report.json"
    _write_json(report_path, {
        "tau": report.tau,
        "B": report.B,
        "estimate": report.estimate,
        "observed_count": report.observed_count,
        "permuted_counts": list(report.permuted_counts),
        "selector": meta,
        "perm_seed": args.perm_seed,
    })
    return (_dataset_checksums(args.dataset), [report_path],
            f"wrote {report_path} (observed={report.observed_count}, "
            f"permuted mean={report.estimate:.2f})")


def _add_selector_flags(sub, methods):
    """--method, and each selector flag that one of ``methods`` reads, with
    the default of each method that reads it in its help."""
    sub.add_argument("--method", required=True, choices=methods)
    for dest, (kind, text) in _SELECTOR_FLAGS.items():
        readers = [(m, _SELECTOR_DEFAULTS[m][dest]) for m in methods
                   if dest in _SELECTOR_DEFAULTS[m]]
        if readers:
            uses = "; ".join(m if v is None else f"{m}, default {v}" for m, v in readers)
            sub.add_argument("--" + dest.replace("_", "-"), dest=dest, type=kind,
                             help=f"{text} ({uses})")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rss",
        description="Stability selection with constrained block subsampling, "
                    "plus baselines and evaluation tools.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="generate a synthetic labeled dataset")
    synth.add_argument("--out-dir", required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--dims", default="46x55x46")
    synth.add_argument("--mask", dest="mask_size", type=int, default=27884,
                       help="number of voxels kept in the ellipsoid mask")
    synth.add_argument("--n-per-group", type=int, default=50)
    synth.add_argument("--clusters", dest="cluster_sizes", default="76,76,77,77,77",
                       help="five planted cluster sizes, comma separated")
    synth.add_argument("--noise-sd", type=float, default=1.0)
    synth.add_argument("--constraint-threshold", type=float, default=1.0)
    synth.set_defaults(func=cmd_synth)

    cluster = subs.add_parser("cluster", help="parcellate features by k-means")
    cluster.add_argument("--dataset", required=True)
    cluster.add_argument("--q", type=int, required=True, help="number of clusters")
    cluster.add_argument("--out-dir", required=True)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--restarts", type=int, default=10)
    cluster.add_argument("--max-lloyd-iters", type=int, default=300)
    cluster.add_argument("--spatial-weight", type=float, default=0.0)
    cluster.set_defaults(func=cmd_cluster)

    select = subs.add_parser("select", help="score features with one method")
    select.add_argument("--dataset", required=True)
    select.add_argument("--out-dir", required=True)
    _add_selector_flags(select, _ALL_METHODS)
    select.set_defaults(func=cmd_select)

    evalp = subs.add_parser("eval", help="evaluate scores against truth or held-out data")
    evalp.add_argument("--scores", required=True)
    evalp.add_argument("--out-dir", required=True)
    evalp.add_argument("--truth", help="ground truth CSV; writes PR curve and summary")
    evalp.add_argument("--top-t", type=int, default=None,
                       help="T for top-T precision (default: number of true features)")
    evalp.add_argument("--train", help="train container for accuracy evaluation")
    evalp.add_argument("--test", help="test container for accuracy evaluation")
    evalp.add_argument("--tau", type=float, default=None,
                       help="score threshold for accuracy evaluation")
    evalp.add_argument("--cv-train", help="container for cross-validated threshold choice")
    evalp.add_argument("--grid", help="comma-separated thresholds (default 0.3..0.9)")
    evalp.add_argument("--folds", type=int, default=5)
    evalp.add_argument("--lambda-ridge", type=float, default=1.0)
    evalp.add_argument("--seed", type=int, default=0)
    evalp.set_defaults(func=cmd_eval)

    perm = subs.add_parser("perm", help="permutation false-positive estimate")
    perm.add_argument("--dataset", required=True)
    perm.add_argument("--out-dir", required=True)
    perm.add_argument("--tau", type=float, required=True)
    perm.add_argument("--replicates", type=int, default=20, help="number of permutations B")
    perm.add_argument("--perm-seed", type=int, default=0, help="seed for label permutations")
    _add_selector_flags(perm, _COUNT_METHODS)
    perm.set_defaults(func=cmd_perm)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        started, t0 = datetime.now(timezone.utc).isoformat(), time.monotonic()
        inputs, outputs, message = args.func(args, out_dir)
        _write_json(out_dir / f"manifest_{args.command}.json", {
            "command": args.command,
            "version": __version__,
            "started_utc": started,
            "duration_seconds": round(time.monotonic() - t0, 3),
            "args": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
            "inputs": inputs,
            "outputs": {str(p): sha256_file(p) for p in outputs},
        })
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
