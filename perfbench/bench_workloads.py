"""The three benchmark workloads: set-up, one timed pass, and output checks.

Library calls go through module attributes (``clustering.kmeans``, not a
name imported from it), so that an installed tracer sees them. Every check
is a rule that holds for any correct implementation; byte digests are
recorded but never checked, because legitimate changes alter bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

import rss_select.baselines as baselines
import rss_select.cli as cli
import rss_select.clustering as clustering
import rss_select.evaluation as evaluation
import rss_select.stability as stability
import rss_select.synthgen as synthgen
from rss_select.baselines import RandL1Config
from rss_select.clustering import ClusterConfig
from rss_select.data import RngStream
from rss_select.solver import SolverConfig
from rss_select.stability import DEFAULT_LOSS_WEIGHT, StabilityConfig, load_scores_csv
from rss_select.synthgen import SynthConfig, load_ground_truth

SOLVER = SolverConfig(loss_weight=DEFAULT_LOSS_WEIGHT)
Q_FULL = 200
TOP_T_RATIO_MIN = 2.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class StageFailed(Exception):
    """An operation raised; the pass it belongs to cannot go on."""


class Ops:
    """Failure accounting: one record per stage call, selector call or CLI
    command. An operation fails if it raises, returns non-zero or fails a
    check."""

    def __init__(self):
        self.records: list[dict] = []

    def call(self, name, fn, *args, **kwargs):
        record = {"op": name, "ok": True, "reason": ""}
        self.records.append(record)
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            record.update(ok=False, reason=f"raised {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            raise StageFailed(name) from e

    @property
    def last(self) -> dict:
        return self.records[-1]

    def require(self, record: dict, ok: bool, reason: str) -> None:
        if not ok and record["ok"]:
            record.update(ok=False, reason=reason)
            print(f"check failed: {record['op']}: {reason}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.records)


def check_counts(ops, record, scores) -> None:
    counts = scores.counts
    ok = counts.shape[0] > 0 and counts.min() >= 0 and counts.max() <= scores.K
    ops.require(record, bool(ok), f"counts outside [0, K={scores.K}]")


def quality(truth, rss_scores, l1_scores, rand_l1_scores=None) -> dict:
    """PR-AUC and top-T figures of criteria 1 and 2 against planted truth."""
    T = truth.size

    def auc(scores):
        return float(evaluation.precision_recall_curve(scores, truth).auc)

    def hits(scores):
        return int(np.intersect1d(evaluation.top_t_selection(scores, T), truth).size)

    out = {"rss_pr_auc": auc(rss_scores), "l1_pr_auc": auc(l1_scores), "T": int(T),
           "rss_hits": hits(rss_scores), "l1_hits": hits(l1_scores)}
    out["auc_margin_l1"] = out["rss_pr_auc"] - out["l1_pr_auc"]
    out["top_t_ratio_l1"] = out["rss_hits"] / max(1, out["l1_hits"])
    if rand_l1_scores is not None:
        out["rand_l1_pr_auc"] = auc(rand_l1_scores)
        out["auc_margin_rand_l1"] = out["rss_pr_auc"] - out["rand_l1_pr_auc"]
    return out


def rss_config(seed: int, beta: float = 0.1) -> StabilityConfig:
    return StabilityConfig(solver=SOLVER, K=50, alpha=0.5, beta=beta,
                           block_shape=(3, 3, 3), master_seed=seed)


class Workload:
    """Set-up runs setup_repeats times (timed, median reported); prepare runs
    once after it, untimed; run_pass is the timed unit, repeated while the
    run's time budget allows; check and quality run after the passes."""

    name = ""
    setup_repeats = 3

    def setup(self, seed: int, ops: Ops, work: Path) -> dict:
        raise NotImplementedError

    def prepare(self, state: dict, ops: Ops) -> None:
        pass

    def run_pass(self, state: dict, ops: Ops) -> dict:
        raise NotImplementedError

    def check(self, state: dict, out: dict, ops: Ops) -> None:
        pass

    def quality(self, state: dict, out: dict) -> dict:
        raise NotImplementedError


class PipelineFull(Workload):
    """The reference pipeline at full scale (n=100, p=27884) as library calls.

    Run length: one k-means restart stopped after 15 Lloyd steps, and K=70
    rand-l1 fits, so that one pass does a fixed amount of work (uncapped,
    Lloyd converges after 54-87 steps depending on the seed) and three passes
    fit the time budget; k-means and rand-l1 still take most of a pass.
    """

    name = "pipeline-full"
    setup_repeats = 5
    kmeans_restarts = 1
    kmeans_lloyd_steps = 15
    rand_l1_K = 70

    def setup(self, seed, ops, work):
        dataset, truth = ops.call("synth", synthgen.generate_synthetic, SynthConfig(seed=seed))
        return {"seed": seed, "dataset": dataset, "truth": truth.features}

    def run_pass(self, state, ops):
        ds, seed = state["dataset"], state["seed"]
        out = {}
        vectors = ops.call("feature_vectors", clustering.build_feature_vectors, ds)
        parcellation = ops.call("kmeans", clustering.kmeans, vectors, ClusterConfig(
            q=Q_FULL, seed=RngStream(1000 + seed, 0), restarts=self.kmeans_restarts,
            max_lloyd_iters=self.kmeans_lloyd_steps))
        out["rss"] = ops.call("rss", stability.run_stability_selection,
                              ds, parcellation, rss_config(seed), threads=1)
        out["rss_op"] = ops.last
        out["rand_l1"] = ops.call("rand-l1", baselines.randomized_l1, ds,
                                  RandL1Config(solver=SOLVER, K=self.rand_l1_K, master_seed=seed),
                                  threads=1)
        out["rand_l1_op"] = ops.last
        l1 = ops.call("l1", baselines.l1_weight_scores, ds, SOLVER)
        out["quality"] = ops.call("eval", quality, state["truth"], out["rss"].normalized,
                                  l1, out["rand_l1"].normalized)
        out["eval_op"] = ops.last
        return out

    def check(self, state, out, ops):
        check_counts(ops, out["rss_op"], out["rss"])
        check_counts(ops, out["rand_l1_op"], out["rand_l1"])
        q, record = out["quality"], out["eval_op"]
        ops.require(record, q["auc_margin_rand_l1"] > 0,
                    f"rss PR-AUC does not beat rand-l1 (margin {q['auc_margin_rand_l1']:+.4f})")
        ops.require(record, q["auc_margin_l1"] > 0,
                    f"rss PR-AUC does not beat l1 (margin {q['auc_margin_l1']:+.4f})")
        ops.require(record, q["top_t_ratio_l1"] >= TOP_T_RATIO_MIN,
                    f"top-T ratio over l1 {q['top_t_ratio_l1']:.2f} < {TOP_T_RATIO_MIN}")

    def quality(self, state, out):
        return out["quality"]


class PermRss(Workload):
    """Permutation false-positive estimate over the rss selector, at full
    scale, with the selector on nproc threads.

    Set-up: synth plus a q=200 k-means parcellation (1 restart, stopped after
    20 Lloyd steps so set-up work is fixed). Prepare: the observed-data counts
    at threads=1, the reference the timed pass must reproduce. Pass: one
    permutation_fp_estimate with B=2 label permutations (3 selector calls).
    """

    name = "perm-rss"
    kmeans_lloyd_steps = 20
    B = 2
    tau = 0.1

    def setup(self, seed, ops, work):
        dataset, truth = ops.call("synth", synthgen.generate_synthetic, SynthConfig(seed=seed))
        vectors = ops.call("feature_vectors", clustering.build_feature_vectors, dataset)
        parcellation = ops.call("kmeans", clustering.kmeans, vectors, ClusterConfig(
            q=Q_FULL, seed=RngStream(1000 + seed, 0), restarts=1,
            max_lloyd_iters=self.kmeans_lloyd_steps))
        return {"seed": seed, "dataset": dataset, "truth": truth.features,
                "parcellation": parcellation, "config": rss_config(seed)}

    def prepare(self, state, ops):
        state["reference"] = ops.call("rss threads=1", stability.run_stability_selection,
                                      state["dataset"], state["parcellation"],
                                      state["config"], threads=1)

    def run_pass(self, state, ops):
        ds, parcellation, config = state["dataset"], state["parcellation"], state["config"]
        threads = nproc()
        calls = []

        def selector(d):
            scores = ops.call("selector", stability.run_stability_selection,
                              d, parcellation, config, threads=threads)
            calls.append((np.array_equal(d.y, ds.y), scores, ops.last))
            return scores

        report = ops.call("perm", evaluation.permutation_fp_estimate, ds, selector,
                          self.tau, self.B, seed=state["seed"])
        return {"report": report, "perm_op": ops.last, "calls": calls}

    def check(self, state, out, ops):
        reference = state["reference"]
        observed = 0
        for on_observed_labels, scores, record in out["calls"]:
            check_counts(ops, record, scores)
            if on_observed_labels:
                observed += 1
                ops.require(record, np.array_equal(scores.counts, reference.counts),
                            f"observed-data counts at threads={nproc()} differ from threads=1")
        report, record = out["report"], out["perm_op"]
        ops.require(record, observed == 1, f"{observed} selector calls on the observed labels")
        ops.require(record, len(report.permuted_counts) == self.B
                    and min(report.permuted_counts) >= 0,
                    "permuted counts missing or negative")
        expected = int((reference.normalized >= self.tau).sum())
        ops.require(record, report.observed_count == expected,
                    f"observed count {report.observed_count} != {expected} from the reference")

    def quality(self, state, out):
        l1 = baselines.l1_weight_scores(state["dataset"], SOLVER)
        return quality(state["truth"], state["reference"].normalized, l1)


class WalkthroughSmall(Workload):
    """The README CLI tour on the small instance, in-process via cli.main.

    Set-up: start a fresh interpreter that imports the CLI and builds its
    parser, the fixed cost every `rss` invocation pays. Pass: the eleven
    commands of the tour in a fresh directory.
    """

    name = "walkthrough-small"
    setup_repeats = 5
    SMALL = ["--dims", "16x16x8", "--mask", "1200", "--clusters", "15,15,20,20,20",
             "--n-per-group", "25"]

    def setup(self, seed, ops, work):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        ops.call("cli start-up", subprocess.run,
                 [sys.executable, "-c", "import rss_select.cli as c; c.build_parser()"],
                 env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)
        return {"seed": seed, "work": work, "passes": 0}

    def commands(self, seed: int, w: Path) -> list[list[str]]:
        s = str(seed)
        data, parc = w / "data" / "dataset", w / "parc" / "parcellation.csv"
        rss = ["--method", "rss", "--parcellation", str(parc), "--seed", s]
        return [
            ["synth", "--out-dir", str(w / "data"), "--seed", s, *self.SMALL],
            ["cluster", "--dataset", str(data), "--q", "120", "--seed", str(seed + 1),
             "--out-dir", str(w / "parc")],
            ["select", "--dataset", str(data), *rss, "--out-dir", str(w / "rss")],
            ["select", "--dataset", str(data), "--method", "rand-l1", "--seed", s,
             "--out-dir", str(w / "rand-l1")],
            ["select", "--dataset", str(data), "--method", "l1", "--out-dir", str(w / "l1")],
            ["eval", "--scores", str(w / "rss" / "scores.csv"),
             "--truth", str(w / "data" / "ground_truth.csv"), "--out-dir", str(w / "eval")],
            ["select", "--dataset", str(data), *rss, "--beta", "0.4",
             "--out-dir", str(w / "rss-dense")],
            ["synth", "--out-dir", str(w / "data2"), "--seed", str(seed + 7), *self.SMALL],
            ["eval", "--scores", str(w / "rss-dense" / "scores.csv"), "--cv-train", str(data),
             "--grid", "0.3,0.4,0.5", "--seed", s, "--out-dir", str(w / "cv")],
            ["eval", "--scores", str(w / "rss-dense" / "scores.csv"), "--train", str(data),
             "--test", str(w / "data2" / "dataset"), "--tau", "0.3", "--out-dir", str(w / "acc")],
            ["perm", "--dataset", str(data), *rss, "--beta", "0.4", "--tau", "0.3",
             "--replicates", "20", "--perm-seed", s, "--out-dir", str(w / "perm")],
        ]

    def run_pass(self, state, ops):
        state["passes"] += 1
        w = state["work"] / f"pass-{state['passes']}"
        records = {}
        for argv in self.commands(state["seed"], w):
            out_dir = argv[argv.index("--out-dir") + 1]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = ops.call(argv[0], _run_cli, argv)
            records[out_dir] = ops.last
            ops.require(ops.last, rc == 0, f"`rss {' '.join(argv)}` returned {rc}")
        return {"dir": w, "records": records}

    def check(self, state, out, ops):
        for out_dir, record in out["records"].items():
            manifests = list(Path(out_dir).glob("manifest_*.json"))
            ops.require(record, len(manifests) == 1, f"{out_dir}: no manifest")
            for manifest in manifests:
                with open(manifest) as f:
                    payload = json.load(f)
                for path, digest in {**payload["inputs"], **payload["outputs"]}.items():
                    ok = Path(path).is_file() and _sha256(path) == digest
                    ops.require(record, ok, f"{manifest}: checksum of {path} does not match")

    def quality(self, state, out):
        w = out["dir"]
        truth = load_ground_truth(w / "data" / "ground_truth.csv").features

        def scores(method):
            return load_scores_csv(w / method / "scores.csv")["score"]

        return quality(truth, scores("rss"), scores("l1"), scores("rand-l1"))


def _run_cli(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as e:  # argparse rejected the arguments
        return e.code if isinstance(e.code, int) else 1


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (PipelineFull(), PermRss(), WalkthroughSmall())}
