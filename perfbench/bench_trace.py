"""In-memory span tracing of rss_select layers, installed from outside.

Each layer boundary is a public name that one module calls in another. The
tracer replaces that name at the place the caller looks it up (a module
global such as ``rss_select.stability.fit_l1_logistic``, or a class
attribute such as ``BlockCover.draw``) with a wrapper that records a span:
name, start, end, parent and thread. Spans stay in memory until the run
writes them out. Nothing under ``src/`` is modified; uninstalling puts every
original back.

A site that no longer exists (a later refactor renamed or deleted it) is
recorded as missing. Every metric fed by a missing site is then left out of
the report rather than reported as 0, and the run goes on.
"""

from __future__ import annotations

import importlib
import math
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    phase: str


def _solver_hook(stats, args, kwargs, sol):
    stats["iters"] += int(sol.n_iters)
    stats["nonconverged"] += 0 if sol.converged else 1
    stats["max_kkt"] = max(stats["max_kkt"], float(sol.kkt_residual))


def _kmeans_hook(stats, args, kwargs, parcellation):
    from rss_select.clustering import within_cluster_ss

    features = args[0] if args else kwargs["features"]
    config = args[1] if len(args) > 1 else kwargs["config"]
    stats["restarts"] += int(config.restarts)
    stats["wcss_sum"] += float(within_cluster_ss(features, parcellation))


def _select_hook(stats, args, kwargs, scores):
    stats["K"] += int(scores.K)
    stats["credited"] += int(scores.counts.sum())


def _rand_l1_hook(stats, args, kwargs, scores):
    stats["K"] += int(scores.K)


def _sha256_hook(stats, args, kwargs, digest):
    stats["bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


# span name -> (lookup sites "module:attr[.attr]", optional result hook).
# Sites in rss_select.cli are the names the CLI imports, plus its command
# functions, which main() looks up each time it builds the parser; the
# others are the module globals the library looks up internally, or that the
# benchmark's library workloads call through.
LAYERS: dict[str, tuple[tuple[str, ...], object]] = {
    "synthgen.generate": (("rss_select.synthgen:generate_synthetic",
                           "rss_select.cli:generate_synthetic"), None),
    "data.load_dataset": (("rss_select.cli:load_dataset",), None),
    "data.save_dataset": (("rss_select.cli:save_dataset",), None),
    "data.sha256": (("rss_select.cli:sha256_file",), _sha256_hook),
    "clustering.feature_vectors": (("rss_select.clustering:build_feature_vectors",
                                    "rss_select.cli:build_feature_vectors"), None),
    "clustering.kmeans": (("rss_select.clustering:kmeans", "rss_select.cli:kmeans"),
                          _kmeans_hook),
    "stability.select": (("rss_select.stability:run_stability_selection",
                          "rss_select.cli:run_stability_selection"), _select_hook),
    "stability.draw": (("rss_select.stability:BlockCover.draw",), None),
    "stability.average": (("rss_select.stability:average_supervoxels",), None),
    "stability.scores_csv": (("rss_select.cli:save_scores_csv",), None),
    "solver.narrow": (("rss_select.stability:fit_l1_logistic",), _solver_hook),
    "solver.wide": (("rss_select.baselines:fit_l1_logistic",), _solver_hook),
    "solver.standardize": (("rss_select.solver:standardize_columns",
                            "rss_select.clustering:standardize_columns",
                            "rss_select.evaluation:standardize_columns"), None),
    "solver.l2": (("rss_select.evaluation:fit_l2_logistic",), None),
    "baselines.rand_l1": (("rss_select.baselines:randomized_l1",
                           "rss_select.cli:randomized_l1"), _rand_l1_hook),
    "baselines.l1": (("rss_select.baselines:l1_weight_scores",
                      "rss_select.cli:l1_weight_scores"), None),
    "evaluation.pr_curve": (("rss_select.evaluation:precision_recall_curve",
                             "rss_select.cli:precision_recall_curve"), None),
    "evaluation.cv_threshold": (("rss_select.cli:cv_threshold",), None),
    "evaluation.accuracy": (("rss_select.cli:prediction_accuracy",), None),
    "evaluation.perm": (("rss_select.evaluation:permutation_fp_estimate",
                         "rss_select.cli:permutation_fp_estimate"), None),
    **{f"cli.{c}": ((f"rss_select.cli:cmd_{c}",), None)
       for c in ("synth", "cluster", "select", "eval", "perm")},
}

# layers whose ".s" is self time: the selector calls inside a permutation
# estimate belong to stability, not to evaluation
SELF_TIME_LAYERS = ("evaluation.perm",)


def _resolve(site):
    """(owner, attribute) for a "module:attr[.attr]" site, or None if gone."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stats = defaultdict(lambda: defaultdict(float))
        self.missing: list[str] = []
        self.phase = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._missing_layers: set[str] = set()

    # -- span recording -------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            # a pool worker: the span open on the main thread caused it
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), math.nan, parent,
                                   threading.get_ident(), self.phase))
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    # -- installing wrappers -------------------------------------------
    def _wrapper(self, name, original, hook):
        stats = self.stats[name]
        lock = self._lock

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                with lock:
                    hook(stats, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, (sites, hook) in LAYERS.items():
            for site in sites:
                found = _resolve(site)
                if found is None:
                    if site not in self.missing:
                        self.missing.append(site)
                    self._missing_layers.add(name)
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(name, original, hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting --------------------------------------------------------
    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children[s.parent].append(i)
        out = []
        for i, s in enumerate(self.spans):
            covered, cursor = 0.0, s.start
            for c in sorted(children.get(i, ()), key=lambda j: self.spans[j].start):
                lo = max(self.spans[c].start, cursor)
                hi = min(self.spans[c].end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((s.end - s.start) - covered)
        return out

    def layer_metrics(self) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """Per-layer metrics as {name: (value, unit)} plus the missing names."""
        selfs = self.self_times()
        busy = defaultdict(float)
        calls = defaultdict(int)
        for s, own in zip(self.spans, selfs):
            busy[s.name] += own if s.name in SELF_TIME_LAYERS else s.end - s.start
            calls[s.name] += 1

        metrics: dict[str, tuple[float, str]] = {}
        missing: list[str] = []

        def put(layer, metric, value, unit):
            if layer in self._missing_layers:
                missing.append(metric)
            else:
                metrics[metric] = (value, unit)

        def per(total, count):
            return total / count if count else 0.0

        for name in LAYERS:
            put(name, f"{name}.s", busy[name], "s")
            put(name, f"{name}.calls", calls[name], "count")
        for name in ("solver.narrow", "solver.wide"):
            st = self.stats[name]
            put(name, f"{name}.iters", int(st["iters"]), "count")
            put(name, f"{name}.nonconverged", int(st["nonconverged"]), "count")
            put(name, f"{name}.max_kkt", float(st["max_kkt"]), "1")
        km = self.stats["clustering.kmeans"]
        put("clustering.kmeans", "clustering.kmeans.restart_s",
            per(busy["clustering.kmeans"], km["restarts"]), "s")
        put("clustering.kmeans", "clustering.wcss",
            per(km["wcss_sum"], calls["clustering.kmeans"]), "1")
        sel = self.stats["stability.select"]
        put("stability.select", "stability.iter_s", per(busy["stability.select"], sel["K"]), "s")
        put("stability.select", "stability.credited_per_iter",
            per(sel["credited"], sel["K"]), "count")
        rl1 = self.stats["baselines.rand_l1"]
        put("baselines.rand_l1", "baselines.rand_l1.iter_s",
            per(busy["baselines.rand_l1"], rl1["K"]), "s")
        put("data.sha256", "data.sha256.bytes", int(self.stats["data.sha256"]["bytes"]), "B")
        return metrics, missing

    def shares(self, phase: str, wall: float) -> dict[str, dict[str, float]]:
        """Time shares of one phase: self time per module, and inclusive
        time per top-level stage, each over the phase's wall time."""
        selfs = self.self_times()
        module = defaultdict(float)
        stage = defaultdict(float)
        for s, own in zip(self.spans, selfs):
            if s.phase != phase:
                continue
            module[s.name.split(".")[0]] += own
            if s.parent is None:
                stage[s.name] += s.end - s.start
        if wall <= 0:
            return {"module": {}, "stage": {}}
        return {
            "module": {k: round(v / wall, 4) for k, v in sorted(module.items())},
            "stage": {k: round(v / wall, 4) for k, v in sorted(stage.items())},
        }

    def dump(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "thread": s.thread, "phase": s.phase}
            for i, s in enumerate(self.spans)
        ]
