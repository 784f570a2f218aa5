#!/usr/bin/env python3
"""rss_select benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-full --seed 0 --seconds 30 --trace 0

Workloads (see bench_workloads.py and perfbench/README.md):

  pipeline-full      the reference pipeline at full scale, as library calls
  perm-rss           permutation estimate over the rss selector, nproc threads
  walkthrough-small  the README CLI tour on the small instance, in-process

The inputs come only from synthgen with the given seed. Set-up runs several
times and its median is reported; the timed pass then repeats while the
next pass would still end within --seconds (at least once), and the median
pass time is reported. Outputs are checked after the passes.

--trace 0 prints the end-to-end metrics: wall_s, setup_s, peak_rss_mb and
rss_pr_auc. --trace 1 sets up once under the tracer, runs one untraced pass
and one traced pass, and prints the per-layer metrics, the tracing overhead
(traced minus untraced pass time) and the quality margins; the spans are
written to .bench_out/ when the run ends.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it starts with "record " and
holds the environment record (git SHA or source digest, nproc, versions,
BLAS, cache sizes, seed, per-pass times, quality, time shares per module).
Without src/rss_select/ next to this directory the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("pipeline-full", "perm-rss", "walkthrough-small")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget for the repeated timed pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> bool:
    """Put this checkout's src/ first on the path; False if it is absent."""
    src = (ROOT / "src").resolve()
    if not (src / "rss_select" / "__init__.py").is_file():
        print(f"perfbench: no rss_select package under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import rss_select

    if not Path(rss_select.__file__).resolve().is_relative_to(src):
        print(f"perfbench: rss_select imported from {rss_select.__file__}, not {src}",
              file=sys.stderr)
        return False
    return True


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_passes(workload, state, ops, seconds):
    """Repeat the pass while the next one would still end within the budget."""
    times, outs = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outs.append(workload.run_pass(state, ops))
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return times, outs


def run_plain(workload, args, ops, work, metrics, record):
    setup_times = []
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        state = workload.setup(args.seed, ops, work)
        setup_times.append(time.perf_counter() - t0)
    record["setup_runs_s"] = setup_times
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    t0 = time.perf_counter()
    workload.prepare(state, ops)
    record["prepare_s"] = time.perf_counter() - t0

    times, outs = timed_passes(workload, state, ops, args.seconds)
    record["pass_runs_s"] = times
    metrics["wall_s"] = (statistics.median(times), "s")
    for out in outs:
        workload.check(state, out, ops)
    metrics["peak_rss_mb"] = (peak_rss_mib(), "MiB")
    q = ops.call("quality", workload.quality, state, outs[-1])
    record["quality"] = q
    metrics["rss_pr_auc"] = (q["rss_pr_auc"], "ratio")


def run_traced(workload, args, ops, work, metrics, record):
    from bench_trace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        state = workload.setup(args.seed, ops, work)
        workload.prepare(state, ops)
    finally:
        tracer.uninstall()

    t0 = time.perf_counter()
    plain_out = workload.run_pass(state, ops)
    plain = time.perf_counter() - t0

    tracer.phase = "pass"
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced_out = workload.run_pass(state, ops)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    for out in (plain_out, traced_out):
        workload.check(state, out, ops)
    q = ops.call("quality", workload.quality, state, traced_out)
    record["quality"] = q
    layer, missing = tracer.layer_metrics()
    metrics.update(layer)
    metrics["evaluation.auc_margin_l1"] = (q["auc_margin_l1"], "ratio")
    metrics["evaluation.top_t_ratio_l1"] = (q["top_t_ratio_l1"], "ratio")
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - plain, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    record["untraced_pass_s"] = plain
    record["missing_metrics"] = missing
    record["missing_sites"] = tracer.missing
    record["shares"] = tracer.shares("pass", traced)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(spans_path, "w") as f:
        json.dump({"record": record, "spans": tracer.dump()}, f)
    record["spans_file"] = str(spans_path.relative_to(ROOT))


def run(args) -> tuple[dict, dict, dict]:
    """One benchmark run: (result, record, metrics as {name: (value, unit)})."""
    import bench_env
    import bench_workloads

    workload = bench_workloads.WORKLOADS[args.workload]
    ops = bench_workloads.Ops()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **bench_env.environment(ROOT)}
    metrics: dict[str, tuple[float, str]] = {}
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    aborted = None
    try:
        (run_traced if args.trace else run_plain)(workload, args, ops, work, metrics, record)
    except bench_workloads.StageFailed as e:
        aborted = f"stopped after operation {e} failed"
        record["aborted"] = aborted
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["failures"] = [r for r in ops.records if not r["ok"]]
    result = {
        "correct": aborted is None and ops.failed == 0,
        "attempted": max(1, ops.attempted),
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_program():
        return 2
    result, record, metrics = run(args)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} seed={args.seed} {name} = {value:.6g} {unit}")
    print("record " + json.dumps(record, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
