"""Tests of the benchmark itself.

Run from the repository root (the Tier-1 suite does not collect them):

    python3 -m pytest perfbench/test_perfbench.py -q

The exact-repeat test runs every workload's traced run twice on seed 1, a
seed other than the default, so it takes a few minutes.
"""

from __future__ import annotations

import argparse
import math

import pytest

import run as bench_run

assert bench_run.import_program()

import bench_trace  # noqa: E402
from bench_trace import Span, Tracer  # noqa: E402

EXACT_SUFFIXES = (".calls", ".iters", ".nonconverged")
EXACT_NAMES = ("clustering.wcss", "stability.credited_per_iter", "trace.spans")


def _exact(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(EXACT_SUFFIXES) or k in EXACT_NAMES}


def test_self_time_subtracts_covered_child_time():
    tracer = Tracer()
    tracer.spans = [
        Span("outer", 0.0, 10.0, None, 1, "pass"),
        Span("a", 1.0, 4.0, 0, 1, "pass"),
        Span("b", 3.0, 6.0, 0, 2, "pass"),  # overlaps a: another thread
        Span("c", 9.0, 12.0, 0, 2, "pass"),  # runs past its parent's end
    ]
    assert tracer.self_times() == pytest.approx([10.0 - 5.0 - 1.0, 3.0, 3.0, 3.0])


def test_missing_site_is_reported_missing_not_zero(monkeypatch):
    layers = dict(bench_trace.LAYERS)
    layers["stability.average"] = (("rss_select.stability:no_such_function",), None)
    monkeypatch.setattr(bench_trace, "LAYERS", layers)
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    metrics, missing = tracer.layer_metrics()
    assert "stability.average.s" not in metrics
    assert {"stability.average.s", "stability.average.calls"} <= set(missing)
    assert tracer.missing == ["rss_select.stability:no_such_function"]
    assert metrics["stability.draw.calls"] == (0, "count")


def test_uninstall_restores_every_original():
    import rss_select.stability as stability

    draw, fit = stability.BlockCover.draw, stability.fit_l1_logistic
    tracer = Tracer()
    tracer.install()
    assert stability.fit_l1_logistic is not fit
    tracer.uninstall()
    assert stability.BlockCover.draw is draw
    assert stability.fit_l1_logistic is fit


@pytest.mark.parametrize("workload", bench_run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly_and_checks_pass(workload):
    args = argparse.Namespace(workload=workload, seed=1, seconds=0.0, trace=1)
    first, _, _ = bench_run.run(args)
    second, _, _ = bench_run.run(args)
    for result in (first, second):
        assert result["correct"], result
        assert result["failed"] == 0
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    counts = _exact(first["metrics"])
    assert counts and counts == _exact(second["metrics"])
