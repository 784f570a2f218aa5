"""Package-level structure checks."""

import ast
import dataclasses
import importlib.util
import sys
from pathlib import Path

import rss_select

PACKAGE_DIR = Path(rss_select.__file__).parent


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_modules_import_no_private_names_from_siblings():
    """A module may keep underscore names to itself; a sibling that needs one
    should get a public name instead. Dunder names such as __version__ are
    public."""
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "rss_select"
            if internal:
                offenders += [f"{path.name}:{node.lineno} imports {alias.name}"
                              for alias in node.names if _private(alias.name)]
    assert offenders == []


def test_every_config_field_is_set_by_the_cli():
    """Every init field of the public configs is passed as a keyword by some
    call of its class in cli.py: a field that no command sets is an option
    with no caller."""
    configs = [rss_select.SolverConfig, rss_select.StabilityConfig, rss_select.RandL1Config,
               rss_select.ClusterConfig, rss_select.SynthConfig]
    passed = {cls.__name__: set() for cls in configs}
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in passed:
            passed[node.func.id].update(kw.arg for kw in node.keywords)
    unset = [f"{cls.__name__}.{f.name}" for cls in configs for f in dataclasses.fields(cls)
             if f.init and f.name not in passed[cls.__name__]]
    assert unset == []


def test_every_benchmark_trace_site_resolves(monkeypatch):
    """The benchmark's tracer finds every name it wraps: a refactor that
    renames or moves one of them fails here, not only in the benchmark.
    The tracer's file is loaded as it is, from outside the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"
    spec = importlib.util.spec_from_file_location("bench_trace", path)
    bench_trace = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench_trace)  # its dataclass needs it there
    spec.loader.exec_module(bench_trace)
    tracer = bench_trace.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []
