"""Package-level structure checks."""

import ast
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
