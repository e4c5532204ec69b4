"""The package imports nothing outside the standard library and parses as
the oldest Python it claims to support."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).parents[1] / "src" / "simrt"


def test_every_absolute_import_is_stdlib():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 5
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {m}" for m in modules
                        if m.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_source_parses_as_python_3_10():
    """pyproject.toml claims Python 3.10+. This checks grammar only (e.g. no
    `except*`), not the library APIs the code calls."""
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
