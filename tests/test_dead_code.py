"""Every private function or method in `src/simrt` is used somewhere.

A name with one leading underscore is not public API, so nothing outside
the package may depend on it. When no `Name` or `Attribute` in the package
reads it, the definition is dead code and should be deleted.
"""

import ast
import pathlib

import simrt

SOURCES = sorted(pathlib.Path(simrt.__file__).parent.glob("*.py"))


def test_every_private_function_is_referenced():
    defined, referenced = {}, set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined, "no private functions found: is SOURCES the package?"
    dead = [f"{name} ({where})" for name, where in defined.items() if name not in referenced]
    assert not dead, f"never referenced in src/simrt: {', '.join(dead)}"
