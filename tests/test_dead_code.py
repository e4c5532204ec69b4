"""Every private function, method or module-level name in `src/simrt` is used
somewhere.

A name with one leading underscore is not public API, so nothing outside
the package may depend on it. When no `Name` or `Attribute` in the package
reads it, the definition is dead code and should be deleted. Importing a
name does not read it.
"""

import ast
import pathlib

import simrt

SOURCES = sorted(pathlib.Path(simrt.__file__).parent.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _scan() -> tuple:
    """(private function name -> where, private module-level name -> where,
    every name that a Name or Attribute reads) over the package."""
    functions, globals_, read = {}, {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            for target in targets:
                for node in ast.walk(target):  # a tuple target binds each of its names
                    if isinstance(node, ast.Name) and _is_private(node.id):
                        globals_.setdefault(node.id, f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_private(node.name):
                    functions.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return functions, globals_, read


def test_every_private_function_is_referenced():
    defined, _, referenced = _scan()
    assert defined, "no private functions found: is SOURCES the package?"
    dead = [f"{name} ({where})" for name, where in defined.items() if name not in referenced]
    assert not dead, f"never referenced in src/simrt: {', '.join(dead)}"


def test_every_private_module_level_name_is_read():
    _, defined, read = _scan()
    assert defined, "no private module-level names found: is SOURCES the package?"
    dead = [f"{name} ({where})" for name, where in defined.items() if name not in read]
    assert not dead, f"never read in src/simrt: {', '.join(dead)}"
