"""The package holds only what runs: every module-level function and class
in ``src/hemiflow`` is referenced somewhere else in the package or exported
in ``hemiflow.__all__``.  Code that only the tests call lives under
``tests/``.  Dunders, the console entry point ``cli.main`` and the
independent routes in ``oracles.py`` are exempt."""

import ast
from collections import Counter
from pathlib import Path

import hemiflow

SRC = Path(hemiflow.__file__).parent
EXEMPT = {("cli", "main")}


def _references(tree) -> Counter:
    """Names read (``name``) or looked up as attributes (``x.name``) in a tree."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    return refs


def unreferenced_definitions(src: Path = SRC) -> list:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        if module == "oracles":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") or (module, name) in EXEMPT or name in hemiflow.__all__:
                continue
            # a definition's references to itself (recursion) do not count
            if everywhere[name] - _references(node)[name] == 0:
                unused.append(f"{module}.{name}")
    return unused


def test_every_definition_is_used_or_exported():
    assert unreferenced_definitions() == []
