"""The package holds only what runs: every module-level function and class
in ``src/hemiflow``, and every method of its classes, is referenced
somewhere else in the package or exported in ``hemiflow.__all__``.  Code
that only the tests call lives under ``tests/``.  Dunders, the console
entry point ``cli.main`` and the independent routes in ``oracles.py`` are
exempt, and so are the methods of ``KEPT_METHODS``, each for its reason."""

import ast
from collections import Counter
from pathlib import Path

import hemiflow

SRC = Path(hemiflow.__file__).parent
EXEMPT = {("cli", "main")}

# methods nothing in the package calls, kept on purpose
KEPT_METHODS = {
    "fields.ScalarField.chart_data":
        "the benchmark tracer wraps it, and the tests use it as the chart-route oracle",
    "model.ReducedModel.normalize_alphas": "the benchmark workloads call it",
    "model.ReducedModel.reduced_J": "exported API: the energy of a configuration",
    "fields.ScalarField.to_config": "exported API: the inverse of ``ScalarField.from_config``",
    "intervals.Bar.contains": "exported API of the error bars",
    "intervals.Bar.overlaps": "exported API of the error bars",
    "fields.ScalarField.boundary_gradient": "test oracle for the frames' trace gradient",
    "fields.ScalarField.boundary_hessian":
        "the benchmark tracer wraps it, and the tests use it as the trace-Hessian oracle",
    "flow.Velocity.scaled":
        "a scaled, writable copy of a shared read-only field: how a caller hands "
        "``decrease_certificate`` a trial velocity",
}


def _references(tree) -> Counter:
    """Names read (``name``) or looked up as attributes (``x.name``) in a tree."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    return refs


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(src: Path):
    """(trees, references): each module's tree and every name read anywhere."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    return trees, sum((_references(tree) for tree in trees.values()), Counter())


def unreferenced_definitions(src: Path = SRC) -> list:
    trees, everywhere = _definitions(src)
    unused = []
    for module, tree in trees.items():
        if module == "oracles":
            continue
        for node in tree.body:
            if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") or (module, name) in EXEMPT or name in hemiflow.__all__:
                continue
            # a definition's references to itself (recursion) do not count
            if everywhere[name] - _references(node)[name] == 0:
                unused.append(f"{module}.{name}")
    return unused


def unreferenced_methods(src: Path = SRC) -> list:
    """``module.Class.method`` for every method whose name the package never
    reads outside the method itself."""
    trees, everywhere = _definitions(src)
    unused = []
    for module, tree in trees.items():
        if module == "oracles":
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, FUNCTIONS) or node.name.startswith("__"):
                    continue
                if everywhere[node.name] - _references(node)[node.name] == 0:
                    unused.append(f"{module}.{cls.name}.{node.name}")
    return unused


def test_every_definition_is_used_or_exported():
    assert unreferenced_definitions() == []


def test_every_method_is_used_or_kept_for_a_reason():
    assert sorted(set(unreferenced_methods()) - set(KEPT_METHODS)) == []


def test_every_kept_method_is_still_unreferenced():
    # a kept method that the package starts to call leaves the list
    assert sorted(set(KEPT_METHODS) - set(unreferenced_methods())) == []
