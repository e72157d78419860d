"""The package holds only what runs: every module-level function and class
in ``src/hemiflow``, and every method of its classes, is referenced
somewhere else in the package, exported in ``hemiflow.__all__`` or traced
by the benchmark (``TRACED`` in ``bench/tracer.py``, read from its source);
a method counts as referenced where a receiver that can be its class reads
it (``method_references``), not wherever its bare name is read.  Code
that only the tests call lives under ``tests/``.  Dunders, the console
entry point ``cli.main`` and the independent routes in ``oracles.py`` are
exempt, and so are the methods of ``KEPT_METHODS``, each for its reason.
Every traced path resolves in the package, so a name the benchmark stops
tracing is checked like any other."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import hemiflow

SRC = Path(hemiflow.__file__).parent
EXEMPT = {("cli", "main")}
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_paths(tracer: Path = TRACER) -> set:
    """``module.attribute path`` of every function the benchmark tracer
    wraps, read off the ``TRACED`` literal without importing the tracer."""
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["TRACED"]:
            return {f"{layer}.{path}" for layer, path in ast.literal_eval(node.value)}
    raise AssertionError(f"no TRACED tuple in {tracer}")


TRACED = traced_paths()

# methods nothing in the package calls, kept on purpose
KEPT_METHODS = {
    "model.ReducedModel.reduced_J": "exported API: the energy of a configuration",
    "fields.ScalarField.to_config": "exported API: the inverse of ``ScalarField.from_config``",
    "intervals.Bar.contains": "exported API of the error bars",
    "intervals.Bar.overlaps": "exported API of the error bars",
    "fields.ScalarField.boundary_gradient": "test oracle for the frames' trace gradient",
    "fields.ScalarField.from_config":
        "exported API: a field specification, read against the configuration's field keys",
    "model.Configuration.from_json": "exported API: the inverse of ``Configuration.to_json``",
    "constants.ConstantsTable.from_json": "exported API: the inverse of ``ConstantsTable.to_json``",
    "census.CensusEntry.p": "exported API: the entry's interior count, beside ``q``",
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
            if (name.startswith("__") or (module, name) in EXEMPT or name in hemiflow.__all__
                    or f"{module}.{name}" in TRACED):
                continue
            # a definition's references to itself (recursion) do not count
            if everywhere[name] - _references(node)[name] == 0:
                unused.append(f"{module}.{name}")
    return unused


# an expression of these kinds is no package class: its attributes credit none
BUILTINS = (ast.List, ast.Dict, ast.Set, ast.Tuple, ast.Constant, ast.ListComp, ast.DictComp,
            ast.SetComp, ast.GeneratorExp, ast.JoinedStr)
BUILTIN_CALLS = {"set", "list", "dict", "tuple", "frozenset", "str", "int", "float", "sorted",
                 "Counter", "defaultdict"}


class _Package:
    """The package's classes, their bases and methods, and the class each
    method or function is annotated to return."""

    def __init__(self, trees):
        self.module, self.methods, self.bases, self.returns = {}, {}, {}, {}
        for module, tree in trees.items():
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self.module[node.name] = module
                    self.bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
                    self.methods[node.name] = [n for n in node.body if isinstance(n, FUNCTIONS)]
        for module, tree in trees.items():
            for node in tree.body:
                funcs = [(None, node)] if isinstance(node, FUNCTIONS) else []
                if isinstance(node, ast.ClassDef):
                    funcs = [(node.name, f) for f in self.methods[node.name]]
                for owner, func in funcs:
                    self.returns[owner, func.name] = self.named(func.returns)

    def named(self, node):
        """The package class an annotation names, if any."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value if node.value in self.module else None
        if isinstance(node, ast.Name):
            return node.id if node.id in self.module else None
        return None

    def lineage(self, cls):
        """``cls``, then its package bases, nearest first."""
        return [cls] + [c for b in self.bases[cls] if b in self.module for c in self.lineage(b)]

    def defines(self, cls, name):
        return any(f.name == name for f in self.methods[cls])

    def owners(self, cls, name):
        """The classes whose ``name`` a read on a ``cls`` can run: the first
        definition along the bases and the subclasses' overrides."""
        found = [c for c in self.lineage(cls) if self.defines(c, name)][:1]
        return found + [c for c in self.module if c != cls and cls in self.lineage(c)
                        and self.defines(c, name)]

    def kind(self, expr, kinds, owner):
        """What ``expr`` can be: a package class, ``"builtin"`` or None (unknown)."""
        if isinstance(expr, ast.Name):
            return kinds.get(expr.id) if expr.id in kinds else self.named(expr)
        if isinstance(expr, BUILTINS):
            return "builtin"
        if not isinstance(expr, ast.Call):
            return None
        func = expr.func
        if isinstance(func, ast.Name):
            if func.id == "super" and owner:
                return next((b for b in self.bases[owner] if b in self.module), None)
            if func.id in BUILTIN_CALLS:
                return "builtin"
            return self.named(func) or self.returns.get((None, func.id))
        if isinstance(func, ast.Attribute):
            cls = self.kind(func.value, kinds, owner)
            if cls not in (None, "builtin"):
                return next((self.returns[c, func.attr] for c in self.lineage(cls)
                             if self.defines(c, func.attr)), None)
        return None

    def bindings(self, func, owner) -> dict:
        """What each local name of ``func`` can be; a name bound two
        different ways is unknown."""
        kinds = {}

        def bind(name, kind):
            kinds[name] = kind if kinds.get(name, kind) == kind else None

        args = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
        for k, arg in enumerate(args):
            self_arg = k == 0 and owner is not None and arg.arg in ("self", "cls")
            bind(arg.arg, owner if self_arg else self.named(arg.annotation))
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                kind = None
                if isinstance(node, ast.AnnAssign):
                    kind = self.named(node.annotation)
                if kind is None and node.value is not None:
                    kind = self.kind(node.value, kinds, owner)
                for target in targets:
                    if isinstance(target, ast.Name):
                        bind(target.id, kind)
                    else:
                        for name in ast.walk(target):
                            if isinstance(name, ast.Name):
                                bind(name.id, None)
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension, ast.NamedExpr,
                                   ast.AugAssign, ast.With, ast.AsyncWith)):
                targets = [node.target] if hasattr(node, "target") else [
                    item.optional_vars for item in node.items if item.optional_vars]
                for name in (n for t in targets for n in ast.walk(t)):
                    if isinstance(name, ast.Name):
                        bind(name.id, None)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bind(node.name, None)
        return kinds


def method_references(trees) -> Counter:
    """``module.Class.method`` -> how often the package reads the method.

    ``x.name`` credits the classes ``x`` can be: the enclosing class for
    ``self`` and ``cls``, a class named directly (``RunConfig.load``), or
    the class that a constructor call, an annotation, or a called method's
    or function's return annotation gives ``x``.  Within such a class the
    definition found along its bases counts, and so do its subclasses'
    overrides.  A literal, a container or a builtin call credits no class;
    any other receiver credits every class that defines ``name``.  A bare
    name in a class body (a dispatch table) credits that class.  A method's
    reads of itself do not count."""
    package = _Package(trees)
    refs = Counter()

    def credit(classes, name, inside):
        for cls in classes:
            key = f"{package.module[cls]}.{cls}.{name}"
            if key != inside:
                refs[key] += 1

    def scan(node, owner, kinds, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                for item in child.body:
                    if isinstance(item, FUNCTIONS):
                        scan(item, child.name, package.bindings(item, child.name),
                             f"{package.module[child.name]}.{child.name}.{item.name}")
                        continue
                    for name in ast.walk(item):
                        if isinstance(name, ast.Name) and package.defines(child.name, name.id):
                            credit([child.name], name.id, None)
                    scan(item, child.name, {}, None)
                continue
            if isinstance(child, FUNCTIONS):
                scan(child, None, package.bindings(child, None), None)
                continue
            if isinstance(child, ast.Attribute):
                kind = package.kind(child.value, kinds, owner)
                if kind is None:
                    credit([c for c in package.module if package.defines(c, child.attr)],
                           child.attr, inside)
                elif kind != "builtin":
                    credit(package.owners(kind, child.attr), child.attr, inside)
            scan(child, owner, kinds, inside)

    for tree in trees.values():
        scan(tree, None, {}, None)
    return refs


def unreferenced_methods(src: Path = SRC) -> list:
    """``module.Class.method`` for every method that the package never reads
    on a receiver that can be its class (``method_references``) and the
    benchmark does not trace."""
    trees, _ = _definitions(src)
    refs = method_references(trees)
    unused = []
    for module, tree in trees.items():
        if module == "oracles":
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, FUNCTIONS) and not node.name.startswith("__"):
                    key = f"{module}.{cls.name}.{node.name}"
                    if refs[key] == 0 and key not in TRACED:
                        unused.append(key)
    return unused


def test_every_traced_path_resolves():
    # the tracer takes a method from its class's own namespace and a
    # function from its module, so each path names a function defined
    # there under that name, not an inherited or re-exported one
    wrong = []
    for path in sorted(TRACED):
        module, *attrs = path.split(".")
        owner = importlib.import_module(f"hemiflow.{module}")
        for attr in attrs[:-1]:
            owner = getattr(owner, attr, None)
        raw = vars(owner).get(attrs[-1]) if owner is not None else None
        fn = getattr(raw, "__func__", raw)   # a staticmethod's function
        if not (callable(fn) and fn.__module__ == f"hemiflow.{module}"
                and fn.__qualname__ == ".".join(attrs)):
            wrong.append(path)
    assert wrong == []


def test_every_definition_is_used_or_exported():
    assert unreferenced_definitions() == []


def test_every_method_is_used_or_kept_for_a_reason():
    assert sorted(set(unreferenced_methods()) - set(KEPT_METHODS)) == []


def test_every_kept_method_is_still_unreferenced():
    # a kept method that the package starts to call leaves the list
    assert sorted(set(KEPT_METHODS) - set(unreferenced_methods())) == []


def test_a_method_is_matched_by_its_class(tmp_path):
    # ``add`` read on a B and on a set leaves A.add unreferenced; read on an
    # unknown receiver it could be either class's
    (tmp_path / "shapes.py").write_text(
        "class A:\n    def add(self):\n        pass\n\n"
        "class B:\n    def add(self):\n        pass\n\n"
        "def use(items):\n    b = B()\n    b.add()\n    seen = set()\n    seen.add(1)\n")
    assert unreferenced_methods(tmp_path) == ["shapes.A.add"]
    (tmp_path / "more.py").write_text("def use(thing):\n    thing.add()\n")
    assert unreferenced_methods(tmp_path) == []
