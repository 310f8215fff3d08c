"""Hygiene of the package sources, checked with the standard library's ast
module: every name an import binds is referenced in the scope that imports it
(the module for a top-level import, the function for a local one), every
function, method and class has a caller in the package or the benchmark, and
every function the benchmark's tracer wraps still exists."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "polyscore"
MODULES = sorted(SRC.glob("*.py"))
# the benchmark's own code, not its tests: a path only tests reach has no caller
BENCHMARK = sorted(p for p in (SRC.parent.parent / "perfbench").glob("*.py")
                   if not p.name.startswith("test_"))


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(a.asname or a.name).split(".")[0] for a in node.names]


def _referenced(scope: ast.AST) -> set[str]:
    """Names loaded anywhere under scope, including quoted annotations."""
    names = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is None:
                continue
            for c in ast.walk(annotation):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):  # -> "Model"
                    names |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                              if isinstance(n, ast.Name)}
    return names


def _scope_imports(scope: ast.AST):
    """Import statements of scope itself, not of the functions or classes in it."""
    todo = list(scope.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports(tree: ast.Module) -> list[str]:
    """'line: name' for each imported name its importing scope never uses."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = {e.value for e in node.value.elts}
    found = []
    scopes = [tree] + [n for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in scopes:
        used = _referenced(scope) | exported
        found += [(node.lineno, name) for node in _scope_imports(scope)
                  for name in _bound_names(node) if name not in used]
    return [f"{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def test_checker_flags_unused_imports():
    tree = ast.parse(
        "import os\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "def f():\n"
        "    from json import dumps, loads\n"
        "    return loads('1')\n"
        "def g(v: 'Counter'):\n"
        "    from collections import Counter\n"
        "    return dumps\n"
    )
    assert unused_imports(tree) == ["1: os", "2: field", "7: dumps"]


def _names(tree: ast.AST) -> Counter:
    """How often each name is used under tree: as a Name, as an Attribute, or
    as a part of a dotted-name string such as "losses.in_batch_loss"."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def uncalled_definitions(defining: ast.Module, trees: list[ast.Module]) -> list[str]:
    """'line: name' for each function, method and class defined in `defining`
    that no tree in `trees` names outside the definition itself; dunder
    methods are called by Python and exempt."""
    used = sum((_names(t) for t in trees), Counter())
    found = [d for d in ast.walk(defining)
             if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and not (d.name.startswith("__") and d.name.endswith("__"))
             and used[d.name] <= _names(d)[d.name]]
    return [f"{d.lineno}: {d.name}" for d in sorted(found, key=lambda d: d.lineno)]


def test_every_definition_has_a_caller():
    """Code that only tests reach is not part of the program: delete it."""
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in MODULES + BENCHMARK]
    found = [f"{path.name}:{entry}" for path, tree in zip(MODULES, trees)
             for entry in uncalled_definitions(tree, trees)]
    assert found == []


def test_checker_flags_uncalled_definitions():
    tree = ast.parse(
        "def used(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class A:\n"
        "    def __init__(self): self.method()\n"
        "    def method(self): pass\n"
        "    def dead(self): pass\n"
        "def by_name(): pass\n"
        "TARGETS = ['mod.by_name', 'see dead. below']\n"
        "used(); A()\n"
    )
    assert uncalled_definitions(tree, [tree]) == ["2: recursive", "6: dead"]


def benchmark_targets() -> list[tuple[str, str]]:
    """(owner, attribute) of every entry in the benchmark tracer's TARGETS,
    read from the source of perfbench/tracing.py without importing it; an
    owner is a dotted name such as `model.Scorer`."""
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets))
    return [(ast.unparse(owner), attr.value) for _, owner, attr in
            (entry.elts for entry in table.elts)]


def test_benchmark_targets_resolve():
    """Every function the benchmark wraps still exists, so deleting one
    cannot silently break the benchmark."""
    targets = benchmark_targets()
    assert len(targets) > 20
    missing = []
    for owner_name, attr in targets:
        module, *path = owner_name.split(".")
        target = importlib.import_module(f"polyscore.{module}")
        for part in (*path, attr):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{owner_name}.{attr}")
    assert missing == []
