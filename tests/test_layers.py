"""Imports inside bevtrack point only downward, in one fixed layer order, and
``src/`` defines nothing, constants included, that only tests use."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import bevtrack

LAYERS = ("config", "geom", "voxel", "tensor", "sim", "net", "train", "track", "metrics", "pipeline", "cli")
PACKAGE = Path(bevtrack.__file__).parent


def internal_imports(path):
    """Names of the bevtrack modules that a module imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bevtrack"):
            names.update([node.module[len("bevtrack."):]] if "." in node.module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            names.update(a.name[len("bevtrack."):] for a in node.names if a.name.startswith("bevtrack."))
    return {n for n in names if (PACKAGE / f"{n}.py").exists()}


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_imports_point_only_downward():
    upward = []
    for rank, name in enumerate(LAYERS):
        for dep in internal_imports(PACKAGE / f"{name}.py"):
            if dep not in LAYERS[:rank]:
                upward.append(f"{name} imports {dep}")
    assert upward == []


def names_used(tree):
    """How often each name is read, as a variable, an attribute or an import."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name.rsplit(".", 1)[-1]] += 1
    return counts


def definitions(tree):
    """(name, node) of each function, class and non-dunder method, and of each module-level UPPER_CASE constant."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        yield from ((t.id, node) for t in targets if isinstance(t, ast.Name) and t.id.isupper())


def test_every_definition_is_used_outside_tests():
    """Each definition in src/ is named in src/ or benchmark/ outside its own body (a constant: outside its assignment)."""
    repo = PACKAGE.parent.parent
    trees = {p: ast.parse(p.read_text()) for d in (PACKAGE, repo / "benchmark") for p in sorted(d.rglob("*.py"))}
    used = sum((names_used(t) for t in trees.values()), Counter())
    unused = [
        f"{path.name}:{name}"
        for path, tree in trees.items()
        if path.is_relative_to(PACKAGE)
        for name, node in definitions(tree)
        if used[name] - names_used(node)[name] <= 0
    ]
    assert unused == []


def test_cli_import_loads_no_scipy():
    """bevtrack needs numpy alone: importing the CLI, which imports every module, loads no scipy."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    code = "import sys, bevtrack.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
