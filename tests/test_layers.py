"""Imports inside bevtrack point only downward, in one fixed layer order."""

import ast
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
