"""Static checks on the package source, parsed with `ast`."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qvalued"
MODULES = sorted(SRC.glob("*.py"))


def unused_module_imports(tree):
    """Names bound by module-level imports that the module never reads.

    A name counts as read where it appears as a Name node or as a string in
    a module-level `__all__` (a re-export).
    """
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(e.value for e in ast.walk(node.value)
                        if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_sources_found():
    assert "certify.py" in [p.name for p in MODULES]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_module_imports(tree) == []


def test_checker_flags_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from math import inf, pi\n"
        "from .x import y\n"
        "__all__ = ['y']\n"
        "def f():\n"
        "    return np.zeros(1) + pi\n")
    assert unused_module_imports(tree) == [(2, "os"), (4, "inf")]
