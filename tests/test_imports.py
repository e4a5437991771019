"""Static checks on the package and test sources, parsed with `ast`, and a
star import of every module that declares `__all__`."""

import ast
import importlib
import pathlib
import re

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "qvalued"
MODULES = sorted(SRC.glob("*.py"))
TEST_MODULES = sorted(TESTS.glob("*.py"))


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
    for node in all_assignments(tree):
        read.update(e.value for e in ast.walk(node.value)
                    if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def all_assignments(tree):
    """Module-level assignments to `__all__`."""
    return [node for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)]


def private_definitions(tree):
    """(line, name) of each private name (one leading underscore) that a
    module-level assignment, def or class binds."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def names_read(tree):
    """Names a module reads: loaded names, attribute names, and names it
    imports from another module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(trees):
    """(module, line, name) of each private module-level name that no
    module of `trees`, a {module: tree} dict, reads."""
    read = set().union(*(names_read(tree) for tree in trees.values()))
    return sorted((module, line, name) for module, tree in trees.items()
                  for line, name in private_definitions(tree) if name not in read)


EXPORTING = [
    "qvalued" if p.stem == "__init__" else "qvalued." + p.stem
    for p in MODULES if all_assignments(ast.parse(p.read_text()))
]


def test_sources_found():
    assert "certify.py" in [p.name for p in MODULES]
    assert "test_imports.py" in [p.name for p in TEST_MODULES]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_module_imports(tree) == []


def test_exporting_modules_found():
    assert {"qvalued", "qvalued.lab", "qvalued.points"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_star_import_resolves_every_all_name(name):
    namespace = {}
    exec("from %s import *" % name, namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)


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


def test_every_private_module_name_is_read_in_the_package():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    assert unread_private_names(trees) == []


def private_points_imports(tree):
    """(line, name) of each private name imported from the sibling module
    `points`, by `from .points import _x` or read as `points._x`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "points":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id == "points"):
            found.append((node.lineno, node.attr))
    return found


def test_matching_lives_in_points():
    """No module but points reaches into its private names, such as the
    enumeration limit or the chunk size, and only points names scipy's
    assignment solver: all matching goes through its kernel."""
    for path in MODULES:
        if path.stem == "points":
            continue
        text = path.read_text()
        assert private_points_imports(ast.parse(text)) == [], path.name
        assert "linear_sum_assignment" not in text, path.name


def test_checker_flags_a_private_points_import():
    tree = ast.parse(
        "from . import points\n"
        "from .points import _LIMIT, match_batch\n"
        "from .geometry import _ladder_radii\n"
        "def f():\n"
        "    return points._CHUNK + points.match_batch\n")
    assert private_points_imports(tree) == [(2, "_LIMIT"), (5, "_CHUNK")]


def test_checker_flags_an_unread_private_name():
    trees = {
        "a": ast.parse(
            "_USED, _SHARED, _VIA_ATTR = 1, 2, 3\n"
            "_LEFT = 4\n"
            "_X, _Y = 5, 6\n"
            "def _helper():\n"
            "    return _USED + _X\n"
            "class _Gone:\n"
            "    __slots__ = ()\n"
            "def public():\n"
            "    return _helper()\n"),
        "b": ast.parse(
            "from . import a\n"
            "from .a import _SHARED\n"
            "_Y = 7\n"
            "def f():\n"
            "    return a._VIA_ATTR + _SHARED\n"),
    }
    assert unread_private_names(trees) == [
        ("a", 2, "_LEFT"), ("a", 3, "_Y"), ("a", 6, "_Gone"), ("b", 3, "_Y")]


def unread_exports(trees, outside):
    """(module, name) of each `__all__` name of `trees`, a {module: tree}
    dict, that no tree of `trees` or of `outside` reads.  A definition is
    not a read, and neither is the `__all__` entry itself."""
    read = set().union(*(names_read(tree) for tree in list(trees.values()) + outside))
    return sorted((module, e.value) for module, tree in trees.items()
                  for node in all_assignments(tree) for e in ast.walk(node.value)
                  if isinstance(e, ast.Constant) and e.value not in read)


def test_every_export_is_read_outside_the_unit_tests():
    """Each public name is read by package code, the acceptance tests, a
    README Python block or the benchmark: a name that only its unit tests
    call is dead code with tests."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    outside = [ast.parse((TESTS / "test_acceptance.py").read_text())]
    outside += [ast.parse(block) for block in blocks]
    outside += [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert blocks and len(outside) > len(blocks) + 1
    assert unread_exports(trees, outside) == []


def test_checker_flags_an_unread_export():
    trees = {
        "a": ast.parse(
            "__all__ = ['used', 'via_attr', 'outside', 'own_only', 'unread']\n"
            "def used(): pass\n"
            "def via_attr(): pass\n"
            "def outside(): pass\n"
            "def own_only(): pass\n"
            "def unread(): pass\n"
            "def helper():\n"
            "    return own_only()\n"),
        "b": ast.parse(
            "from . import a\n"
            "from .a import used\n"
            "__all__ = ['g']\n"
            "def g():\n"
            "    return used() + a.via_attr()\n"),
    }
    outside = [ast.parse("import a\na.outside()\n")]
    assert unread_exports(trees, outside) == [("a", "unread"), ("b", "g")]
