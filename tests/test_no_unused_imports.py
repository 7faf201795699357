"""Every import is used, every public definition in ``src/`` has a caller,
and every attribute a ``src/`` class sets is read.

Three AST checks:

* no module under ``src/``, ``benchmarks/``, ``examples/`` or ``tests/``
  imports a name it never uses (``__init__.py`` re-export files are
  skipped; names listed in a module's ``__all__`` count as used). Dead
  imports hide which modules really depend on which, and they outlive the
  code that needed them.
* every public top-level function and class under ``src/`` is named
  outside its own body by some module under ``src/``, ``benchmarks/``,
  ``examples/`` or ``perfbench/``. Tests do not count: a name only tests
  reach either moves into ``tests/`` (an oracle) or goes. Neither do
  ``__init__.py`` re-exports and ``__all__``. A string that is exactly the
  name counts, because ``getattr`` and perfbench's tracer bind by string.
  ``repro.analysis`` is left out: its rules register by decorator, and
  tier-1 drives its entry points.
* every ``self.<name> = ...`` in a class under ``src/`` (outside
  ``repro.analysis``) is read as ``.<name>``, or named by a string, by some
  module under the same caller trees. Tests do not count here either.
  Exception classes are exempt: their fields are fault data for whoever
  catches them.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Trees whose modules count as callers of a ``src/`` definition.
CALLER_TREES = ("src", "benchmarks", "examples", "perfbench")
#: Package whose definitions the caller check leaves out.
UNCHECKED = Path("src", "repro", "analysis")


def _exported(tree: ast.Module) -> set:
    """The string entries of a module-level ``__all__``."""
    names = set()
    for node in tree.body:
        if _is_all(node):
            names |= {elt.value for elt in node.value.elts}
    return names


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def unused_imports(root: Path) -> list:
    """``"path:line: name"`` for each unused module-level import."""
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _exported(tree)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append(
                        f"{path.relative_to(root)}:{node.lineno}: {name}"
                    )
    return found


def _names(node: ast.AST) -> Counter:
    """How often each identifier is named under ``node``: name loads,
    attribute loads and strings that are exactly an identifier."""
    named = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            named[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            named[sub.attr] += 1
        elif (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and sub.value.isidentifier()
        ):
            named[sub.value] += 1
    return named


def uncalled_definitions(repo: Path) -> list:
    """``"path:line: name"`` for each public top-level function or class
    under ``repo/src`` that no caller module names outside its own body."""
    named = Counter()
    definitions = []
    for tree_name in CALLER_TREES:
        for path in sorted((repo / tree_name).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            rel = path.relative_to(repo)
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in tree.body:
                if not _is_all(node):
                    named.update(_names(node))
            if tree_name != "src" or UNCHECKED in rel.parents:
                continue
            for node in tree.body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ) and not node.name.startswith("_"):
                    definitions.append((rel, node))
    found = []
    for rel, node in definitions:
        if named[node.name] - _names(node)[node.name] <= 0:
            found.append(f"{rel}:{node.lineno}: {node.name}")
    return found


def _is_slots_or_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id in ("__all__", "__slots__")
        for t in node.targets
    )


def _attribute_reads(node: ast.AST, read: set) -> None:
    """Add to ``read`` every attribute loaded under ``node`` and every
    string that is exactly an identifier (``getattr`` binds by string);
    ``__slots__`` and ``__all__`` entries declare names, they read none."""
    if _is_slots_or_all(node):
        return
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        read.add(node.attr)
    elif (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.isidentifier()
    ):
        read.add(node.value)
    for child in ast.iter_child_nodes(node):
        _attribute_reads(child, read)


def _self_assignments(cls: ast.ClassDef):
    """``(name, line)`` of each ``self.<name> = ...`` in ``cls``'s methods."""
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    ):
                        yield sub.attr, sub.lineno


def _exception_classes(classes) -> set:
    """Names of the classes that derive from an exception, transitively
    through classes defined in the same trees."""
    def base_name(base):
        if isinstance(base, ast.Attribute):
            return base.attr
        return getattr(base, "id", "")

    found = set()
    while True:
        more = {
            cls.name
            for _, cls in classes
            if cls.name not in found
            and any(
                name.endswith(("Error", "Exception", "Warning"))
                or name in found
                for name in map(base_name, cls.bases)
            )
        }
        if not more:
            return found
        found |= more


def unread_attributes(repo: Path) -> list:
    """``"path:line: Class.name"`` for each attribute a ``repo/src`` class
    sets on ``self`` that no caller module reads."""
    read = set()
    classes = []
    for tree_name in CALLER_TREES:
        for path in sorted((repo / tree_name).rglob("*.py")):
            rel = path.relative_to(repo)
            tree = ast.parse(path.read_text(), filename=str(path))
            _attribute_reads(tree, read)
            if tree_name != "src" or UNCHECKED in rel.parents:
                continue
            classes.extend(
                (rel, node)
                for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)
            )
    exempt = _exception_classes(classes)
    found = []
    for rel, cls in classes:
        if cls.name in exempt:
            continue
        seen = set()
        for name, line in _self_assignments(cls):
            if name not in read and name not in seen:
                seen.add(name)
                found.append(f"{rel}:{line}: {cls.name}.{name}")
    return found


def test_src_has_no_unused_imports():
    assert unused_imports(SRC) == []


@pytest.mark.parametrize("tree", ["benchmarks", "examples", "tests"])
def test_tree_has_no_unused_imports(tree):
    assert unused_imports(REPO / tree) == []


def test_checker_flags_unused_and_keeps_used(tmp_path):
    (tmp_path / "__init__.py").write_text("import os\n")
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import pi, tau\n"
        "from .other import Exported\n"
        "__all__ = ['Exported']\n"
        "def f():\n"
        "    return os.sep + js.dumps(pi)\n"
    )
    assert unused_imports(tmp_path) == ["mod.py:4: tau"]


def test_every_public_definition_has_a_caller_outside_tests():
    assert uncalled_definitions(REPO) == []


def test_caller_check_flags_test_only_definitions(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    rules = tmp_path / "src" / "repro" / "analysis"
    for d in (pkg, rules, tmp_path / "examples", tmp_path / "tests"):
        d.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from .mod import Used, dead, by_string, helper\n"
        "legacy_name = dead\n"
        "__all__ = ['Used', 'dead', 'by_string', 'helper', 'exported']\n"
    )
    (pkg / "mod.py").write_text(
        "__all__ = ['exported']\n"
        "def dead(n):\n"
        "    return dead(n - 1) if n else 0\n"
        "class Used:\n"
        "    pass\n"
        "def by_string():\n"
        "    pass\n"
        "def helper():\n"
        "    pass\n"
        "def exported():\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
        "def user():\n"
        "    return helper()\n"
    )
    (rules / "rules.py").write_text("def check_rule():\n    pass\n")
    (tmp_path / "examples" / "ex.py").write_text(
        "import pkg\n"
        "pkg.Used()\n"
        "getattr(pkg, 'by_string')()\n"
        "pkg.user()\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg import dead, exported\n"
        "dead(1)\n"
        "exported()\n"
    )
    assert uncalled_definitions(tmp_path) == [
        "src/pkg/mod.py:2: dead",
        "src/pkg/mod.py:10: exported",
    ]


def test_every_attribute_set_in_src_is_read_outside_tests():
    assert unread_attributes(REPO) == []


def test_attribute_check_flags_write_only_attributes(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    rules = tmp_path / "src" / "repro" / "analysis"
    for d in (pkg, rules, tmp_path / "examples", tmp_path / "tests"):
        d.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "class Box:\n"
        "    __slots__ = ('dead', 'read', 'by_string', 'pair', 'only_tested')\n"
        "    def __init__(self):\n"
        "        self.dead = 1\n"
        "        self.read = 2\n"
        "        self.by_string = 3\n"
        "        self.pair, self.only_tested = 4, 5\n"
        "    def reset(self):\n"
        "        self.dead = 0\n"
        "    def total(self):\n"
        "        return self.read + self.pair\n"
        "class BoxError(ValueError):\n"
        "    def __init__(self, detail):\n"
        "        self.detail = detail\n"
        "class WorseBoxError(BoxError):\n"
        "    def __init__(self, code):\n"
        "        self.code = code\n"
    )
    (rules / "rules.py").write_text(
        "class Rule:\n    def __init__(self):\n        self.unread = 1\n"
    )
    (tmp_path / "examples" / "ex.py").write_text(
        "from pkg.mod import Box\n"
        "print(getattr(Box(), 'by_string'))\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import Box\n"
        "assert Box().only_tested == 5\n"
    )
    assert unread_attributes(tmp_path) == [
        "src/pkg/mod.py:4: Box.dead",
        "src/pkg/mod.py:7: Box.only_tested",
    ]
