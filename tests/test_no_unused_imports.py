"""No module under ``src/`` imports a name it never uses.

An AST check over every module except the ``__init__.py`` re-export
files: each module-level ``import`` / ``from ... import`` binding must be
read somewhere in its module, or listed in the module's ``__all__``.
Dead imports hide which modules really depend on which, and they outlive
the code that needed them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _exported(tree: ast.Module) -> set:
    """The string entries of a module-level ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {elt.value for elt in node.value.elts}
    return names


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


def test_src_has_no_unused_imports():
    assert unused_imports(SRC) == []


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
