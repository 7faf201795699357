"""The lazy-export contract of every ``repro`` package.

Each package ``__init__`` resolves its public names on first use, through
a PEP 562 ``__getattr__`` over a name -> submodule map.  For every package:

* every ``__all__`` name resolves, to the object of the submodule that
  defines it (found by reading the submodules' source, not the map), so a
  missing, misspelled or misrouted map entry fails here;
* ``dir()`` lists every ``__all__`` name, and any other public name it
  lists is a submodule: the map exports nothing ``__all__`` leaves out;
* an unknown name raises ``AttributeError``;
* in a fresh interpreter under ``-W error``, importing a package loads
  none of its modules, and ``from <package> import *`` binds all of
  ``__all__``.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.hw",
    "repro.models",
    "repro.runtime",
    "repro.runtime.cluster",
    "repro.sparsity",
)


def _defined_names(node: ast.stmt) -> list:
    """Names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def definitions(package: str) -> dict:
    """name -> dotted names of the modules under ``package`` that define
    it at top level; a subpackage defines its own name."""
    root = SRC.joinpath(*package.split("."))
    found = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
            found.setdefault(parts[-1], []).append(".".join(parts))
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            for name in _defined_names(node):
                found.setdefault(name, []).append(".".join(parts))
    return found


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_is_its_defining_modules_object(package):
    pkg = importlib.import_module(package)
    defined = definitions(package)
    for name in pkg.__all__:
        modules = defined.get(name, [])
        assert len(modules) == 1, (name, modules)
        defining = importlib.import_module(modules[0])
        expected = defining if modules[0] == f"{package}.{name}" else (
            getattr(defining, name)
        )
        assert getattr(pkg, name) is expected, name


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_exactly_the_exports_and_submodules(package):
    pkg = importlib.import_module(package)
    listed = set(dir(pkg))
    assert set(pkg.__all__) <= listed
    submodules = {info.name for info in pkgutil.iter_modules(pkg.__path__)}
    public = {name for name in listed if not name.startswith("_")}
    assert public - set(pkg.__all__) <= submodules


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_names_raise_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(pkg, "no_such_name")
    assert not hasattr(pkg, "__no_such_dunder__")
    name = pkg.__all__[0]
    assert not hasattr(pkg, name.swapcase())


CHILD = """
import importlib
import json
import sys

packages = json.loads(sys.argv[1])
for package in packages:
    importlib.import_module(package)
eager = sorted(set(m for m in sys.modules if m.partition(".")[0] == "repro"))
missing = {}
for package in packages:
    namespace = {}
    exec(f"from {package} import *", namespace)
    absent = sorted(set(sys.modules[package].__all__) - set(namespace))
    if absent:
        missing[package] = absent
print(json.dumps({"eager": eager, "missing": missing}))
"""


def test_package_imports_are_lazy_and_star_imports_work():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", CHILD, json.dumps(PACKAGES)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    child = json.loads(out.stdout.splitlines()[-1])
    assert child["eager"] == sorted(PACKAGES)
    assert child["missing"] == {}
