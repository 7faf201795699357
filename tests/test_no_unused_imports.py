"""Every import is used, every public definition in ``src/`` has a caller,
every attribute a ``src/`` class sets is read, and every default a
``src/`` option carries is overridden by some caller outside tests.

Four AST checks:

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
* every defaulted parameter of a function, method or constructor, and
  every field of a frozen dataclass, under ``src/`` (outside
  ``repro.analysis``) is passed, by keyword or by position, by some call
  under the caller trees or in a ``tests/`` module a benchmark imports. A
  value that only tests set is a constant, not an option. Calls match by
  name; ``partial(f, ...)``, ``super().__init__(...)``, ``cls(...)`` in a
  classmethod and ``replace(obj, ...)`` count, a ``**kwargs`` call site
  passes every parameter and ``*args`` every positional one. The only
  exceptions are :data:`UNSET_EXEMPT`, each with its reason.
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

#: Defaulted parameters and frozen-dataclass fields that keep no caller
#: outside tests on purpose: a qualified name (``Class`` covers all its
#: fields) -> why it stays settable.
UNSET_EXEMPT = {
    "FaultSpec": (
        "fields describe injected faults; only tests and the gates' "
        "golden cases inject them"
    ),
    "PyTorchSBackend.__init__(dtype)": (
        "run_lineup builds it as BACKENDS_BY_NAME[name](spec, dtype), a "
        "call a name-based scan cannot resolve"
    ),
}


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


def _callee(func: ast.AST):
    """The name a call's callee resolves to: ``f`` or ``obj.f``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _has_decorator(node: ast.AST, name: str) -> bool:
    return any(_callee(d) == name for d in node.decorator_list)


def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call)
        and _callee(d.func) == "dataclass"
        and any(
            k.arg == "frozen" and getattr(k.value, "value", None) is True
            for k in d.keywords
        )
        for d in cls.decorator_list
    )


def _defaulted_parameters(fn, bound: bool):
    """``(name, position, line)`` of each defaulted parameter of ``fn``;
    ``position`` counts from the first argument a caller passes (after
    ``self``/``cls`` when ``bound``) and is ``None`` for keyword-only."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    skip = 1 if bound and positional else 0
    for index in range(first, len(positional)):
        if index >= skip:
            arg = positional[index]
            yield arg.arg, index - skip, arg.lineno
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None, arg.lineno


def _dataclass_fields(cls: ast.ClassDef):
    """``(name, position, line)`` of each field of a dataclass body."""
    fields = [
        node for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name)
        and "ClassVar" not in ast.unparse(node.annotation)
    ]
    for position, node in enumerate(fields):
        yield node.target.id, position, node.lineno


def _settable(rel: Path, node: ast.AST, found: list, bases: dict,
              cls=None, outer: str = "") -> None:
    """Collect ``(rel, callee, label, param, position, line)`` for every
    settable value defined under ``node``: the callee is the name a call
    uses (a class's name for its constructor)."""
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, ast.ClassDef):
            bases[sub.name] = [_callee(b) for b in sub.bases]
            if _is_frozen_dataclass(sub):
                for name, position, line in _dataclass_fields(sub):
                    found.append((rel, sub.name, f"{outer}{sub.name}.{name}",
                                  name, position, line))
            _settable(rel, sub, found, bases, sub, f"{outer}{sub.name}.")
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound = cls is not None and not _has_decorator(sub, "staticmethod")
            callee = sub.name
            if cls is not None and sub.name == "__init__":
                callee = cls.name
            for name, position, line in _defaulted_parameters(sub, bound):
                found.append((rel, callee, f"{outer}{sub.name}({name})", name,
                              position, line))
            _settable(rel, sub, found, bases, None, f"{outer}{sub.name}.")
        else:
            _settable(rel, sub, found, bases, cls, outer)


def _call_sites(node: ast.AST, bases: dict, calls: list, cls=None,
                in_classmethod: bool = False) -> None:
    """Append ``(callee, positional count, keywords, *args, **kwargs)``
    for every call under ``node``."""
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, ast.ClassDef):
            _call_sites(sub, bases, calls, sub, False)
            continue
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _call_sites(sub, bases, calls, cls,
                        cls is not None and _has_decorator(sub, "classmethod"))
            continue
        if isinstance(sub, ast.Call):
            func, args = sub.func, sub.args
            name = _callee(func)
            if (
                name == "__init__"
                and isinstance(func.value, ast.Call)
                and _callee(func.value.func) == "super"
                and cls is not None
            ):
                callees = bases.get(cls.name, [])
            elif name == "cls" and in_classmethod:
                callees = [cls.name]
            elif name == "partial" and args:
                callees, args = [_callee(args[0])], args[1:]
            elif name == "replace" and args:
                callees, args = ["<replace>"], []
            else:
                callees = [name]
            star = any(isinstance(a, ast.Starred) for a in args)
            passed = (
                sum(not isinstance(a, ast.Starred) for a in args),
                {k.arg for k in sub.keywords if k.arg},
                star,
                any(k.arg is None for k in sub.keywords),
            )
            calls.extend((callee,) + passed for callee in callees if callee)
        _call_sites(sub, bases, calls, cls, in_classmethod)


def benchmark_test_modules(repo: Path) -> list:
    """The ``tests/`` modules some benchmark imports (by module name)."""
    names = set()
    for path in sorted((repo / "benchmarks").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                names.add(node.module.split(".")[0])
    return [p for p in sorted((repo / "tests").glob("*.py")) if p.stem in names]


def unset_parameters(repo: Path) -> list:
    """``"path:line: name"`` for each defaulted parameter (``f(param)``)
    and frozen-dataclass field (``Class.field``) under ``repo/src`` that no
    call in the caller trees, or in a benchmark-imported ``tests/``
    module, passes."""
    paths = [
        path for tree_name in CALLER_TREES
        for path in sorted((repo / tree_name).rglob("*.py"))
    ] + benchmark_test_modules(repo)
    settable, bases, calls = [], {}, []
    trees = []
    for path in paths:
        rel = path.relative_to(repo)
        tree = ast.parse(path.read_text(), filename=str(path))
        trees.append(tree)
        if rel.parts[0] == "src" and UNCHECKED not in rel.parents:
            _settable(rel, tree, settable, bases)
    for tree in trees:
        _call_sites(tree, bases, calls)
    by_callee = {}
    for call in calls:
        by_callee.setdefault(call[0], []).append(call[1:])
    # A class without a constructor of its own is built by its base's.
    owners = {callee for _, callee, *_ in settable}
    for name in list(bases):
        base, seen = name, set()
        while base not in owners and base in bases and base not in seen:
            seen.add(base)
            base = next(iter(bases[base]), None)
        if base != name and base in owners:
            by_callee.setdefault(base, []).extend(by_callee.get(name, []))
    found = []
    for rel, callee, label, name, position, line in settable:
        sites = by_callee.get(callee, [])
        if "(" not in label:
            sites = sites + by_callee.get("<replace>", [])
        if not any(
            name in keywords or dstar
            or (position is not None and (position < npos or star))
            for npos, keywords, star, dstar in sites
        ):
            found.append(f"{rel}:{line}: {label}")
    return found


def _exempt(finding: str, key: str) -> bool:
    label = finding.split(": ", 1)[1]
    return label == key or label.startswith((key + ".", key + "("))


def test_every_default_is_set_outside_tests():
    found = unset_parameters(REPO)
    unexempt = [
        f for f in found if not any(_exempt(f, key) for key in UNSET_EXEMPT)
    ]
    assert unexempt == []
    stale = [
        key for key in UNSET_EXEMPT if not any(_exempt(f, key) for f in found)
    ]
    assert stale == []


def test_default_check_flags_test_only_settings(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    rules = tmp_path / "src" / "repro" / "analysis"
    for d in (pkg, rules, tmp_path / "examples", tmp_path / "tests",
              tmp_path / "benchmarks"):
        d.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2, d=3):\n"
        "    return a\n"
        "class Base:\n"
        "    def __init__(self, spec, dtype='float32'):\n"
        "        pass\n"
        "class Sub(Base):\n"
        "    def __init__(self, spec, *, block=32):\n"
        "        super().__init__(spec, 'float16')\n"
        "class Plain(Base):\n"
        "    pass\n"
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    seed: int\n"
        "    rate: float = 0.0\n"
        "    cap: int = 8\n"
        "    depth: int = 1\n"
        "    @classmethod\n"
        "    def deep(cls, seed):\n"
        "        return cls(seed, depth=5)\n"
        "def g(x, scale=1.0, bias=0.0):\n"
        "    return x\n"
        "def h(x, mode='a'):\n"
        "    return x\n"
        "class Engine:\n"
        "    def run(self, n, fast=False):\n"
        "        return n\n"
        "    @staticmethod\n"
        "    def util(x, y=0):\n"
        "        return x\n"
    )
    (rules / "rules.py").write_text("def rule(x, strict=False):\n    pass\n")
    (tmp_path / "examples" / "ex.py").write_text(
        "import dataclasses\n"
        "from functools import partial\n"
        "from pkg.mod import Config, Engine, Plain, Sub, f, g\n"
        "f(0, 5)\n"
        "Sub(None)\n"
        "Plain(None)\n"
        "dataclasses.replace(Config(1), rate=0.5)\n"
        "Config.deep(1)\n"
        "partial(g, scale=2.0)(1)\n"
        "g(1, **{'bias': 1.0})\n"
        "Engine().run(3, True)\n"
        "Engine.util(1, 2)\n"
    )
    (tmp_path / "benchmarks" / "bench.py").write_text("import helper\n")
    (tmp_path / "tests" / "helper.py").write_text(
        "from pkg.mod import f\nf(0, c=4)\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import Config, Sub, f, h\n"
        "f(0, d=1)\n"
        "Sub(None, block=8)\n"
        "Config(1, cap=2)\n"
        "h(1, mode='b')\n"
    )
    assert unset_parameters(tmp_path) == [
        "src/pkg/mod.py:2: f(d)",
        "src/pkg/mod.py:8: Sub.__init__(block)",
        "src/pkg/mod.py:16: Config.cap",
        "src/pkg/mod.py:23: h(mode)",
    ]


_FUNCTION = "def f(x, opt=1):\n    return x\n"
_CONFIG = (
    "from dataclasses import dataclass\n"
    "@dataclass(frozen=True)\n"
    "class Config:\n"
    "    seed: int\n"
    "    opt: int = 1\n"
)

#: Each call form that passes a parameter: ``src/pkg/mod.py`` and
#: ``examples/ex.py`` (one of them holds ``{args}``), the arguments that
#: set ``opt``, the arguments that leave it at its default, and the
#: finding the check reports then.
CALL_FORMS = {
    "partial": (
        _FUNCTION,
        "from functools import partial\n"
        "from pkg.mod import f\n"
        "partial(f, {args})()\n",
        "0, opt=2", "0", "f(opt)",
    ),
    "super-init": (
        "class Base:\n"
        "    def __init__(self, x, opt=1):\n"
        "        pass\n"
        "class Sub(Base):\n"
        "    def __init__(self):\n"
        "        super().__init__({args})\n",
        "from pkg.mod import Sub\nSub()\n",
        "0, 2", "0", "Base.__init__(opt)",
    ),
    "classmethod-cls": (
        _CONFIG
        + "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls({args})\n",
        "from pkg.mod import Config\nConfig.make()\n",
        "0, opt=2", "0", "Config.opt",
    ),
    "replace": (
        _CONFIG,
        "import dataclasses\n"
        "from pkg.mod import Config\n"
        "dataclasses.replace({args})\n",
        "Config(0), opt=2", "Config(0)", "Config.opt",
    ),
    "double-star": (
        _FUNCTION,
        "from pkg.mod import f\nkwargs = dict(opt=2)\nf({args})\n",
        "0, **kwargs", "0", "f(opt)",
    ),
    "star": (
        _FUNCTION,
        "from pkg.mod import f\nxs = (0, 2)\nf({args})\n",
        "*xs", "0", "f(opt)",
    ),
}


@pytest.mark.parametrize("form", list(CALL_FORMS))
def test_default_check_counts_each_call_form(tmp_path, form):
    """A call in each form sets the option; the same call site without
    it leaves the option flagged."""
    source, example, set_args, unset_args, finding = CALL_FORMS[form]
    pkg = tmp_path / "src" / "pkg"
    for d in (pkg, tmp_path / "examples", tmp_path / "tests",
              tmp_path / "benchmarks"):
        d.mkdir(parents=True)

    def labels(args):
        (pkg / "mod.py").write_text(source.replace("{args}", args))
        (tmp_path / "examples" / "ex.py").write_text(
            example.replace("{args}", args)
        )
        return [f.split(": ", 1)[1] for f in unset_parameters(tmp_path)]

    assert labels(set_args) == []
    assert labels(unset_args) == [finding]


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
