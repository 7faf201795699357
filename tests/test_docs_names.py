"""Every name the docs put in backticks, and every cross-reference in
``src/``, exists in the repo.

A doc or docstring that names removed code as current misleads the next
reader, and no other test reads ``docs/*.md``.  This file collects, from
every backticked span of the docs outside fenced code blocks:

* every dotted name (``repro.core.cover``, ``Planner.resolve``,
  ``price.ops_per_run``) and every identifier with an underscore or an
  inner capital (``sparse_training_step``, ``PlanCache``);
* every file path (``benchmarks/bench_warm_calls.py``, with a pytest
  ``::`` node id checked as names);

and, from ``src/**/*.py``, the target of every Sphinx role (``:func:``,
``:class:``, ``:meth:``, ``:attr:``, ``:data:``, ``:mod:``, ``:exc:``),
with ``~`` and leading dots stripped and an explicit title dropped.

Each one must resolve to one of:

* a definition in ``src/``, ``tests/``, ``benchmarks/``, ``perfbench/`` or
  ``examples/``: a def, class, assignment, parameter or module, or a
  string the program uses as a name (a dict key, an op label, an
  environment variable).  A dotted name whose head is a module must name
  a member of that module, and one whose head is a class a member of
  that class or of a base;
* a metric or workload name in ``BENCHMARK.json``;
* a file or directory of the repo, or a file name the program writes;
* an entry of :data:`ALLOWLIST`, each with the reason it cannot resolve.

An allowlist entry that no doc or cross-reference uses, or that resolves
without it, fails as stale.
"""

import ast
import json
import re
from fnmatch import fnmatch
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted((ROOT / "docs").glob("*.md"))
TREES = ("src", "tests", "benchmarks", "perfbench", "examples")

#: name -> why it resolves to nothing in the repo.
ALLOWLIST = {
    # Standard library.
    "NamedTuple": "typing.NamedTuple",
    "OrderedDict": "collections.OrderedDict",
    "threading.Event": "standard library",
    "tokenize": "standard library module",
    "TypeError": "builtin exception",
    "ValueError": "builtin exception",
    "asyncio.to_thread": "standard library",
    "dataclasses.replace": "standard library",
    "datetime.now": "datetime.datetime.now",
    "functools.partial": "standard library",
    "json.dumps": "standard library",
    "sys.setprofile": "standard library",
    "PYTHONDEVMODE": "interpreter environment variable",
    "PYTHONDONTWRITEBYTECODE": "interpreter environment variable",
    # numpy.
    "default_rng": "numpy.random.default_rng",
    "mask.T": "ndarray.T, in the pyramid's transposition identity",
    "np.random.default_rng": "numpy",
    "np.random.rand": "numpy",
    "np.random.seed": "numpy",
    # Formula variables and placeholders.
    "micro_tiles_per_row": "the second element of the ffn-act memo pair",
    "prior_compute_remaining": "a term of the overlap formula",
    "search_tail": "a term of the overlap formula",
    "_X": "the lock-naming convention's placeholder",
    "_X_LOCK": "the lock-naming convention's placeholder",
    "bad_my_rule.py": "the new-rule how-to's placeholder fixture",
    "good_my_rule.py": "the new-rule how-to's placeholder fixture",
    # Removed on purpose, and named as removed.
    "tiledb_keys": "a format-3 dump header field, in the format history",
}

_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_SPAN = re.compile(r"`([^`\n]+)`")
_QUOTED = re.compile(r"\"[^\"]*\"|'[^']*'")
#: A slash-separated or extension-bearing word, with an optional pytest
#: node id.
_PATH = re.compile(r"(?<![\w.-])[\w.-]+(?:/[\w.-]*)*(?:::[\w:\[\]-]+)?")
_EXTENSION = re.compile(r"\.(?:py|json|md|yml|toml|txt)(?:::|$)")
_NAME = re.compile(r"(?<![\w/-])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\*?")
#: A Sphinx cross-reference; its target may follow an explicit title.
_ROLE = re.compile(r":(?:func|class|meth|attr|data|mod|exc):`(?:[^`<]*<)?"
                   r"([^`>]+)>?`")


def _checked(name: str) -> bool:
    return "." in name or "_" in name or name[1:] != name[1:].lower()


def _is_path(word: str) -> bool:
    """A repo path (its first part names a top-level entry) or a file
    name; ``L/E`` in a formula is neither."""
    if _EXTENSION.search(word):
        return True
    head = word.split("/")[0]
    return "/" in word and bool(head) and (ROOT / head).exists()


def doc_names() -> dict:
    """``(doc, name) -> kind`` for every checked name, kind "path" or
    "name"."""
    found = {}
    for doc in DOCS:
        text = _FENCE.sub("", doc.read_text())
        for span in _SPAN.findall(text):
            span = _QUOTED.sub("", span)
            rest = span
            for word in _PATH.findall(span):
                if _is_path(word):
                    found[(doc.name, word)] = "path"
                    rest = rest.replace(word, " ")
            for name in _NAME.findall(rest):
                if _checked(name):
                    found[(doc.name, name)] = "name"
    return found


def role_targets(text: str) -> list:
    """Every Sphinx role target in ``text``, as a name to resolve."""
    return [t.lstrip("~").lstrip(".") for t in _ROLE.findall(text)]


def src_names() -> dict:
    """``(file, target) -> "name"`` for every role target in ``src/``."""
    return {
        (str(path.relative_to(ROOT)), target): "name"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for target in role_targets(path.read_text())
    }


class _Index:
    """What the trees define, read from their source."""

    def __init__(self):
        self.names = set()
        self.variables = set()  # names an argument or assignment binds
        self.strings = set()
        self.files = set()
        self.modules = {}  # dotted module path or stem -> member names
        self.classes = {}  # class name -> (member names, base names)
        this = Path(__file__).resolve()
        for tree in TREES:
            for path in sorted((ROOT / tree).rglob("*.py")):
                # Lint fixtures define look-alikes; this file names
                # removed code on purpose.
                if "fixtures" not in path.parts and path != this:
                    self._read(path)

    def _read(self, path: Path) -> None:
        rel = path.relative_to(ROOT)
        self.files.add(path.name)
        parts = list(rel.with_suffix("").parts)
        if parts[0] == "src":
            parts = parts[1:]
        if parts[-1] == "__init__":
            parts = parts[:-1]
        for i in range(len(parts)):
            self.names.add(parts[i])
            self.modules.setdefault(".".join(parts[:i + 1]), set())
            if i:
                self.modules[".".join(parts[:i])].add(parts[i])
        module = self.modules.setdefault(".".join(parts), set())
        self.modules.setdefault(parts[-1], set())
        tree = ast.parse(path.read_text())
        for node in tree.body:
            module.update(_bound(node))
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            ):
                module.update(ast.literal_eval(node.value))
        self.modules[parts[-1]].update(module)
        for node in ast.walk(tree):
            self._note(node)

    def _note(self, node) -> None:
        if isinstance(node, ast.ClassDef):
            members, bases = self.classes.setdefault(node.name, (set(), set()))
            for b in node.bases:
                bases.add(b.attr if isinstance(b, ast.Attribute) else
                          getattr(b, "id", ""))
            for item in node.body:
                members.update(_bound(item))
            for item in ast.walk(node):
                if (isinstance(item, ast.Attribute)
                        and isinstance(item.ctx, ast.Store)
                        and getattr(item.value, "id", "") == "self"):
                    members.add(item.attr)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            self.names.add(node.name)
        elif isinstance(node, ast.arg):
            self.names.add(node.arg)
            self.variables.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            self.names.add(node.id)
            self.variables.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Store
        ):
            self.names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.-]+", node.value):
                self.strings.add(node.value)

    def resolves(self, name: str) -> bool:
        if name.endswith("*"):  # a family: ``sim_*``
            return any(
                fnmatch(n, name)
                for n in self.strings | _benchmark_names()
            )
        if name in self.strings or name in _benchmark_names():
            return True
        parts = name.split(".")
        # The longest leading module path names the scope.  A one-part
        # head that is also a variable (``engine.run``) may name either.
        for cut in range(len(parts), 0, -1):
            head = ".".join(parts[:cut])
            if head in self.modules:
                rest = parts[cut:]
                if not rest or (
                    rest[0] in self.modules[head]
                    and self._in_class(rest[0], rest[1:])
                ):
                    return True
                if cut > 1 or head not in self.variables:
                    return False
                break
        if parts[0] in self.classes:
            return self._in_class(parts[0], parts[1:])
        return all(p in self.names for p in parts)

    def _in_class(self, cls: str, rest: list) -> bool:
        if not rest or cls not in self.classes:
            return all(p in self.names for p in rest)
        if self._member(cls, rest[0], set()):
            return all(p in self.names for p in rest[1:])
        return False

    def _member(self, cls: str, attr: str, seen: set) -> bool:
        if cls in seen or cls not in self.classes:
            return False
        seen.add(cls)
        members, bases = self.classes[cls]
        return attr in members or any(
            self._member(b, attr, seen) for b in bases
        )

    def path_resolves(self, path: str) -> bool:
        path, _, node = path.partition("::")
        if node and not all(
            p in self.names for p in re.findall(r"[A-Za-z_]\w*", node)
        ):
            return False
        return (
            (ROOT / path).exists()
            or ("/" not in path and path in self.files)
            or any(s.endswith(path) for s in self.strings)
        )


def _bound(node) -> set:
    """Names a statement binds in its scope."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [
            node.target
        ]
        return {
            n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)
        }
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {(a.asname or a.name).split(".")[0] for a in node.names}
    if isinstance(node, (ast.If, ast.Try)):
        return set().union(*(_bound(n) for n in ast.iter_child_nodes(node)))
    return set()


@lru_cache(maxsize=None)
def _benchmark_names() -> frozenset:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return frozenset(
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in bench[key]
    )


@pytest.fixture(scope="module")
def index():
    return _Index()


@pytest.fixture(scope="module")
def names():
    return doc_names()


def _unresolved(index, names: dict) -> list:
    return sorted(
        f"{where}: {name!r}"
        for (where, name), kind in names.items()
        if name not in ALLOWLIST
        and not (index.path_resolves(name) if kind == "path"
                 else index.resolves(name))
    )


def test_every_backticked_name_resolves(index, names):
    unresolved = _unresolved(index, names)
    assert not unresolved, "names the repo does not define:\n" + "\n".join(
        unresolved
    )


def test_every_src_cross_reference_resolves(index):
    unresolved = _unresolved(index, src_names())
    assert not unresolved, "cross-references to nothing:\n" + "\n".join(
        unresolved
    )


def test_role_targets_are_read_as_sphinx_reads_them(index):
    """``~``, leading dots and an explicit title do not hide a target; a
    target broken across lines, or naming removed code, does not resolve."""
    text = (":func:`~repro.core.cover.cover_grid` :meth:`.Planner.resolve` "
            ":meth:`key <repro.core.plan.PlanSpec.cache_key>` :mod:`tokenize`"
            " :func:`sparse_kernel_time_us` :func:`~repro.runtime.engine.\n"
            "run_transformer`")
    targets = role_targets(text)
    assert targets == [
        "repro.core.cover.cover_grid", "Planner.resolve",
        "repro.core.plan.PlanSpec.cache_key", "tokenize",
        "sparse_kernel_time_us", "repro.runtime.engine.\nrun_transformer",
    ]
    assert [index.resolves(t) for t in targets] == [
        True, True, True, False, False, False,
    ]


def test_allowlist_is_not_stale(index, names):
    names = {**names, **src_names()}
    used = {name for (_, name) in names}
    unused = sorted(set(ALLOWLIST) - used)
    assert not unused, f"allowlist entries nothing uses: {unused}"
    kinds = {name: kind for (_, name), kind in names.items()}
    redundant = sorted(
        name for name in ALLOWLIST
        if (index.path_resolves(name) if kinds[name] == "path"
            else index.resolves(name))
    )
    assert not redundant, f"allowlist entries that resolve: {redundant}"


def test_the_check_catches_a_removed_name(index):
    """Names of removed code do not resolve; live ones do."""
    for gone in ("RoutingResult", "scale_routings", "PlanSpec.permutation",
                 "repro.core.nm_permutation_candidates",
                 "benchmarks/bench_multiprocess_serving.py"):
        assert not (index.path_resolves(gone) if "/" in gone
                    else index.resolves(gone)), gone
    for live in ("RoutingTable.scaled", "repro.core.selection.PlanCache",
                 "PlanSpec.pattern", "ExecReport.__init__",
                 "benchmarks/bench_warm_calls.py"):
        assert (index.path_resolves(live) if "/" in live
                else index.resolves(live)), live
