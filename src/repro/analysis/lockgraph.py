"""Static lock analysis: acquisition sites, held-lock walking, order graph.

Locks are recognized in two shapes, matching the repo's two idioms:

* **registry locks** — module-level names ending in ``_LOCK``
  (``_INSTANCE_CACHE_LOCK``, the TileDB registry's).  Their *order class*
  is the normalized name (``instance_cache``), the same string the runtime
  debug-lock factory tags them with.
* **instance locks** — attributes a class assigns from
  ``make_lock("<order class>")``, such as the plan cache's
  ``self._lock = make_lock("plan_cache", ...)``.  Their order class is the
  tag the class hands :func:`~repro.analysis.runtime_checks.make_lock`.

Each shape declares the state it guards by naming convention: ``_X`` is
guarded by its sibling ``_X_LOCK`` (:func:`guarded_globals`), and a
class's ``self._lock`` guards every other private attribute its
``__init__`` assigns (:func:`instance_locks`).

The **lock-order graph** has one node per order class and an edge
``A -> B`` wherever code acquires ``B`` while holding ``A`` — lexically,
or through a call whose (transitively resolved, same-module) callee
acquires ``B``.  The serving stack's invariant is that this graph is
*acyclic*; the runtime verifier
(:mod:`repro.analysis.runtime_checks`) asserts that the dynamically
observed edges are a subset of the static ones.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from .astutil import FunctionInfo, dotted_name, iter_functions

#: The instance-lock attribute that guards its class's private state.
STATE_LOCK_ATTR = "_lock"


def normalize_lock_name(name: str) -> str:
    """``_INSTANCE_CACHE_LOCK`` -> ``instance_cache``.

    The same class string :func:`repro.analysis.runtime_checks.make_lock`
    callers pass explicitly, so static and dynamic graphs share a node
    vocabulary.
    """
    stripped = name.strip("_")
    if stripped.upper().endswith("LOCK"):
        stripped = stripped[: -len("LOCK")].rstrip("_")
    return stripped.lower()


def _make_lock_tag(value) -> Optional[str]:
    """The order class of a ``make_lock("<class>", ...)`` call, else None."""
    if (
        isinstance(value, ast.Call)
        and (dotted_name(value.func) or "").endswith("make_lock")
        and value.args
        and isinstance(value.args[0], ast.Constant)
    ):
        return value.args[0].value
    return None


def _init_assignments(tree: ast.Module):
    """``(class, attribute, value)`` for each ``self.<attr> = value`` in a
    class's ``__init__``."""
    for info in iter_functions(tree):
        if info.name != "__init__" or info.class_name is None:
            continue
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield info.class_name, target.attr, node.value


def instance_locks(tree: ast.Module) -> tuple:
    """One module's instance locks and the state they guard.

    Returns ``(locks, guarded)``.  ``locks`` is ``{class name: {lock
    attribute: order class}}`` for every ``self.<attr> =
    make_lock("<class>", ...)`` in a class's ``__init__``.  ``guarded`` is
    the class-level twin of :func:`guarded_globals`: a class whose
    ``__init__`` makes ``self._lock`` declares that every other private
    attribute ``__init__`` assigns (the plan cache's ``_entries``,
    ``_inflight`` and counters) is touched only while holding it.
    """
    assigned = list(_init_assignments(tree))
    locks: dict = {}
    for cls, attr, value in assigned:
        if (tag := _make_lock_tag(value)) is not None:
            locks.setdefault(cls, {})[attr] = tag
    guarded: dict = {}
    for cls, attr, _ in assigned:
        owned = locks.get(cls, {})
        if STATE_LOCK_ATTR in owned and attr[0] == "_" and attr not in owned:
            guarded.setdefault(cls, set()).add(attr)
    return locks, guarded


@dataclass(frozen=True)
class LockRef:
    """One recognized lock expression.

    ``order_class`` is the graph node; ``token`` identifies the concrete
    guard for discipline checks — ``("name", "_X_LOCK")`` for registry
    locks, ``("attr", "<base var>", "<attribute>")`` for instance locks, so
    holding ``a._lock`` is not mistaken for holding ``b._lock``.
    """

    order_class: str
    token: tuple


def classify_lock(expr, class_locks: dict) -> Optional[LockRef]:
    """Recognize ``with <expr>`` as a lock acquisition, or return None;
    ``class_locks`` is the enclosing class's entry in the ``locks`` map of
    :func:`instance_locks`."""
    if isinstance(expr, ast.Name) and expr.id.upper().endswith("_LOCK"):
        return LockRef(normalize_lock_name(expr.id), ("name", expr.id))
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.attr in class_locks
    ):
        return LockRef(
            class_locks[expr.attr], ("attr", expr.value.id, expr.attr)
        )
    return None


def walk_held(info: FunctionInfo, locks: Optional[dict] = None):
    """Yield ``(node, held)`` for every node in one function body.

    ``held`` is the tuple of :class:`LockRef` acquired by enclosing
    ``with`` statements at that point (instance locks per the module's
    ``locks`` map from :func:`instance_locks`).  Nested function/class
    definitions are not entered — they run in their own (lock-free,
    analyzed separately) context, not at the definition site.
    """
    class_locks = (locks or {}).get(info.class_name, {})
    out: list = []

    def visit(node, held):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(node, ast.Lambda):
            return
        out.append((node, held))
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = []
            for item in node.items:
                visit(item.context_expr, held)
                ref = classify_lock(item.context_expr, class_locks)
                if ref is not None:
                    acquired.append(ref)
                    out.append((("acquire", ref, item.context_expr), held))
                if item.optional_vars is not None:
                    visit(item.optional_vars, held)
            inner = held + tuple(acquired)
            for child in node.body:
                visit(child, inner)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    for child in info.node.body:
        visit(child, ())
    return out


def guarded_globals(tree: ast.Module) -> dict:
    """Module globals with a companion ``<name>_LOCK`` sibling.

    Returns ``{global_name: lock_name}``.  The convention is the contract:
    defining ``_X`` next to ``_X_LOCK`` declares that every access to
    ``_X`` must hold ``_X_LOCK``.
    """
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return {
        name: f"{name}_LOCK"
        for name in names
        if not name.upper().endswith("_LOCK") and f"{name}_LOCK" in names
    }


# ----------------------------------------------------------------------
# The lock-order graph
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LockEdge:
    """``held -> acquired`` at one site."""

    held: str
    acquired: str
    path: str
    line: int


def _callee_keys(call: ast.Call, enclosing_class: Optional[str]) -> list:
    """Resolution keys for a call site (same-module, name-based).

    Attribute calls resolve only on ``self``/``cls`` receivers: resolving
    any ``x.get(...)`` to every method named ``get`` in the module would
    conflate dict lookups with :meth:`PlanCache.get` and manufacture
    phantom lock edges.  Calls on other receivers are treated as lock-free
    — the runtime verifier covers the gap.
    """
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "cls" and enclosing_class:
            return [("class", enclosing_class)]
        return [("func", func.id), ("class", func.id)]
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id == "self":
            return [("method", func.attr)]
        if func.value.id == "cls" and enclosing_class:
            return [("method", func.attr)]
    return []


def _module_lock_facts(module) -> tuple:
    """Per-function direct acquisitions and call sites for one module."""
    functions = iter_functions(module.tree)
    locks, _ = instance_locks(module.tree)
    facts = {}
    tables: dict = {"func": {}, "method": {}, "class": {}}
    for info in functions:
        if info.class_name is None:
            tables["func"].setdefault(info.name, []).append(info)
        else:
            tables["method"].setdefault(info.name, []).append(info)
            if info.name == "__init__":
                tables["class"].setdefault(info.class_name, []).append(info)
    for info in functions:
        direct: list = []  # (order_class, line)
        calls: list = []  # (held order classes, callee keys, line)
        for node, held in walk_held(info, locks):
            if isinstance(node, tuple) and node[0] == "acquire":
                _, ref, expr = node
                direct.append((ref.order_class, expr.lineno, held))
            elif isinstance(node, ast.Call) and held:
                calls.append(
                    (
                        tuple(ref.order_class for ref in held),
                        _callee_keys(node, info.class_name),
                        node.lineno,
                    )
                )
        facts[id(info.node)] = (info, direct, calls)
    return facts, tables


def build_lock_graph(corpus) -> tuple:
    """The corpus-wide lock-order graph: ``(nodes, edges)``.

    Call expansion is same-module and name-based: a call made while
    holding lock ``A`` contributes an edge to every lock class the callee
    (or anything it transitively calls, within the module) acquires.
    Cross-module calls are treated as lock-free — the repo's lock domains
    are module-local by design, and the runtime verifier would surface a
    violation of that assumption.
    """
    nodes: set = set()
    edges: set = set()
    for module in corpus:
        facts, tables = _module_lock_facts(module)

        def resolve(keys) -> list:
            found = []
            for kind, name in keys:
                for info in tables[kind].get(name, []):
                    found.append(info)
            return found

        # Fixpoint: lock classes each function acquires, including through
        # same-module callees.
        acquired = {
            fid: {cls for cls, _, _ in direct}
            for fid, (_, direct, _) in facts.items()
        }
        changed = True
        while changed:
            changed = False
            for fid, (_, _, calls) in facts.items():
                for _, keys, _ in calls:
                    for callee in resolve(keys):
                        extra = acquired.get(id(callee.node), set())
                        if not extra <= acquired[fid]:
                            acquired[fid] |= extra
                            changed = True

        for fid, (info, direct, calls) in facts.items():
            for cls, line, held in direct:
                nodes.add(cls)
                for ref in held:
                    edges.add(LockEdge(ref.order_class, cls, module.path, line))
            for held_classes, keys, line in calls:
                callee_locks: set = set()
                for callee in resolve(keys):
                    callee_locks |= acquired.get(id(callee.node), set())
                for cls in callee_locks:
                    nodes.add(cls)
                    for held_cls in held_classes:
                        edges.add(LockEdge(held_cls, cls, module.path, line))
    return nodes, edges


def find_cycles(edges) -> list:
    """Cycles in the order graph, as node paths (``[a, b, a]``)."""
    graph: dict = {}
    for edge in edges:
        graph.setdefault(edge.held, set()).add(edge.acquired)
    cycles: list = []
    seen_cycles: set = set()

    def dfs(node, stack, on_stack):
        for succ in sorted(graph.get(node, ())):
            if succ in on_stack:
                cycle = stack[stack.index(succ):] + [succ]
                key = frozenset(cycle)
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    cycles.append(cycle)
                continue
            dfs(succ, stack + [succ], on_stack | {succ})

    for start in sorted(graph):
        dfs(start, [start], {start})
    return cycles


def static_lock_order(corpus) -> dict:
    """Graph summary for reports and the runtime-verifier comparison."""
    nodes, edges = build_lock_graph(corpus)
    return {
        "nodes": sorted(nodes),
        "edges": sorted({(e.held, e.acquired) for e in edges}),
        "cycles": find_cycles(edges),
    }
