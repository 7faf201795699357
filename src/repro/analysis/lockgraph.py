"""Static lock analysis: acquisition sites, held-lock walking, order graph.

Locks are recognized in two shapes, matching the repo's two idioms:

* **registry locks** — module-level names ending in ``_LOCK``
  (``_INSTANCE_CACHE_LOCK``, the TileDB registry's).  Their *order class*
  is the normalized name (``instance_cache``), the same string the runtime
  debug-lock factory tags them with.
* **shard locks** — ``<shard>.lock`` attributes, where ``<shard>`` is a
  variable the analyzer can see holding a :class:`_PlanCacheShard`
  (assigned from ``._shard_for(...)``, iterated out of ``._shard_list``,
  or ``self`` inside a ``*Shard`` class).  All shard locks share the one
  order class ``shard``: any nesting of two of them is a deadlock risk,
  because two threads can nest them in opposite shard order.

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

from .astutil import FunctionInfo, iter_functions

#: Attributes that make up a shard's lock-guarded mutable state.
SHARD_STATE_ATTRS = frozenset(
    {"entries", "inflight", "hits", "misses", "evictions"}
)


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


def infer_shard_vars(info: FunctionInfo) -> set:
    """Names bound to ``_PlanCacheShard``-like objects in one function."""
    shard_vars: set = set()
    if info.class_name and info.class_name.endswith("Shard"):
        shard_vars.add("self")

    def from_shard_expr(value) -> bool:
        # x = <expr>._shard_for(...)
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "_shard_for"
        ):
            return True
        # x = <expr>._shard_list[i]
        if (
            isinstance(value, ast.Subscript)
            and isinstance(value.value, ast.Attribute)
            and value.value.attr == "_shard_list"
        ):
            return True
        return False

    def iter_is_shard_list(value) -> bool:
        return (
            isinstance(value, ast.Attribute) and value.attr == "_shard_list"
        )

    for node in ast.walk(info.node):
        if isinstance(node, ast.Assign) and from_shard_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    shard_vars.add(target.id)
        elif isinstance(node, ast.For) and iter_is_shard_list(node.iter):
            if isinstance(node.target, ast.Name):
                shard_vars.add(node.target.id)
        elif isinstance(node, ast.comprehension) and iter_is_shard_list(
            node.iter
        ):
            if isinstance(node.target, ast.Name):
                shard_vars.add(node.target.id)
    return shard_vars


@dataclass(frozen=True)
class LockRef:
    """One recognized lock expression.

    ``order_class`` is the graph node; ``token`` identifies the concrete
    guard for discipline checks — ``("name", "_X_LOCK")`` for registry
    locks, ``("attr", "<base var>")`` for attribute locks, so holding
    ``a.lock`` is not mistaken for holding ``b.lock``.
    """

    order_class: str
    token: tuple


def classify_lock(expr, shard_vars) -> Optional[LockRef]:
    """Recognize ``with <expr>`` as a lock acquisition, or return None."""
    if isinstance(expr, ast.Name) and expr.id.upper().endswith("_LOCK"):
        return LockRef(normalize_lock_name(expr.id), ("name", expr.id))
    if isinstance(expr, ast.Attribute) and expr.attr == "lock":
        if isinstance(expr.value, ast.Name):
            base = expr.value.id
            order = "shard" if base in shard_vars else f"{base}.lock"
            return LockRef(order, ("attr", base))
        return LockRef("anonymous.lock", ("attr", "<expr>"))
    return None


def walk_held(info: FunctionInfo):
    """Yield ``(node, held)`` for every node in one function body.

    ``held`` is the tuple of :class:`LockRef` acquired by enclosing
    ``with`` statements at that point.  Nested function/class definitions
    are not entered — they run in their own (lock-free, analyzed
    separately) context, not at the definition site.
    """
    shard_vars = infer_shard_vars(info)
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
                ref = classify_lock(item.context_expr, shard_vars)
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
        for node, held in walk_held(info):
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
