"""Dynamic lock-order verification: the runtime half of ``lock-discipline``.

The static analyzer derives the lock-order graph the code *can* produce
(:func:`repro.analysis.lockgraph.build_lock_graph`); this module observes
the graph the code *does* produce.  Under ``REPRO_DEBUG_LOCKS=1``,
:func:`make_lock` hands out :class:`DebugLock` instances that

* keep a per-thread stack of currently held locks,
* record an order edge ``held -> acquired`` for every nested acquisition
  (reentrant re-acquisition of the *same* lock object records nothing),
* raise :class:`LockOrderError` *before* acquiring when the new edge
  would close a cycle in the observed graph — a deadlock caught at test
  time instead of a hang in production.

Tests then assert the observed edges are a subset of the statically
derived ones (:func:`verify_against_static`): the analyzer's
over-approximation must cover everything reality does.

Without the environment variable, :func:`make_lock` returns plain
``threading`` primitives — zero overhead on the serving hot path.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

ENV_VAR = "REPRO_DEBUG_LOCKS"


def debug_locks_enabled() -> bool:
    return os.environ.get(ENV_VAR, "") == "1"


class LockOrderError(RuntimeError):
    """A lock acquisition that would close an order cycle."""


_STATE_LOCK = threading.Lock()
#: (held_class, acquired_class) -> times observed.
_OBSERVED: dict = {}
_HELD = threading.local()


def reset_observed() -> None:
    with _STATE_LOCK:
        _OBSERVED.clear()


def observed_edges() -> set:
    """Every ``(held, acquired)`` order edge recorded so far."""
    with _STATE_LOCK:
        return set(_OBSERVED)


def _would_cycle(held_class: str, acquired_class: str) -> list:
    """The cycle the new edge would close, or [] (under _STATE_LOCK)."""
    if held_class == acquired_class:
        return [held_class, acquired_class]
    graph: dict = {}
    for held, acquired in _OBSERVED:
        graph.setdefault(held, set()).add(acquired)
    # A cycle appears iff held_class is already reachable from
    # acquired_class.
    stack, seen, parent = [acquired_class], set(), {}
    while stack:
        node = stack.pop()
        if node == held_class:
            path = [node]
            while path[-1] != acquired_class:
                path.append(parent[path[-1]])
            return [held_class, acquired_class] + path[-2::-1]
        if node in seen:
            continue
        seen.add(node)
        for succ in graph.get(node, ()):
            parent.setdefault(succ, node)
            stack.append(succ)
    return []


class DebugLock:
    """A lock that audits acquisition order (see module docstring)."""

    def __init__(self, order_class: str, *, reentrant: bool = True):
        self.order_class = order_class
        self._lock = threading.RLock() if reentrant else threading.Lock()

    def _stack(self) -> list:
        stack = getattr(_HELD, "stack", None)
        if stack is None:
            stack = _HELD.stack = []
        return stack

    def _check_and_record(self) -> None:
        stack = self._stack()
        new_edges = []
        for held in stack:
            if held is self:
                # Reentrant re-acquisition: no ordering implied.
                return
        for held in stack:
            # A distinct lock of the *same* class still makes an edge — a
            # self-loop in the order graph, i.e. a deadlock candidate.
            new_edges.append((held.order_class, self.order_class))
        with _STATE_LOCK:
            for edge in new_edges:
                cycle = _would_cycle(*edge)
                if cycle:
                    raise LockOrderError(
                        f"acquiring lock class `{self.order_class}` while "
                        f"holding `{edge[0]}` closes the order cycle "
                        + " -> ".join(cycle)
                    )
            for edge in new_edges:
                _OBSERVED[edge] = _OBSERVED.get(edge, 0) + 1

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        # Order is audited before blocking: a cycle must raise, not hang.
        self._check_and_record()
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._stack().append(self)
        return acquired

    def release(self) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is self:
                del stack[index]
                break
        self._lock.release()

    def __enter__(self) -> "DebugLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


def make_lock(order_class: str, *, reentrant: bool = True):
    """A lock tagged with its order class.

    Plain ``threading`` primitive unless ``REPRO_DEBUG_LOCKS=1`` — callers
    pay nothing for the audit capability in production.  ``order_class``
    must match the static analyzer's vocabulary
    (:func:`repro.analysis.lockgraph.normalize_lock_name` for registry
    locks, ``"shard"`` for plan-cache shards).
    """
    if debug_locks_enabled():
        return DebugLock(order_class, reentrant=reentrant)
    return threading.RLock() if reentrant else threading.Lock()


def verify_against_static(static_edges) -> list:
    """Observed order edges the static graph does not predict.

    Empty means the two halves of the lock-discipline story agree: the
    statically derived graph covers every acquisition order reality
    produced.  ``static_edges`` accepts ``(held, acquired)`` tuples or
    :class:`~repro.analysis.lockgraph.LockEdge` objects.
    """
    allowed = set()
    for edge in static_edges:
        if hasattr(edge, "held"):
            allowed.add((edge.held, edge.acquired))
        else:
            allowed.add((edge[0], edge[1]))
    return sorted(set(observed_edges()) - allowed)


@contextmanager
def debug_locks_installed():
    """Force debug locks on for a block (tests).

    Sets the environment variable (so shard locks created inside the block
    are :class:`DebugLock`), swaps the TileDB registry lock for an audited
    one, resets the observed-edge record, and restores everything after.
    """
    from ..core import tiledb

    previous_env = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = "1"
    previous_tile_lock = tiledb._INSTANCE_CACHE_LOCK
    tiledb._INSTANCE_CACHE_LOCK = DebugLock("instance_cache")
    reset_observed()
    try:
        yield
    finally:
        tiledb._INSTANCE_CACHE_LOCK = previous_tile_lock
        if previous_env is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous_env
