"""The tile database (Sections 3.2 and 4).

PIT "creates a database of sparse kernels, each of which applies PIT
transformations on one PIT-axis of an operator", backed by dense computation
tiles whose costs were profiled offline once per operator and GPU.  The
original system stores ~1,500 generated kernels over ~500 dense tiles; this
build enumerates dense matmul tiles on the analytical device model
(:mod:`repro.hw.profiler`) and serves the same three queries Algorithm 1
needs:

* ``GetTilesFromTileDB`` — candidate dense computation tiles (with costs),
* per-tile step/fixed cost lookups (``T.tile_cost`` in Algorithm 1),
* the best dense tile for a given problem shape (the fallback candidate).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from ..analysis.runtime_checks import make_lock
from ..hw.costmodel import TileConfig
from ..hw.profiler import TileProfile, profile_matmul_tiles
from ..hw.spec import GPUSpec


@dataclass(frozen=True)
class TileEntry:
    """One dense computation tile with its profiled cost coefficients."""

    tile: TileConfig
    #: Profiled latency of one K-step (microseconds).
    step_us: float
    #: Profiled fixed per-tile latency (output write + scheduling).
    fixed_us: float
    #: Whether the tile decomposes into wmma fragments (fp16 Tensor Core).
    tensor_core_ok: bool

    def tile_cost_us(self, k_extent: int) -> float:
        """Algorithm 1's ``T.tile_cost`` for a tile walking ``k_extent``."""
        steps = math.ceil(k_extent / self.tile.tk)
        return steps * self.step_us + self.fixed_us


#: Shared TileDB instances per (device, dtype, tensor_core) — see
#: :meth:`TileDB.shared`.
_INSTANCE_CACHE: dict = {}
_INSTANCE_CACHE_LOCK = make_lock("instance_cache", reentrant=False)
_INSTANCE_CACHE_PID = os.getpid()


def _reset_shared_after_fork() -> None:
    """Drop the registry when the pid changes (i.e. after a fork).

    A forked worker inherits the module-level registry by memory copy; it
    must profile and own its *own* tile databases rather than silently
    aliasing the parent's, and the inherited lock may be held by a parent
    thread that does not exist in the child.  Runs lock-free on purpose
    (see the pragma below).
    """
    global _INSTANCE_CACHE_PID, _INSTANCE_CACHE, _INSTANCE_CACHE_LOCK
    if os.getpid() == _INSTANCE_CACHE_PID:
        return
    _INSTANCE_CACHE_PID = os.getpid()
    # pit: allow[lock-discipline] - post-fork reset runs before the child
    # spawns any thread; the inherited lock is unusable, so the registry
    # and its lock are rebuilt together.
    _INSTANCE_CACHE = {}
    _INSTANCE_CACHE_LOCK = make_lock("instance_cache", reentrant=False)


class TileDB:
    """Profiled dense-tile database for one (device, dtype) pair."""

    #: Profiled tiles kept, best efficiency first.
    MAX_TILES = 24

    def __init__(
        self, spec: GPUSpec, dtype: str = "float32", *, tensor_core: bool = False
    ):
        self.spec = spec
        self.dtype = dtype
        self.tensor_core = tensor_core
        profiles = profile_matmul_tiles(spec, dtype, tensor_core=tensor_core)
        self._entries = [self._to_entry(p) for p in profiles[:self.MAX_TILES]]
        #: ``best_dense_tile`` results per ``(m, k, n)``; see there.
        self._best_dense: dict = {}
        #: Algorithm 1's rule tables per sparse operand; see ``_rule_table``.
        self._rule_tables: dict = {}
        if not self._entries:
            raise RuntimeError(
                f"offline profiling produced no feasible tiles for "
                f"{spec.name}/{dtype} (tensor_core={tensor_core})"
            )

    @property
    def cache_key(self) -> tuple:
        """Hashable identity of this database's contents.

        Two databases with equal keys were built from the same profiles, so
        plans selected against one are valid against the other — this is the
        ``tiledb_key`` component of :class:`~repro.core.selection.PlanCache`
        keys.  The full (frozen, hashable) :class:`GPUSpec` participates, so
        two same-named specs with different parameters never collide.
        """
        return (self.spec, self.dtype, self.tensor_core, self.MAX_TILES)

    @classmethod
    def shared(
        cls, spec: GPUSpec, dtype: str = "float32", *, tensor_core: bool = False
    ) -> "TileDB":
        """The process-wide instance for this configuration.

        Offline profiling runs once per (device, dtype, tensor_core) — but
        entry conversion and instance construction used to repeat for every
        backend/compiler; a serving process builds backends per batch, so the
        instances themselves are shared too.  Registry access is serialized:
        the live front end constructs per-worker backends concurrently, and
        all of them must observe one profiled instance.
        """
        _reset_shared_after_fork()
        key = (spec, dtype, tensor_core)
        with _INSTANCE_CACHE_LOCK:
            if key not in _INSTANCE_CACHE:
                _INSTANCE_CACHE[key] = cls(spec, dtype, tensor_core=tensor_core)
            return _INSTANCE_CACHE[key]

    def _to_entry(self, profile: TileProfile) -> TileEntry:
        tk = profile.tile.tk
        step_us = profile.time_per_k_us * tk
        return TileEntry(
            tile=profile.tile,
            step_us=step_us,
            fixed_us=profile.fixed_us,
            tensor_core_ok=profile.tensor_core_ok,
        )

    def tiles(self) -> list:
        """``GetTilesFromTileDB``: candidate tiles, best efficiency first."""
        return list(self._entries)

    def best_dense_tile(self, m: int, k: int, n: int) -> TileEntry:
        """The dense tile minimizing full-dense latency for this shape.

        Used both for the dense-fallback candidate of Algorithm 1 and by the
        dense baselines.  Memoized per ``(m, k, n)`` on the instance: the
        pricing hot path asks for the same few shapes on every batch.  The
        keys are bounded by the distinct token counts a process serves
        (at most ``max_batch_tokens``) times the model dimensions.  The
        memo needs no lock: a racing thread that misses recomputes the same
        pure scan and stores the same entry.
        """
        key = (m, k, n)
        best = self._best_dense.get(key)
        if best is None:
            best_cost = float("inf")
            for entry in self._entries:
                tiles_m = math.ceil(m / entry.tile.tm)
                tiles_n = math.ceil(n / entry.tile.tn)
                waves = math.ceil(tiles_m * tiles_n / self.spec.num_sms)
                cost = waves * entry.tile_cost_us(k)
                if cost < best_cost:
                    best, best_cost = entry, cost
            self._best_dense[key] = best
        return best
