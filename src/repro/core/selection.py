"""Kernel selection — Algorithm 1 of the paper.

Given sparsity samples of a dynamically sparse operator, iterate over every
dense computation tile in the TileDB and every feasible PIT-axis, derive the
micro-tile, run CoverAlgo on each sample, estimate the candidate's cost as
``num_tiles x tile_cost`` (plus detector/SRead surcharges), and return the
cheapest candidate.  A dense candidate (no transformation) competes too, so
low-sparsity inputs "seamlessly fall back to the dense computation".

Cover grids are cached per micro-tile shape: many (tile, axis) candidates
share a micro-tile, and Section 5.5's 30-100us online search budget rests on
avoiding redundant passes over the samples.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis.runtime_checks import make_lock
from ..hw.costmodel import TileConfig, sparse_matmul_time_us
from ..hw.spec import GPUSpec, dtype_bytes
from .cover import SampleStack, batched_matmul_workload, dense_matmul_workload
from .detector import index_construction_time_us
from .microtile import MicroTile
from .rules import matmul_rules
from .tiledb import TileDB


@dataclass(frozen=True)
class KernelChoice:
    """Algorithm 1's output: the best computation tile for the operator."""

    tile: TileConfig
    #: None means the dense fallback won.
    pit_axis: Optional[str]
    microtile: Optional[MicroTile]
    #: Estimated per-invocation cost of the winning kernel (microseconds).
    est_cost_us: float
    #: Mean sparsity ratio after covering with the winning micro-tile
    #: (Table 3's "Sparsity Ratio After Cover"); 0.0 for the dense fallback.
    covered_sparsity: float
    #: Wall-clock time the search itself took (microseconds) — Section 5.5
    #: reports 30-100us for the original CUDA implementation.
    search_time_us: float

    @property
    def is_dense_fallback(self) -> bool:
        return self.pit_axis is None

    def describe(self) -> str:
        if self.is_dense_fallback:
            return f"dense fallback, tile={self.tile.describe()}"
        return (
            f"axis={self.pit_axis}, micro-tile={self.microtile}, "
            f"tile={self.tile.describe()}, est={self.est_cost_us:.1f}us"
        )


@dataclass(frozen=True)
class PermutedChoice:
    """An nm-sparse plan: a kernel choice plus the channel permutation that
    won the composed search.

    PermLLM's observation is that the channel order is itself a plan-shaped
    decision: permuting the k-axis before N:M pruning changes which weights
    survive, and therefore the cover cost of every PIT rule.  The winning
    *concrete* permutation is part of the cached plan value (the spec only
    carries the search *policy*), so a warm resolve replays both the kernel
    and the channel order without re-searching.  ``permutation == ()``
    means identity — the search found reordering unprofitable.
    """

    choice: KernelChoice
    #: Concrete k-axis channel order (tuple of ints); () = identity.
    permutation: tuple
    #: The (n, m) structured-sparsity pattern the search projected onto.
    pattern: tuple

    def __post_init__(self) -> None:
        # Normalize sequences so equality/hashing don't depend on whether
        # the codec (or a caller) passed lists or tuples.
        object.__setattr__(
            self, "permutation", tuple(int(p) for p in self.permutation)
        )
        object.__setattr__(self, "pattern", tuple(int(p) for p in self.pattern))

    @property
    def est_cost_us(self) -> float:
        return self.choice.est_cost_us

    @property
    def is_dense_fallback(self) -> bool:
        return self.choice.is_dense_fallback

    @property
    def tile(self):
        return self.choice.tile

    @property
    def pit_axis(self):
        return self.choice.pit_axis

    @property
    def microtile(self):
        return self.choice.microtile

    def describe(self) -> str:
        perm = "identity" if not self.permutation else f"{len(self.permutation)}-perm"
        n, m = self.pattern
        return f"{n}:{m} {perm}, {self.choice.describe()}"


def _rule_workload_shape(rule, transposed: bool) -> tuple:
    """Canonical-orientation grid shape a rule's workload evaluation uses."""
    if rule.pit_axis in ("m", "n"):
        return (1, rule.tile.tk)
    return ((rule.tile.tn if transposed else rule.tile.tm), 1)


def _eval_rules(rules, stack: SampleStack, dense_extent: int,
                sparse_operand: str, tiledb: TileDB, profile_rules) -> list:
    """Score every rule on every stacked sample: Algorithm 1's one evaluator.

    All samples share one cover pyramid; each rule's workload is computed
    across the whole stack in one pooled-counts pass, and only the O(1)
    cost-model arithmetic runs per sample.  Returns
    ``[(rule, costs[S], covs[S]), ...]`` — one estimated cost and one
    covered sparsity per stacked sample.  :func:`kernel_selection` averages
    them per rule; the nm-sparse search stacks *permutation candidates x
    samples* and averages per (rule, candidate).
    """
    spec, dtype = tiledb.spec, tiledb.dtype
    transposed = sparse_operand == "B"
    need = []
    for rule in rules:
        need.append(_rule_workload_shape(rule, transposed))
        need.append(rule.microtile.shape)
    stack.prime(need, transposed=transposed)

    sample_shape = stack.sample_shape
    num_samples = stack.num_samples
    out = []
    for rule in rules:
        t0 = time.perf_counter() if profile_rules is not None else 0.0
        wls = batched_matmul_workload(
            stack, rule.tile, rule.pit_axis, dense_extent,
            sparse_operand=sparse_operand,
        )
        cover_counts = stack.num_microtiles(
            rule.microtile.shape, transposed=transposed
        )
        cover_cells = stack.grid_cells(
            rule.microtile.shape, transposed=transposed
        )
        contig = max(rule.microtile.shape) * dtype_bytes(dtype)
        costs = []
        covs = []
        for s in range(num_samples):
            wl = wls[s]
            detector = index_construction_time_us(
                sample_shape, dtype, spec, wl.num_microtiles
            )
            costs.append(sparse_matmul_time_us(
                wl.total_k_steps,
                wl.num_output_tiles,
                rule.tile,
                dtype,
                spec,
                tensor_core=tiledb.tensor_core,
                sread_contig_bytes=contig,
                detector_us=detector,
            ))
            covs.append(1.0 - float(cover_counts[s]) / max(1, cover_cells))
        if profile_rules is not None:
            profile_rules.append({
                "tile": rule.tile.describe(),
                "pit_axis": rule.pit_axis,
                "microtile": str(rule.microtile),
                "eval_us": (time.perf_counter() - t0) * 1e6,
                "mean_cost_us": _mean_in_sample_order(costs),
            })
        out.append((rule, costs, covs))
    return out


def _mean_in_sample_order(values) -> float:
    """Mean of per-sample values, summed first to last.

    numpy's pairwise summation regroups the additions from eight values on,
    which would move a cost's last bits (and, on a near-tie, the winner)
    with the sample count.
    """
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _dense_candidate(m: int, k: int, n: int, tiledb: TileDB) -> tuple:
    """The dense fallback's ``(tile, cost)``.

    Priced with the same wave-quantized formula as the sparse candidates so
    that rounding differences cannot flip the comparison; a dense-ish input
    must fall back (Section 3.2).
    """
    tile = tiledb.best_dense_tile(m, k, n).tile
    wl = dense_matmul_workload(m, k, n, tile)
    cost = sparse_matmul_time_us(
        wl.total_k_steps,
        wl.num_output_tiles,
        tile,
        tiledb.dtype,
        tiledb.spec,
        tensor_core=tiledb.tensor_core,
    )
    return tile, cost


def _settle(best, best_cost: float, best_cov: float, m: int, k: int, n: int,
            tiledb: TileDB, include_dense_fallback: bool, sparse_operand: str,
            start: float) -> KernelChoice:
    """The winning rule against the dense candidate, timed from ``start``.

    ``best`` is ``None`` when the tile database yielded no rule; the dense
    candidate then wins, or the search fails if the fallback is disabled.
    """
    if include_dense_fallback:
        tile, cost = _dense_candidate(m, k, n, tiledb)
        if cost <= best_cost:
            return KernelChoice(
                tile=tile,
                pit_axis=None,
                microtile=None,
                est_cost_us=cost,
                covered_sparsity=0.0,
                search_time_us=(time.perf_counter() - start) * 1e6,
            )
    elif best is None:
        raise ValueError(
            f"no feasible PIT rule for sparse operand {sparse_operand!r} "
            f"(the tile database yielded no candidates) and the dense "
            f"fallback is disabled"
        )
    return KernelChoice(
        tile=best.tile,
        pit_axis=best.pit_axis,
        microtile=best.microtile,
        est_cost_us=best_cost,
        covered_sparsity=best_cov,
        search_time_us=(time.perf_counter() - start) * 1e6,
    )


def kernel_selection(
    sparsity_samples,
    m: int,
    k: int,
    n: int,
    tiledb: TileDB,
    *,
    sparse_operand: str = "A",
    include_dense_fallback: bool = True,
    profile: Optional[dict] = None,
) -> KernelChoice:
    """Algorithm 1: pick the best (tile, PIT-axis, micro-tile) for an op.

    ``sparsity_samples`` is a list of boolean masks of the sparse operand
    (A: [m, k], B: [k, n]); the paper samples these from recent invocations
    of the dynamic operator.  Every candidate is evaluated through the
    cover-grid pyramid with all samples stacked into one batched pass, and
    its cost is the mean over the samples.  Pass a dict as ``profile`` to
    receive per-rule evaluation timings (``profile["rules"]``), so
    benchmarks can attribute where a cold search spends its time.
    """
    samples = [np.asarray(s, dtype=bool) for s in sparsity_samples]
    if not samples:
        raise ValueError("kernel selection needs at least one sparsity sample")
    expected = (m, k) if sparse_operand == "A" else (k, n)
    for s in samples:
        if s.shape != expected:
            raise ValueError(
                f"sample shape {s.shape} != sparse operand shape {expected}"
            )
    dense_extent = n if sparse_operand == "A" else m

    start = time.perf_counter()
    profile_rules = [] if profile is not None else None

    # foreach T in GetTilesFromTileDB x foreach A in GetPITAxis
    rules = matmul_rules(tiledb.tiles(), sparse_operand=sparse_operand)
    best, best_cost, best_cov = None, float("inf"), 0.0
    for rule, costs, covs in _eval_rules(
        rules, SampleStack(samples), dense_extent, sparse_operand, tiledb,
        profile_rules,
    ):
        cost = _mean_in_sample_order(costs)
        if cost < best_cost:
            best, best_cost, best_cov = rule, cost, _mean_in_sample_order(covs)

    choice = _settle(
        best, best_cost, best_cov, m, k, n, tiledb, include_dense_fallback,
        sparse_operand, start,
    )
    if profile is not None:
        profile.update({
            "num_rules": len(rules),
            "num_samples": len(samples),
            "rules": profile_rules,
            "total_us": choice.search_time_us,
        })
    return choice


def nm_permutation_candidates(samples, policy, k: int) -> list:
    """Deterministic k-axis channel-order candidates for the nm search.

    Always proposes identity (``None`` sentinel), a density sort (channels
    ordered by total non-zeros descending — clusters live channels so N:M
    groups keep them together), and a striped deal (density-sorted channels
    dealt round-robin across groups — balances each m-group's live count so
    fewer survivors are dropped).  A ``("learned", count, seed)`` policy
    adds ``count`` explicitly seeded random shuffles, the cheap stand-in
    for PermLLM's learned permutation.  Everything is a pure function of
    the samples and the policy, so the winning order is cacheable.
    """
    counts = np.zeros(k, dtype=np.int64)
    for s in samples:
        counts += np.asarray(s, dtype=bool).sum(axis=1, dtype=np.int64)
    dense_first = np.argsort(-counts, kind="stable")
    candidates = [None, tuple(int(c) for c in dense_first)]
    candidates.append(
        tuple(int(c) for c in dense_first[_striped_order(k)])
    )
    if policy:
        if policy[0] != "learned":
            raise ValueError(
                f"unknown nm permutation policy {policy[0]!r} "
                f"(expected 'learned')"
            )
        _, count, seed = policy
        rng = np.random.default_rng(int(seed))
        for _ in range(int(count)):
            candidates.append(tuple(int(c) for c in rng.permutation(k)))
    return candidates


def _striped_order(k: int) -> np.ndarray:
    """Indices that deal ``k`` sorted positions round-robin into sqrt-ish
    stripes, spreading the densest channels across the axis."""
    stripes = max(2, math.isqrt(k))
    keys = np.array([(i % stripes) * k + i // stripes for i in range(k)])
    return np.argsort(keys, kind="stable")


def nm_kernel_selection(
    sparsity_samples,
    m: int,
    k: int,
    n: int,
    tiledb: TileDB,
    *,
    pattern: tuple,
    permutation: tuple = (),
    include_dense_fallback: bool = True,
    profile: Optional[dict] = None,
) -> PermutedChoice:
    """Algorithm 1 composed with a channel-permutation search (nm-sparse).

    For every candidate permutation of the weight's k-axis, project the
    permuted mask onto the ``(n, m)`` structured pattern (N:M pruning keeps
    the densest ``n`` of every aligned ``m``-group), then evaluate every
    (tile, PIT-axis) rule over *all* candidates stacked into one
    :class:`SampleStack` — one ``[candidates x samples, G]`` pass per rule,
    the PR-3 batched-evaluation idiom.  The cheapest (rule, permutation)
    pair wins; the dense fallback competes exactly as in
    :func:`kernel_selection`.  The full tile database is searched — no
    candidate truncation.
    """
    from ..sparsity.masks import nm_prune_mask

    samples = [np.asarray(s, dtype=bool) for s in sparsity_samples]
    if not samples:
        raise ValueError("nm kernel selection needs at least one sample")
    for s in samples:
        if s.shape != (k, n):
            raise ValueError(
                f"sample shape {s.shape} != sparse operand shape {(k, n)}"
            )
    nn, mm = int(pattern[0]), int(pattern[1])
    if not 1 <= nn <= mm:
        raise ValueError(f"invalid N:M pattern {pattern!r}")
    if k % mm:
        raise ValueError(f"k={k} not divisible by N:M group size {mm}")

    start = time.perf_counter()
    profile_rules = [] if profile is not None else None
    candidates = nm_permutation_candidates(samples, permutation, k)
    stacked = []
    for perm in candidates:
        for s in samples:
            permuted = s if perm is None else s[np.asarray(perm), :]
            stacked.append(nm_prune_mask(permuted, nn, mm, axis=0))

    rules = matmul_rules(tiledb.tiles(), sparse_operand="B")
    per_rule = _eval_rules(
        rules, SampleStack(stacked), m, "B", tiledb, profile_rules
    )
    num_samples = len(samples)
    best_rule, best_perm_idx, best_cost, best_cov = None, 0, float("inf"), 0.0
    for rule, costs, covs in per_rule:
        shape = (len(candidates), num_samples)
        cand_costs = np.reshape(costs, shape).mean(axis=1)
        cand_covs = np.reshape(covs, shape).mean(axis=1)
        idx = int(np.argmin(cand_costs))
        if cand_costs[idx] < best_cost:
            best_rule = rule
            best_perm_idx = idx
            best_cost = float(cand_costs[idx])
            best_cov = float(cand_covs[idx])

    choice = _settle(
        best_rule, best_cost, best_cov, m, k, n, tiledb,
        include_dense_fallback, "B", start,
    )
    if profile is not None:
        profile.update({
            "num_rules": len(rules),
            "num_samples": num_samples,
            "num_candidates": len(candidates),
            "rules": profile_rules,
            "total_us": choice.search_time_us,
        })
    # A dense kernel has no channel order; None is the identity candidate.
    winning = None if choice.is_dense_fallback else candidates[best_perm_idx]
    return PermutedChoice(
        choice=choice, permutation=winning or (), pattern=(nn, mm)
    )


#: Default width of one sparsity-signature quantization bucket.  Masks whose
#: density statistics agree to within one bucket share a cached plan: the
#: selection landscape is flat at that resolution (neighbouring candidates'
#: costs differ by far more than a few percent of density), while patterns
#: that drift past it genuinely can flip the winning rule.
SIGNATURE_QUANTUM = 0.05


def sparsity_signature(sparsity_samples, *, quantum: float = SIGNATURE_QUANTUM):
    """Quantized sparsity signature of a sample set (a hashable tuple).

    Captures the three statistics Algorithm 1's outcome actually depends on:
    overall density, live-row fraction and live-column fraction (the latter
    two discriminate m-axis from k-axis granularity).  Each is quantized to
    ``quantum``-wide buckets so that invocation-to-invocation noise in a
    dynamic pattern maps to the same signature — the key property the
    :class:`PlanCache` needs (Figure 20: exact patterns almost never repeat,
    but their *statistics* are stable).
    """
    if quantum <= 0:
        raise ValueError("quantum must be positive")
    samples = [np.asarray(s, dtype=bool) for s in sparsity_samples]
    if not samples:
        raise ValueError("sparsity signature needs at least one sample")
    densities, row_lives, col_lives = [], [], []
    for s in samples:
        # Density and live-row fraction both derive from the per-row counts,
        # so each sample is reduced twice (rows, then a column any-mark)
        # instead of three full scans; the values are exactly the old ones.
        row_nnz = s.sum(axis=1, dtype=np.int64)
        densities.append(row_nnz.sum() / max(1, s.size))
        row_lives.append((row_nnz > 0).mean())
        col_lives.append(s.any(axis=0).mean())
    density = float(np.mean(densities))
    row_live = float(np.mean(row_lives))
    col_live = float(np.mean(col_lives))
    q = 1.0 / quantum
    return (
        int(round(density * q)),
        int(round(row_live * q)),
        int(round(col_live * q)),
    )


#: Default shard count for new caches.  Eight shards keep bookkeeping
#: contention negligible for the replica counts the serving stack runs
#: (lineups of 2-8) without fragmenting the LRU into uselessly small slices.
DEFAULT_PLAN_CACHE_SHARDS = 8


class _PlanCacheShard:
    """One lock domain of a :class:`PlanCache`.

    ``entries`` maps key -> ``[value, stamp]`` where ``stamp`` is a
    monotonically increasing recency counter shared by all shards, so a
    global LRU order can be reconstructed (for persistence and age-out)
    without any cross-shard coordination on the hot path.  ``inflight``
    holds one :class:`threading.Event` per key whose Algorithm 1 search is
    currently running — the single-flight protocol of
    :meth:`PlanCache.get_or_compute`.
    """

    __slots__ = ("entries", "lock", "hits", "misses", "evictions", "inflight")

    def __init__(self):
        self.entries: OrderedDict = OrderedDict()
        self.lock = make_lock("shard")
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.inflight: dict = {}


class PlanCacheLoadError(ValueError):
    """A plan-cache dump could not be parsed or decoded.

    Raised by :meth:`PlanCache.load` for *corruption* — truncated or
    invalid JSON, missing header fields, a ``capacity``, ``quantum`` or
    ``shards`` of the wrong type or range, undecodable entries — as distinct
    from the plain :class:`ValueError` it raises for a well-formed dump
    that is merely incompatible (unknown format version, foreign TileDB
    identity).  Subclasses ``ValueError`` so existing callers that guard
    ``load`` with one ``except`` keep working.
    """


class PlanCache:
    """Sharded, thread-safe LRU memo of kernel plans.

    The deployed PIT keeps its online search at 30-100us by reusing cover
    grids and pre-profiled tiles; a serving process goes one step further and
    reuses the whole Algorithm 1 *outcome* across requests whose dynamic
    patterns are statistically alike.  Entries map a
    :meth:`PlanSpec.cache_key <repro.core.plan.PlanSpec.cache_key>` to its
    plan (arbitrary plan objects are accepted — the PIT backend memoizes its
    activation-cover workloads here too, so one cache serves one process).

    Keys are routed to one of ``shards`` lock domains by their
    ``(plan kind, sparsity signature)`` so that concurrent replicas serving
    different traffic classes never contend on one lock, and
    :meth:`get_or_compute` runs cold searches *outside* the shard lock with
    single-flight deduplication — a cold Algorithm 1 search neither stalls
    warm lookups on other shards nor on its own shard, and concurrent
    requests for the same plan run the search exactly once.

    ``capacity`` bounds the total entry count; eviction pops the LRU entry
    of the shard an insert lands on (never the entry just inserted), so
    with entries spread across shards the cache can transiently exceed
    ``capacity`` by at most ``shards - 1``.  ``shards=1`` reproduces the
    pre-sharding cache decision-for-decision.
    """

    def __init__(
        self,
        capacity: int = 256,
        *,
        quantum: float = SIGNATURE_QUANTUM,
        shards: int = DEFAULT_PLAN_CACHE_SHARDS,
    ):
        # bool is an Integral, but a dump header saying `true` is corrupt.
        for name, value in (("capacity", capacity), ("shards", shards)):
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Integral)
                or value < 1
            ):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if (
            isinstance(quantum, bool)
            or not isinstance(quantum, numbers.Real)
            or not math.isfinite(quantum)
            or quantum <= 0
        ):
            raise ValueError(
                f"quantum must be a finite number > 0, got {quantum!r}"
            )
        self.capacity = capacity
        self.quantum = quantum
        self.shards = shards
        self._shard_list = [_PlanCacheShard() for _ in range(shards)]
        self._stamp = itertools.count()

    def __len__(self) -> int:
        # Sequential per-shard locking (never nested): the total is a
        # consistent-enough snapshot, and no cross-shard lock order exists.
        total = 0
        for s in self._shard_list:
            with s.lock:
                total += len(s.entries)
        return total

    def __contains__(self, key) -> bool:
        shard = self._shard_for(key)
        with shard.lock:
            return key in shard.entries

    # -- counters ---------------------------------------------------------

    @property
    def hits(self) -> int:
        total = 0
        for s in self._shard_list:
            with s.lock:
                total += s.hits
        return total

    @property
    def misses(self) -> int:
        total = 0
        for s in self._shard_list:
            with s.lock:
                total += s.misses
        return total

    @property
    def evictions(self) -> int:
        total = 0
        for s in self._shard_list:
            with s.lock:
                total += s.evictions
        return total

    # -- shard routing ----------------------------------------------------

    @staticmethod
    def _shard_token(key):
        """The (plan kind, signature) portion of a cache key.

        Recognizes the two key layouts :meth:`PlanSpec.cache_key
        <repro.core.plan.PlanSpec.cache_key>` produces — the 9-tuple
        ``("plan", kind, m, k, n, operand, signature, fallback, db)`` and
        the 11-tuple nm-sparse specs emit (same prefix, then ``pattern``
        and ``permutation`` before the db key), either optionally wrapped
        in a ``("memo", ...)`` namespace — and falls back to the whole key
        for ad-hoc entries.  A spec and its memos co-shard, which is what
        makes "different traffic never contends" hold.
        """
        body = key
        if isinstance(body, tuple) and body and body[0] == "memo":
            body = body[1:]
        if isinstance(body, tuple) and len(body) in (9, 11) and body[0] == "plan":
            return (body[1], body[6])
        return key

    def _shard_for(self, key) -> _PlanCacheShard:
        if self.shards == 1:
            return self._shard_list[0]
        token = self._shard_token(key)
        index = zlib.crc32(repr(token).encode("utf-8")) % self.shards
        return self._shard_list[index]

    # -- lookups ----------------------------------------------------------

    def get(self, key):
        """Look up a plan; counts a hit or a miss and refreshes recency."""
        shard = self._shard_for(key)
        with shard.lock:
            try:
                slot = shard.entries[key]
            except KeyError:
                shard.misses += 1
                return None
            shard.entries.move_to_end(key)
            slot[1] = next(self._stamp)
            shard.hits += 1
            return slot[0]

    def put(self, key, value) -> None:
        shard = self._shard_for(key)
        # Snapshot the other shards' sizes *before* taking the target
        # shard's lock: calling `len(self)` while holding it would nest
        # shard locks, and two inserts landing on different shards could
        # then deadlock by nesting in opposite order.  The snapshot may be
        # stale by the time we evict — the cache already tolerates a
        # transient overshoot of up to `shards - 1` entries (class
        # docstring), and single-threaded behavior is unchanged.
        other_entries = 0
        for s in self._shard_list:
            if s is not shard:
                with s.lock:
                    other_entries += len(s.entries)
        with shard.lock:
            shard.entries[key] = [value, next(self._stamp)]
            shard.entries.move_to_end(key)
            while (
                other_entries + len(shard.entries) > self.capacity
                and len(shard.entries) > 1
            ):
                shard.entries.popitem(last=False)
                shard.evictions += 1

    def entries(self):
        """Snapshot of ``(key, value)`` pairs in global LRU order.

        Sequential per-shard locking (never nested), same as ``__len__``:
        the stamps let the per-shard slices merge into one oldest-first
        order without any cross-shard lock.  This is the in-memory analogue
        of :meth:`save` — the cluster layer uses it to seed a new worker
        process with everything the host already knows.
        """
        stamped = []
        for s in self._shard_list:
            with s.lock:
                for key, (value, stamp) in s.entries.items():
                    stamped.append((stamp, key, value))
        stamped.sort(key=lambda item: item[0])
        return [(key, value) for _, key, value in stamped]

    def get_or_compute(self, key, compute):
        """Single-flight lookup-or-search; returns ``(value, hit)``.

        On a hit, behaves exactly like :meth:`get`.  On a miss, the caller
        becomes the *owner* of the search for ``key``: the shard lock is
        released while ``compute()`` runs, so warm lookups — even on the
        same shard — proceed during a cold Algorithm 1 search.  Concurrent
        callers for the same key wait on the owner's result and count a hit
        (the search ran once), so hit/miss totals match the sequential
        schedule.  If the owner's ``compute`` raises, waiters retry —
        exactly one of them becomes the next owner.
        """
        shard = self._shard_for(key)
        while True:
            with shard.lock:
                slot = shard.entries.get(key)
                if slot is not None:
                    shard.entries.move_to_end(key)
                    slot[1] = next(self._stamp)
                    shard.hits += 1
                    return slot[0], True
                waiter = shard.inflight.get(key)
                if waiter is None:
                    shard.inflight[key] = threading.Event()
                    shard.misses += 1
                    break
            # Another thread owns the search for this key; wait and re-check.
            waiter.wait()
        try:
            value = compute()
        except BaseException:
            with shard.lock:
                event = shard.inflight.pop(key, None)
            if event is not None:
                event.set()
            raise
        self.put(key, value)
        with shard.lock:
            event = shard.inflight.pop(key, None)
        if event is not None:
            event.set()
        return value, False

    #: On-disk dump format version; bumped whenever key/value encoding
    #: changes.  Format 2 adds the ``shards`` and multi-class
    #: ``tiledb_keys`` headers; format-1 dumps still load.
    DUMP_FORMAT = 2

    @staticmethod
    def _embedded_tiledb_key(key):
        """The TileDB identity a cache key carries, if any.

        Every plan and memo key ends in a
        :attr:`~repro.core.tiledb.TileDB.cache_key` — a 4-tuple led by a
        :class:`~repro.hw.spec.GPUSpec`.  Ad-hoc keys return ``None``.
        """
        if isinstance(key, tuple) and key:
            last = key[-1]
            if (
                isinstance(last, tuple)
                and len(last) == 4
                and isinstance(last[0], GPUSpec)
            ):
                return last
        return None

    def save(self, path, *, tiledb_key, max_entries: Optional[int] = None) -> dict:
        """Persist the cache to ``path`` as JSON.

        ``tiledb_key`` is the :attr:`~repro.core.tiledb.TileDB.cache_key`
        of the *primary* tile database the cached plans were selected
        against; it is recorded in the dump header so :meth:`load` can
        refuse a dump that was built over different tiles (such plans would
        silently misprice).  Mixed lineups cache plans for several device
        classes in one process-wide cache, so the header additionally
        records ``tiledb_keys`` — every class identity found among the
        saved entries — and :meth:`load` can validate against the full set.

        ``max_entries`` is the spill/age policy: when set, only the
        ``max_entries`` most recently used entries are persisted (global
        LRU order across shards) and the rest age out of the dump.  Replay
        against the dump stays zero-cold-search for every entry under the
        cap.

        Entries whose key or value cannot be serialized (ad-hoc objects a
        caller memoized) are skipped, not fatal.  Returns
        ``{"entries": saved, "skipped": skipped, "aged_out": aged_out}``.
        """
        import json

        from .plan import encode_value

        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be >= 0")

        items = []
        for shard in self._shard_list:
            with shard.lock:
                items.extend(
                    (slot[1], key, slot[0])
                    for key, slot in shard.entries.items()
                )
        items.sort(key=lambda item: item[0])  # oldest first
        aged_out = 0
        if max_entries is not None and len(items) > max_entries:
            aged_out = len(items) - max_entries
            items = items[aged_out:]

        primary = tuple(tiledb_key)
        class_keys = {primary: None}  # insertion-ordered set, primary first
        entries = []
        skipped = 0
        for _, key, value in items:
            try:
                entries.append(
                    {"key": encode_value(key), "value": encode_value(value)}
                )
            except TypeError:
                skipped += 1
                continue
            embedded = self._embedded_tiledb_key(key)
            if embedded is not None:
                class_keys.setdefault(embedded, None)
        payload = {
            "format": self.DUMP_FORMAT,
            "capacity": self.capacity,
            "quantum": self.quantum,
            "shards": self.shards,
            "tiledb_key": encode_value(primary),
            "tiledb_keys": [encode_value(k) for k in class_keys],
            "entries": entries,
        }
        # Write-then-rename so a crash (or a json.dump failure) mid-save
        # never leaves a truncated dump where a good one stood: readers see
        # either the old complete file or the new complete file.
        tmp_path = f"{path}.tmp"
        try:
            with open(tmp_path, "w") as f:
                json.dump(payload, f)
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise
        os.replace(tmp_path, path)
        return {"entries": len(entries), "skipped": skipped, "aged_out": aged_out}

    @classmethod
    def load(
        cls,
        path,
        *,
        expected_tiledb_key=None,
        expected_tiledb_keys=None,
        shards: Optional[int] = None,
    ) -> "PlanCache":
        """Revive a cache saved by :meth:`save` (fresh hit/miss counters).

        When ``expected_tiledb_key`` is given, the dump's recorded *primary*
        TileDB identity must match it exactly — a dump built against a
        different device/dtype/tile budget raises ``ValueError`` instead of
        silently serving plans that were selected over other tiles.

        When ``expected_tiledb_keys`` is given (a mixed lineup's full set of
        class identities), *every* class the dump contains must be in the
        expected set; a dump carrying plans for a foreign device class
        raises and names the offending class.

        ``shards`` overrides the revived cache's shard count (defaults to
        the dump header's, or the library default for format-1 dumps).
        """
        import json

        from .plan import decode_value

        try:
            with open(path) as f:
                payload = json.load(f)
        except json.JSONDecodeError as exc:
            raise PlanCacheLoadError(
                f"plan-cache dump {path} is not valid JSON "
                f"(truncated or corrupt dump?): {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise PlanCacheLoadError(
                f"plan-cache dump {path} must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        fmt = payload.get("format")
        if fmt not in (1, cls.DUMP_FORMAT):
            raise ValueError(
                f"unsupported plan-cache dump format {fmt!r} "
                f"(this build reads formats 1 and {cls.DUMP_FORMAT})"
            )
        try:
            dump_key = decode_value(payload["tiledb_key"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanCacheLoadError(
                f"plan-cache dump {path} has a missing or undecodable "
                f"tiledb_key header: {exc!r}"
            ) from exc
        if expected_tiledb_key is not None and dump_key != tuple(expected_tiledb_key):
            raise ValueError(
                f"plan-cache dump was built against TileDB {dump_key!r}, "
                f"which does not match the expected {tuple(expected_tiledb_key)!r}; "
                f"plans selected over different tiles are not transferable"
            )
        try:
            dump_keys = [
                decode_value(k)
                for k in payload.get("tiledb_keys", [payload["tiledb_key"]])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanCacheLoadError(
                f"plan-cache dump {path} has an undecodable tiledb_keys "
                f"header: {exc!r}"
            ) from exc
        if expected_tiledb_keys is not None:
            allowed = {tuple(k) for k in expected_tiledb_keys}
            foreign = [k for k in dump_keys if tuple(k) not in allowed]
            if foreign:
                raise ValueError(
                    f"plan-cache dump contains plans selected against TileDB "
                    f"{foreign[0]!r}, which does not match any expected device "
                    f"class; plans selected over different tiles are not "
                    f"transferable"
                )
        if shards is None:
            shards = payload.get("shards", DEFAULT_PLAN_CACHE_SHARDS)
        try:
            capacity = payload["capacity"]
            quantum = payload["quantum"]
            raw_entries = payload["entries"]
        except KeyError as exc:
            raise PlanCacheLoadError(
                f"plan-cache dump {path} is missing required header "
                f"field {exc}"
            ) from exc
        try:
            cache = cls(capacity, quantum=quantum, shards=shards)
        except ValueError as exc:
            raise PlanCacheLoadError(
                f"plan-cache dump {path} cannot be revived: {exc}"
            ) from exc
        # Entries were dumped oldest-first, so inserting in file order
        # rebuilds the global recency order exactly.
        for position, entry in enumerate(raw_entries):
            try:
                key = decode_value(entry["key"])
                value = decode_value(entry["value"])
            except (KeyError, TypeError, ValueError) as exc:
                raise PlanCacheLoadError(
                    f"plan-cache dump {path} entry {position} is "
                    f"undecodable: {exc!r}"
                ) from exc
            shard = cache._shard_for(key)
            with shard.lock:
                shard.entries[key] = [value, next(cache._stamp)]
        return cache

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "size": len(self),
            "capacity": self.capacity,
            "shards": self.shards,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def clear(self) -> None:
        for shard in self._shard_list:
            with shard.lock:
                shard.entries.clear()
