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

import math
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis.runtime_checks import make_lock
from ..hw.costmodel import TileConfig, sparse_matmul_time_us
from ..sparsity.attention import SIGNATURE_QUANTUM
from .cover import SampleStack
from .kernels import _RuleTable
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
    *concrete* permutation is part of the cached plan value (the spec names
    only the pattern), so a warm resolve replays both the kernel and the
    channel order without re-searching.  ``permutation == ()`` means
    identity — the search found reordering unprofitable.
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


def _rule_table(tiledb: TileDB, sparse_operand: str) -> tuple:
    """``(rules, table)`` of a TileDB over one sparse operand, built at the
    first search and memoized on the TileDB.  Lock-free like
    :meth:`TileDB.best_dense_tile`: a racing miss builds an equal table."""
    got = tiledb._rule_tables.get(sparse_operand)
    if got is None:
        # foreach T in GetTilesFromTileDB x foreach A in GetPITAxis
        rules = matmul_rules(tiledb.tiles(), sparse_operand=sparse_operand)
        got = tiledb._rule_tables[sparse_operand] = (rules, _RuleTable(
            rules, sparse_operand, tiledb.spec, tiledb.dtype,
            tiledb.tensor_core,
        ))
    return got


def _mean_in_sample_order(values: np.ndarray) -> np.ndarray:
    """Per-rule mean of ``[R, S]`` per-sample values, summed first to last.

    numpy's pairwise summation regroups the additions from eight values on,
    which would move a cost's last bits (and, on a near-tie, the winner)
    with the sample count.
    """
    total = np.zeros(values.shape[0])
    for column in values.T:
        total += column
    return total / values.shape[1]


def _covered_sparsity(counts: tuple) -> np.ndarray:
    """``[R, S]`` sparsity after covering with each rule's micro-tile."""
    _, _, micro, cells = counts
    return 1.0 - micro / np.maximum(1, cells)[:, np.newaxis]


def _profile_stages(profile, rules, mean_costs, start: float, covered: float,
                    choice: KernelChoice, num_samples: int) -> None:
    """Fill a search's ``profile``: the cover stage (pyramid and pooled
    counts), the score stage (array pricing, argmin, dense candidate) and
    each rule's mean cost."""
    cover_us = (covered - start) * 1e6
    profile.update(
        num_rules=len(rules), num_samples=num_samples, cover_us=cover_us,
        score_us=choice.search_time_us - cover_us,
        total_us=choice.search_time_us,
        rules=[{"tile": r.tile.describe(), "pit_axis": r.pit_axis,
                "microtile": str(r.microtile), "mean_cost_us": float(cost)}
               for r, cost in zip(rules, mean_costs)],
    )


def dense_candidate(m: int, k: int, n: int, tiledb: TileDB) -> tuple:
    """The dense fallback's ``(tile, cost)``: Algorithm 1's dense
    candidate, and the serving engine's degraded plan when a search fails.

    Priced with the same wave-quantized formula as the sparse candidates so
    that rounding differences cannot flip the comparison; a dense-ish input
    must fall back (Section 3.2).
    """
    tile = tiledb.best_dense_tile(m, k, n).tile
    # Every output tile executes, each with every K-step.
    tiles = math.ceil(m / tile.tm) * math.ceil(n / tile.tn)
    cost = sparse_matmul_time_us(
        tiles * math.ceil(k / tile.tk),
        tiles,
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
        tile, cost = dense_candidate(m, k, n, tiledb)
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
    of the dynamic operator.  All samples share one cover pyramid, every
    (rule, sample) pair is scored in one ``[R, S]`` array pass, and a
    rule's cost is its mean over the samples.  Pass a dict as ``profile``
    to receive the search's stage timings (``cover_us``, ``score_us``) and
    each rule's mean cost (``profile["rules"]``).
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
    rules, table = _rule_table(tiledb, sparse_operand)
    counts = table.count(SampleStack(samples))
    covered = time.perf_counter()
    costs = _mean_in_sample_order(table.price(counts, expected, dense_extent))
    best, best_cost, best_cov = None, float("inf"), 0.0
    if rules:
        # The first minimum: the tie-break of a strict ``<`` scan in rule order.
        r = int(np.argmin(costs))
        best, best_cost = rules[r], float(costs[r])
        covs = _covered_sparsity(counts)[r:r + 1]
        best_cov = float(_mean_in_sample_order(covs)[0])

    choice = _settle(
        best, best_cost, best_cov, m, k, n, tiledb, include_dense_fallback,
        sparse_operand, start,
    )
    if profile is not None:
        _profile_stages(
            profile, rules, costs, start, covered, choice,
            num_samples=len(samples),
        )
    return choice


def nm_permutation_candidates(samples, k: int) -> list:
    """The k-axis channel-order candidates of the nm search.

    Identity (``None`` sentinel), a density sort (channels ordered by total
    non-zeros descending — clusters live channels so N:M groups keep them
    together), and a striped deal (density-sorted channels dealt
    round-robin across groups — balances each m-group's live count so
    fewer survivors are dropped).  A pure function of the samples, so the
    winning order is cacheable.
    """
    counts = np.zeros(k, dtype=np.int64)
    for s in samples:
        counts += np.asarray(s, dtype=bool).sum(axis=1, dtype=np.int64)
    dense_first = np.argsort(-counts, kind="stable")
    return [
        None,
        tuple(int(c) for c in dense_first),
        tuple(int(c) for c in dense_first[_striped_order(k)]),
    ]


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
) -> PermutedChoice:
    """Algorithm 1 composed with a channel-permutation search (nm-sparse).

    For each k-axis channel order of :func:`nm_permutation_candidates`,
    project the permuted mask onto the ``(n, m)`` structured pattern (N:M
    pruning keeps the densest ``n`` of every aligned ``m``-group), then
    evaluate every (tile, PIT-axis) rule over *all* candidates stacked into
    one :class:`SampleStack` and scored in one ``[rules, candidates x
    samples]`` array pass.  The cheapest (rule, permutation)
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
    candidates = nm_permutation_candidates(samples, k)
    stacked = []
    for perm in candidates:
        for s in samples:
            permuted = s if perm is None else s[np.asarray(perm), :]
            stacked.append(nm_prune_mask(permuted, nn, mm, axis=0))

    rules, table = _rule_table(tiledb, "B")
    counts = table.count(SampleStack(stacked))
    costs = table.price(counts, (k, n), m)
    num_samples = len(samples)
    shape = (len(rules), len(candidates), num_samples)
    cand_costs = costs.reshape(shape).mean(axis=2)
    best_rule, best_perm_idx, best_cost, best_cov = None, 0, float("inf"), 0.0
    if rules:
        # The first minimum over (rule, candidate) in rule-major order.
        r, best_perm_idx = divmod(int(np.argmin(cand_costs)), len(candidates))
        best_rule, best_cost = rules[r], float(cand_costs[r, best_perm_idx])
        cand_covs = _covered_sparsity(counts).reshape(shape).mean(axis=2)
        best_cov = float(cand_covs[r, best_perm_idx])

    choice = _settle(
        best_rule, best_cost, best_cov, m, k, n, tiledb,
        include_dense_fallback=True, sparse_operand="B", start=start,
    )
    # A dense kernel has no channel order; None is the identity candidate.
    winning = None if choice.is_dense_fallback else candidates[best_perm_idx]
    return PermutedChoice(
        choice=choice, permutation=winning or (), pattern=(nn, mm)
    )


def sparsity_signature(sparsity_samples):
    """Quantized sparsity signature of a sample set (a hashable tuple).

    Captures the three statistics Algorithm 1's outcome actually depends on:
    overall density, live-row fraction and live-column fraction (the latter
    two discriminate m-axis from k-axis granularity).  Each is quantized to
    :data:`SIGNATURE_QUANTUM`-wide buckets so that invocation-to-invocation
    noise in a dynamic pattern maps to the same signature — the key
    property the :class:`PlanCache` needs (Figure 20: exact patterns almost
    never repeat, but their *statistics* are stable).
    """
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
    q = 1.0 / SIGNATURE_QUANTUM
    return (
        int(round(density * q)),
        int(round(row_live * q)),
        int(round(col_live * q)),
    )


class PlanCacheLoadError(ValueError):
    """A plan-cache dump could not be parsed or decoded.

    Raised by :meth:`PlanCache.load` for *corruption* — truncated or
    invalid JSON, missing header fields, an ``entries`` field that is not
    a list, undecodable entries — as distinct from the plain
    :class:`ValueError` it raises for a well-formed dump that is merely
    incompatible (unknown format version, foreign TileDB identity).
    Subclasses ``ValueError`` so existing callers that guard ``load`` with
    one ``except`` keep working.
    """


class PlanCache:
    """Thread-safe LRU memo of kernel plans.

    The deployed PIT keeps its online search at 30-100us by reusing cover
    grids and pre-profiled tiles; a serving process goes one step further and
    reuses the whole Algorithm 1 *outcome* across requests whose dynamic
    patterns are statistically alike.  Entries map a
    :meth:`PlanSpec.cache_key <repro.core.plan.PlanSpec.cache_key>` to its
    plan (arbitrary plan objects are accepted — the PIT backend memoizes its
    activation-cover workloads here too, so one cache serves one process).

    One lock guards the entries, the searches in flight and the counters,
    and it is never held across a search: :meth:`get_or_compute` runs a
    cold search *outside* the lock with single-flight deduplication, so a
    cold Algorithm 1 search never stalls a warm lookup, and concurrent
    requests for the same plan run the search exactly once.

    :attr:`CAPACITY` bounds the entry count exactly; an insert past it
    evicts the least recently used entry.
    """

    CAPACITY = 256

    def __init__(self):
        #: key -> value, least recently used first.
        self._entries: OrderedDict = OrderedDict()
        #: key -> :class:`threading.Event` of the search in flight for it.
        self._inflight: dict = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._lock = make_lock("plan_cache")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    # -- counters (all of them in :meth:`stats`) --------------------------

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    # -- lookups ----------------------------------------------------------

    def get(self, key):
        """Look up a plan; counts a hit or a miss and refreshes recency."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.CAPACITY:
                self._entries.popitem(last=False)
                self._evictions += 1

    def entries(self):
        """Snapshot of ``(key, value)`` pairs, least recently used first.

        The in-memory analogue of :meth:`save` — the cluster layer uses it
        to seed a new worker process with everything the host already
        knows.
        """
        with self._lock:
            return list(self._entries.items())

    def get_or_compute(self, key, compute):
        """Single-flight lookup-or-search; returns ``(value, hit)``.

        On a hit, behaves exactly like :meth:`get`.  On a miss, the caller
        becomes the *owner* of the search for ``key``: the lock is released
        while ``compute()`` runs, so warm lookups proceed during a cold
        Algorithm 1 search.  Concurrent callers for the same key wait on
        the owner's result and count a hit (the search ran once), so
        hit/miss totals match the sequential schedule.  If the owner's
        ``compute`` raises, waiters retry — exactly one of them becomes the
        next owner.
        """
        while True:
            with self._lock:
                try:
                    value = self._entries[key]
                except KeyError:
                    waiter = self._inflight.get(key)
                    if waiter is None:
                        self._inflight[key] = threading.Event()
                        self._misses += 1
                        break
                else:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return value, True
            # Another thread owns the search for this key; wait and re-check.
            waiter.wait()
        try:
            value = compute()
            self.put(key, value)
        finally:
            with self._lock:
                event = self._inflight.pop(key)
            event.set()
        return value, False

    #: On-disk dump format version; bumped whenever key/value encoding or
    #: the header changes.  Format 4 dropped format 3's ``capacity``,
    #: ``quantum`` and ``tiledb_keys`` header fields; format 5 dropped the
    #: permutation-policy slot of nm-sparse keys (a format-4 nm entry
    #: could never be hit again).  It is the only format :meth:`load` reads.
    DUMP_FORMAT = 5

    def save(self, path, *, tiledb_key) -> dict:
        """Persist the cache to ``path`` as JSON.

        ``tiledb_key`` is the :attr:`~repro.core.tiledb.TileDB.cache_key`
        of the tile database the cached plans were selected against; it is
        recorded in the dump header so :meth:`load` can refuse a dump that
        was built over different tiles (such plans would silently
        misprice).

        Entries are written oldest first (LRU order); those whose key or
        value cannot be serialized (ad-hoc objects a caller memoized) are
        skipped, not fatal.  Returns ``{"entries": saved, "skipped":
        skipped}``.
        """
        import json

        from .plan import encode_value

        entries = []
        skipped = 0
        for key, value in self.entries():
            try:
                entries.append(
                    {"key": encode_value(key), "value": encode_value(value)}
                )
            except TypeError:
                skipped += 1
        payload = {
            "format": self.DUMP_FORMAT,
            "tiledb_key": encode_value(tuple(tiledb_key)),
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
        return {"entries": len(entries), "skipped": skipped}

    @classmethod
    def load(cls, path, *, expected_tiledb_key=None) -> "PlanCache":
        """Revive a cache saved by :meth:`save` (fresh hit/miss counters).

        When ``expected_tiledb_key`` is given, the dump's recorded TileDB
        identity must match it exactly — a dump built against a different
        device/dtype/tile budget raises ``ValueError`` instead of silently
        serving plans that were selected over other tiles.

        A dump holding more than :attr:`CAPACITY` entries revives with the
        newest; the trimmed ones count as evictions.
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
        if fmt != cls.DUMP_FORMAT:
            raise ValueError(
                f"unsupported plan-cache dump format {fmt!r} "
                f"(this build reads format {cls.DUMP_FORMAT})"
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
            raw_entries = payload["entries"]
        except KeyError as exc:
            raise PlanCacheLoadError(
                f"plan-cache dump {path} is missing required header "
                f"field {exc}"
            ) from exc
        if not isinstance(raw_entries, list):
            raise PlanCacheLoadError(
                f"plan-cache dump {path} has an entries field of type "
                f"{type(raw_entries).__name__}, expected a list"
            )
        cache = cls()
        # Entries were dumped oldest first, so inserting them in file order
        # through the LRU path rebuilds the recency order and keeps the
        # newest `CAPACITY` of them.
        for position, entry in enumerate(raw_entries):
            try:
                key = decode_value(entry["key"])
                value = decode_value(entry["value"])
            except (KeyError, TypeError, ValueError) as exc:
                raise PlanCacheLoadError(
                    f"plan-cache dump {path} entry {position} is "
                    f"undecodable: {exc!r}"
                ) from exc
            cache.put(key, value)
        return cache

    def stats(self) -> dict:
        """One consistent snapshot of the size and counters."""
        with self._lock:
            hits, misses = self._hits, self._misses
            stats = {
                "size": len(self._entries),
                "capacity": self.CAPACITY,
                "hits": hits,
                "misses": misses,
                "evictions": self._evictions,
            }
        stats["hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        return stats
