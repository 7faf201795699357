"""Training warm-start: a pruning run's plans must survive restarts.

Training runs on the Planner: every PIT training-step matmul resolves a
``weight-sparse`` (or ``nm-sparse``) plan through ``Planner.resolve`` over
a shared :class:`PlanCache`.  This benchmark gates what a shared,
persistent plan cache is for:

1. price a first pruning epoch (several sparsity steps plus one nm-sparse
   step) with a cold cache, paying the real full-TileDB Algorithm 1
   searches;
2. persist the cache with ``PlanCache.save`` (TileDB-key stamped);
3. revive it with ``PlanCache.load`` in a **fresh** cache object — the
   restarted-trainer simulation — and re-price the identical epoch.

Gates:

* the second epoch performs **zero** cold searches — every spec built from
  the replayed pruning steps keys the dump exactly (nm-sparse plans, with
  their cached channel permutation, included);
* total measured selection wall time drops at least ``MIN_SPEEDUP``x;
* the warm epoch's latencies match the cold epoch's bit-for-bit — a
  replayed plan prices the same masks identically.

Each run appends a record to the cumulative ``BENCH_training.json``
trajectory (uploaded by CI), so selection-time regressions across PRs are
visible as history, not just as a pass/fail bit.

Run:  PYTHONPATH=src python benchmarks/bench_training_warmstart.py
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.core import PlanCache, TileDB
from repro.hw import V100
from repro.runtime import format_table, sparse_training_run, sparse_training_step

from e2e_common import append_trajectory

DUMP_PATH = "BENCH_training_plans.json"
OUT_PATH = Path("BENCH_training.json")
#: The reloaded epoch must cut total selection wall time at least this much
#: (observed: >50x — cache lookups vs cold full-TileDB searches).
MIN_SPEEDUP = 5.0

SPARSITIES = (0.5, 0.8, 0.9, 0.98)
BLOCK = (32, 1)
SEED = 11
NM_PATTERN = (2, 4)


def price_epoch(cache: PlanCache) -> list:
    """One pruning epoch: a sparsity ramp of weight-sparse steps plus one
    2:4 nm-sparse step (the permutation search composed with N:M)."""
    reports = sparse_training_run(
        "pit", V100, sparsities=SPARSITIES, block=BLOCK, seed=SEED,
        plan_cache=cache,
    )
    reports.append(
        sparse_training_step(
            "pit", V100, block=BLOCK, sparsity=0.9, seed=SEED,
            plan_cache=cache, pattern=NM_PATTERN,
        )
    )
    return reports


def totals(reports: list) -> tuple:
    return (
        sum(r.plan_misses for r in reports),
        sum(r.plan_hits for r in reports),
        sum(r.search_us for r in reports),
    )


def main():
    # --- Epoch 1: cold cache, pay the searches, persist ------------------
    cold_cache = PlanCache()
    cold = price_epoch(cold_cache)
    cold_misses, cold_hits, cold_search_us = totals(cold)
    if cold_misses == 0:
        raise SystemExit("FAIL: the cold epoch paid no searches — nothing to gate")
    tiledb = TileDB.shared(V100, "float32")
    saved = cold_cache.save(DUMP_PATH, tiledb_key=tiledb.cache_key)

    # --- Epoch 2: "restarted trainer" — fresh cache from the dump --------
    warm_cache = PlanCache.load(DUMP_PATH, expected_tiledb_key=tiledb.cache_key)
    warm = price_epoch(warm_cache)
    warm_misses, warm_hits, warm_search_us = totals(warm)

    rows = [
        ["epoch 1 (cold cache)", cold_misses, cold_hits,
         f"{cold_search_us / 1e3:.1f}"],
        ["epoch 2 (reloaded dump)", warm_misses, warm_hits,
         f"{warm_search_us / 1e3:.1f}"],
    ]
    print(
        format_table(
            ["epoch", "cold searches", "plan hits", "selection ms"],
            rows,
            title=(
                f"Training warm-start: pruning ramp {SPARSITIES} + "
                f"{NM_PATTERN[0]}:{NM_PATTERN[1]} step, block "
                f"{BLOCK[0]}x{BLOCK[1]} (V100)"
            ),
        )
    )
    print(f"dump: {saved['entries']} entries -> {DUMP_PATH} "
          f"({os.path.getsize(DUMP_PATH)} bytes)")

    # --- Gates ------------------------------------------------------------
    if warm_misses != 0:
        raise SystemExit(
            f"FAIL: the reloaded epoch paid {warm_misses} cold searches; "
            f"expected zero from a persisted cache"
        )
    speedup = (
        cold_search_us / warm_search_us if warm_search_us > 0 else float("inf")
    )
    print(f"selection wall-time cut from warm start: {speedup:.1f}x")
    if speedup < MIN_SPEEDUP:
        raise SystemExit(
            f"FAIL: expected >= {MIN_SPEEDUP:.0f}x selection cut on the "
            f"second epoch, got {speedup:.1f}x"
        )
    for c, w in zip(cold, warm):
        if c.latency_ms != w.latency_ms:
            raise SystemExit(
                f"FAIL: warm epoch repriced sparsity {c.sparsity} at "
                f"{w.latency_ms:.4f}ms vs cold {c.latency_ms:.4f}ms — "
                f"replayed plans must price identical masks identically"
            )

    # --- Cumulative trajectory (CI artifact) ------------------------------
    runs = append_trajectory(OUT_PATH, {
        "sparsities": list(SPARSITIES),
        "block": list(BLOCK),
        "nm_pattern": list(NM_PATTERN),
        "cold_searches": cold_misses,
        "cold_selection_us": cold_search_us,
        "warm_selection_us": warm_search_us,
        "selection_speedup": speedup,
        "dump_entries": saved["entries"],
    })
    print(f"appended run {runs} to {OUT_PATH}")

    print(
        f"OK: zero cold searches after reload, {speedup:.1f}x selection cut, "
        f"warm latencies bit-identical"
    )


if __name__ == "__main__":
    main()
