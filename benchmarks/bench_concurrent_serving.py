"""Concurrent serving: sharded PlanCache contention and live/simulated parity.

The real-concurrency front end (`repro.runtime.frontend`) only earns its
keep if (a) the sharded plan cache actually removes the head-of-line
blocking a single cache lock imposes while a cold Algorithm 1 search runs,
and (b) going concurrent changes *nothing* about the decisions the paper's
scheduler makes.  Three gates:

1. **Contention**: with ``WARM_THREADS`` threads doing warm plan lookups
   while a cold Algorithm 1 search stream runs, the sharded single-flight
   cache must beat a global-lock baseline (one lock held across the whole
   search, the pre-sharding design) by at least ``CONTENTION_GATE``x on
   mean warm-lookup latency.
2. **Zero extra cold searches**: serving the same workloads through the
   real asyncio front end (4 worker replicas pulling batches concurrently)
   must run exactly as many cold Algorithm 1 searches as the simulated
   continuous scheduler — concurrency never duplicates a search.
3. **Equivalence**: a seeded trace replayed through the front end in
   virtual time must reproduce the simulated scheduler's batch
   compositions, placements and timings decision-for-decision.

Each run appends a record to the cumulative ``BENCH_serving.json``
trajectory so future PRs can regress against the history.

Run:  PYTHONPATH=src python benchmarks/bench_concurrent_serving.py
"""

from __future__ import annotations

import statistics
import threading
import time
from pathlib import Path

from repro.core import PlanCache, Planner, TileDB
from repro.hw import V100
from repro.models import bert_workload, switch_workload
from repro.models.workloads import opt_inference_workload
from repro.runtime import (
    ServingEngine,
    decision_trace,
    replay_trace,
    serve_workloads,
)
from repro.sparsity import granular_mask

from e2e_common import append_trajectory

OUT_PATH = Path("BENCH_serving.json")

WARM_THREADS = 4
COLD_SEARCHES = 6
#: Sharded warm lookups during a concurrent cold search must be at least
#: this much faster than under a global lock held across the search
#: (observed: orders of magnitude — a cold search blocks the global lock
#: for whole milliseconds while a warm hit needs microseconds).
CONTENTION_GATE = 2.0
#: ~300 us between warm lookups per thread: several lookups land inside
#: every multi-millisecond cold search, so lock waits dominate the mean.
WARM_LOOKUP_GAP_S = 0.0003
NUM_REQUESTS = 24
REPLICAS = 4


class GlobalLockPlanCache:
    """The pre-sharding design, as a baseline: one lock for every
    operation, held across the entire Algorithm 1 search on a miss."""

    def __init__(self, inner: PlanCache):
        self._inner = inner
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            return self._inner.get(key)

    def put(self, key, value):
        with self._lock:
            self._inner.put(key, value)

    def get_or_compute(self, key, compute):
        with self._lock:  # held across compute: warm readers wait
            value = self._inner.get(key)
            if value is not None:
                return value, True
            value = compute()
            self._inner.put(key, value)
            return value, False

    def __getattr__(self, name):
        return getattr(self._inner, name)


def cold_stream(planner):
    """Fresh (never-cached) specs: sparsities spaced past the signature
    quantum and distinct shapes, so every resolve is a real cold search."""
    specs = []
    for i in range(COLD_SEARCHES):
        mask = granular_mask((1024, 1024), (8, 1), 0.50 + 0.06 * i, seed=i)
        specs.append(
            (planner.make_spec("proj", [mask], 1024, 1024, 256 * (i + 1)),
             mask)
        )
    return specs


def contention_trial(label, cache):
    """Mean warm-lookup latency (us) while cold searches run concurrently."""
    db = TileDB.shared(V100, "float32")
    planner = Planner(db, cache)
    warm_keys = [
        ("plan", "proj", 128, 64, 64, "A", (1000 + i,), True, "warm")
        for i in range(WARM_THREADS)
    ]
    for key in warm_keys:
        cache.put(key, "warm")
    specs = cold_stream(planner)

    stop = threading.Event()
    ready = threading.Barrier(WARM_THREADS + 1)
    latencies = [[] for _ in range(WARM_THREADS)]

    def warm_loop(i):
        key, out = warm_keys[i], latencies[i]
        ready.wait()
        while not stop.is_set():
            # Pace the lookups: a spinning loop would take most of its
            # samples between blocking windows (and fight over the GIL),
            # drowning the lock-wait signal in loop overhead.  Paced
            # lookups measure what a serving worker sees: the latency of
            # a warm hit issued while a cold search is in flight.
            time.sleep(WARM_LOOKUP_GAP_S)
            t0 = time.perf_counter()
            cache.get(key)
            out.append(time.perf_counter() - t0)

    threads = [
        threading.Thread(target=warm_loop, args=(i,))
        for i in range(WARM_THREADS)
    ]
    for t in threads:
        t.start()
    ready.wait()
    cold = 0
    for spec, mask in specs:
        resolved = planner.resolve(spec, lambda m=mask: [m])
        cold += bool(resolved.cold)
    stop.set()
    for t in threads:
        t.join()
    samples = [s for out in latencies for s in out]
    mean_us = statistics.fmean(samples) * 1e6
    print(
        f"contention [{label}]: {cold}/{COLD_SEARCHES} cold searches, "
        f"{len(samples)} warm lookups, mean {mean_us:.2f} us"
    )
    return mean_us, cold


def serving_trace(n=NUM_REQUESTS):
    workloads = []
    for i in range(n):
        if i % 5 == 0:
            workloads.append(
                opt_inference_workload("125m", batch_size=2, seed=i)
            )
        elif i % 5 == 3:
            workloads.append(switch_workload(8, batch_size=2, seed=i))
        else:
            workloads.append(bert_workload("mnli", 2, seed=i))
    return workloads


def make_engine(**kwargs):
    defaults = dict(
        max_batch_tokens=8192,
        max_batch_size=4,
        batch_window_us=1500.0,
        enforce_memory=False,
        replicas=REPLICAS,
    )
    defaults.update(kwargs)
    return ServingEngine(V100, **defaults)


def main():
    failures = []

    # --- Gate 1: sharded warm lookups vs global-lock baseline ------------
    baseline_us, baseline_cold = contention_trial(
        "global lock", GlobalLockPlanCache(PlanCache(shards=1))
    )
    sharded_us, sharded_cold = contention_trial("sharded", PlanCache())
    ratio = baseline_us / sharded_us if sharded_us > 0 else 0.0
    if baseline_cold != COLD_SEARCHES or sharded_cold != COLD_SEARCHES:
        failures.append(
            f"contention: expected {COLD_SEARCHES} cold searches per trial, "
            f"got baseline={baseline_cold} sharded={sharded_cold}"
        )
    if ratio < CONTENTION_GATE:
        failures.append(
            f"contention: sharded warm lookups only {ratio:.2f}x faster "
            f"than the global-lock baseline (need >= {CONTENTION_GATE}x)"
        )
    print(
        f"contention gate: sharded mean warm-lookup latency "
        f"{ratio:.1f}x better under concurrent cold search"
    )

    # --- Gate 2: live front end runs zero extra cold searches ------------
    workloads = serving_trace()
    sim_engine = make_engine(charge_selection=True)
    sim_engine.submit_many(workloads, interarrival_us=300.0)
    simulated = sim_engine.run(policy="continuous")

    live_engine = make_engine(charge_selection=True)
    live = serve_workloads(live_engine, workloads)
    extra_cold = (
        live.plan_cache_stats["misses"] - simulated.plan_cache_stats["misses"]
    )
    if live.failed_requests != 0:
        failures.append(
            f"live serving: {live.failed_requests} requests failed"
        )
    # One-sided: the live path may legitimately run *fewer* searches (its
    # burst arrivals pack fuller batches than the simulated interarrival
    # spacing), but concurrency must never duplicate one.
    if extra_cold > 0:
        failures.append(
            f"live serving: {REPLICAS} concurrent workers paid "
            f"{extra_cold} extra cold searches vs the simulated schedule "
            f"(need <= 0)"
        )
    print(
        f"cold-search gate: live front end ({REPLICAS} workers, "
        f"{len(live.batches)} batches) ran "
        f"{live.plan_cache_stats['misses']} cold searches vs "
        f"{simulated.plan_cache_stats['misses']} simulated "
        f"({extra_cold:+d} extra)"
    )

    # --- Gate 3: virtual-time replay is decision-identical ---------------
    eq_sim_engine = make_engine(charge_selection=False)
    eq_sim_engine.submit_many(workloads, interarrival_us=300.0)
    eq_simulated = eq_sim_engine.run(policy="continuous")

    eq_live_engine = make_engine(charge_selection=False)
    requests = eq_live_engine.submit_many(workloads, interarrival_us=300.0)
    replayed = replay_trace(eq_live_engine, requests)
    equivalent = decision_trace(replayed, include_timing=True) == (
        decision_trace(eq_simulated, include_timing=True)
    )
    if not equivalent:
        failures.append(
            "equivalence: virtual-time replay diverged from the simulated "
            "scheduler's decision trace"
        )
    print(
        f"equivalence gate: replay of {len(workloads)} requests -> "
        f"{'decision-identical' if equivalent else 'DIVERGED'} "
        f"({len(replayed.batches)} batches, timings included)"
    )

    append_trajectory(
        OUT_PATH,
        {
            "bench": "concurrent_serving",
            "timestamp": time.time(),
            "requests": len(workloads),
            "replicas": REPLICAS,
            "warm_lookup_global_lock_us": baseline_us,
            "warm_lookup_sharded_us": sharded_us,
            "contention_ratio": ratio,
            "cold_searches_simulated": simulated.plan_cache_stats["misses"],
            "cold_searches_live": live.plan_cache_stats["misses"],
            "extra_cold_searches": extra_cold,
            "replay_equivalent": equivalent,
            "ok": not failures,
        }
    )
    print(f"trajectory: appended run record to {OUT_PATH}")

    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    print("OK: concurrent serving gates hold")


if __name__ == "__main__":
    main()
