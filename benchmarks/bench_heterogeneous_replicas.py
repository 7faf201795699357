"""Heterogeneous replicas: cost-aware placement vs least-loaded.

The paper's online model (Sections 3.2, 5.5) makes plans device-specific —
an A100 and a V100 pick different tiles for the same sparsity — and real
fleets are mixed.  `ServingEngine(replica_specs=[...])` builds one
backend/TileDB/Planner per distinct device class over one shared PlanCache,
and the continuous scheduler places closed batches to minimize predicted
finish time `max(close, free_at) + est_exec` on each class's analytical
model.  This benchmark gates the three properties that design exists for:

1. **Degenerate equivalence**: an all-identical lineup must reproduce the
   least-loaded scheduler's report bit-identically on every deterministic
   field (placement, batch composition, simulated latencies, cache
   accounting, per-replica totals).  Measured selection *wall* times are
   real wall clock and excluded — they differ between any two runs of the
   same scheduler.
2. **Mixed-fleet makespan**: on the same traffic, a mixed V100+A100 lineup
   under cost-aware placement must cut makespan — and mean latency by at
   least ``LATENCY_GATE`` — vs least-loaded placement.  Least-loaded is
   speed-blind: whenever the fleet is idle its (free_at, id) tie-break
   parks the batch on replica 0 regardless of device, so listing the slow
   V100 first exposes the pathology (fp16, where the A100's tensor cores
   make the classes genuinely different).
3. **Plan-cache scale-out**: adding replicas of already-seen device
   classes must add exactly zero cold Algorithm 1 searches — plans are
   keyed per class, not per replica.

Every engine here excludes measured selection wall time from the simulated
schedule (``charge_selection=False``, as the goldens and perfbench do), so
gate 2 compares simulated latencies that do not depend on host load; a
fourth check serves the mixed cost-aware lineup twice and requires
bit-identical reports.

Each run appends a record to the ``BENCH_serving.json`` trajectory (a JSON
list, like the ``BENCH_selection.json`` perf trajectory but cumulative), so
future PRs can regress against the serving-layer history.

Run:  PYTHONPATH=src python benchmarks/bench_heterogeneous_replicas.py
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.core import PlanCache
from repro.hw import A100, V100
from repro.models import bert_workload
from repro.runtime import ServingEngine, format_table

from e2e_common import append_trajectory

OUT_PATH = Path("BENCH_serving.json")

#: Odd on purpose: under light load least-loaded strictly alternates
#: replicas (the replica just used always carries the larger free_at
#: stamp), so an odd-length stream ends its alternation — and therefore
#: the makespan-defining final batch — on the slow device listed first,
#: while cost-aware placement keeps every idle-fleet batch on the device
#: that finishes it soonest.
NUM_REQUESTS = 31
#: Light-to-moderate load: batches mostly close with the fleet idle, the
#: regime where least-loaded's speed-blind placement misassigns batches
#: the fleet had capacity to run on the faster device.
GAP_US = 4000.0
BATCH_WINDOW_US = 500.0
#: Cost-aware placement must cut mean latency at least this much on the
#: mixed lineup (observed: 1.20x, with makespan 1.008x; the fp16 A100/V100
#: exec gap is ~1.45x).
LATENCY_GATE = 1.15

IDENTICAL_LINEUP = [V100, V100, V100]
#: Slow device first: naive id-order tie-breaks favour it, so every win
#: below is the placement policy's, not the lineup order's.
MIXED_LINEUP = [V100, A100]
SCALED_LINEUP = [V100, V100, A100, A100]


def stream() -> list:
    return [
        bert_workload("mnli" if s % 2 == 0 else "cola", 8, seed=s % 4)
        for s in range(NUM_REQUESTS)
    ]


def serve(cache, *, lineup, placement, gap_us=GAP_US):
    engine = ServingEngine(
        lineup[0],
        replica_specs=lineup,
        placement=placement,
        dtype="float16",
        max_batch_tokens=8192,
        max_batch_size=2,
        batch_window_us=BATCH_WINDOW_US,
        plan_cache=cache,
        enforce_memory=False,
        charge_selection=False,
    )
    engine.submit_many(stream(), interarrival_us=gap_us)
    return engine.run(policy="continuous")


def canonical(report) -> dict:
    """Every deterministic field of a serving report.

    Simulated latencies (`run.latency_ms`), placement, batch composition
    and cache accounting are pure functions of the traffic and the
    scheduler's decisions; measured selection wall times are host wall
    clock and excluded.
    """
    return {
        "batches": [
            [
                b.batch_id,
                list(b.request_ids),
                b.replica_id,
                b.tokens,
                b.padded_tokens,
                b.cache_hits,
                b.cache_misses,
                dict(b.plan_kinds),
                b.run.latency_ms,
                b.run.peak_mem_gib,
            ]
            for b in report.batches
        ],
        "requests": [
            [r.request_id, r.batch_id, r.tokens, r.ok]
            for r in report.requests
        ],
        "replicas": [
            [s.replica_id, s.device, s.batches, s.tokens]
            for s in report.replica_stats
        ],
    }


def main():
    failures = []

    # --- Gate 1: all-identical lineup == least-loaded, bit for bit ------
    def serve_identical(placement):
        cache = PlanCache()
        serve(cache, lineup=IDENTICAL_LINEUP, placement=placement)  # warm
        return serve(cache, lineup=IDENTICAL_LINEUP, placement=placement)

    identical_ll = serve_identical("least-loaded")
    identical_ca = serve_identical("cost-aware")
    identical_match = canonical(identical_ca) == canonical(identical_ll)
    if not identical_match:
        failures.append(
            "degenerate lineup: cost-aware placement diverged from the "
            "least-loaded report on deterministic fields"
        )
    print(
        f"degenerate gate: {len(IDENTICAL_LINEUP)} identical replicas -> "
        f"{'bit-identical' if identical_match else 'DIVERGED'} vs "
        f"least-loaded ({len(identical_ca.batches)} batches)"
    )

    # --- Gate 2: mixed lineup, cost-aware cuts makespan ------------------
    def serve_mixed(placement):
        cache = PlanCache()
        serve(cache, lineup=MIXED_LINEUP, placement=placement)  # warm
        return serve(cache, lineup=MIXED_LINEUP, placement=placement)

    mixed_ll = serve_mixed("least-loaded")
    mixed_ca = serve_mixed("cost-aware")
    # The simulated clock reads no wall time, so a second serve of the
    # same lineup must report the same schedule, bit for bit.
    mixed_again = serve_mixed("cost-aware")
    repeatable = (
        mixed_again.mean_latency_us == mixed_ca.mean_latency_us
        and canonical(mixed_again) == canonical(mixed_ca)
    )
    if not repeatable:
        failures.append(
            f"mixed lineup: two cost-aware serves differ (mean latency "
            f"{mixed_ca.mean_latency_us:.1f} vs "
            f"{mixed_again.mean_latency_us:.1f} us)"
        )
    speedup = (
        mixed_ll.makespan_us / mixed_ca.makespan_us
        if mixed_ca.makespan_us > 0
        else 0.0
    )
    latency_cut = (
        mixed_ll.mean_latency_us / mixed_ca.mean_latency_us
        if mixed_ca.mean_latency_us > 0
        else 0.0
    )
    if not mixed_ca.makespan_us < mixed_ll.makespan_us:
        failures.append(
            f"mixed lineup: cost-aware makespan "
            f"{mixed_ca.makespan_us / 1e3:.2f} ms did not beat least-loaded "
            f"{mixed_ll.makespan_us / 1e3:.2f} ms"
        )
    if latency_cut < LATENCY_GATE:
        failures.append(
            f"mixed lineup: cost-aware cut mean latency only "
            f"{latency_cut:.2f}x vs least-loaded (need >= {LATENCY_GATE}x)"
        )
    ca_classes = mixed_ca.device_class_stats()
    if (
        ca_classes.get(A100.name, {}).get("batches", 0)
        < ca_classes.get(V100.name, {}).get("batches", 0)
    ):
        failures.append(
            "mixed lineup: the strictly-faster A100 received fewer batches "
            "than the V100 under cost-aware placement"
        )

    def row(label, report):
        per_dev = report.device_class_stats()
        devs = "  ".join(
            f"{name.split('-')[0]}: {agg['batches']}b"
            for name, agg in sorted(per_dev.items())
        )
        return [
            label,
            len(report.batches),
            report.makespan_us / 1e3,
            report.mean_latency_us / 1e3,
            report.p95_latency_us / 1e3,
            devs,
        ]

    print()
    print(
        format_table(
            ["run", "batches", "makespan ms", "mean lat ms", "p95 lat ms",
             "per-device batches"],
            [
                row("least-loaded (V100+A100)", mixed_ll),
                row("cost-aware   (V100+A100)", mixed_ca),
            ],
            title=(
                f"Heterogeneous placement (interleaved BERT stream, "
                f"gap {GAP_US:.0f} us)"
            ),
        )
    )
    print(
        f"makespan gate: cost-aware = {speedup:.3f}x least-loaded "
        f"(mean latency {latency_cut:.2f}x better)"
    )
    print(
        f"determinism gate: a second cost-aware serve is "
        f"{'bit-identical' if repeatable else 'DIFFERENT'}"
    )

    # --- Gate 3: scale-out of seen classes adds zero cold searches -------
    shared = PlanCache()
    serve(shared, lineup=MIXED_LINEUP, placement="cost-aware", gap_us=0.0)
    misses_before = shared.misses
    scaled = serve(
        shared, lineup=SCALED_LINEUP, placement="cost-aware", gap_us=0.0
    )
    extra_cold = shared.misses - misses_before
    if extra_cold != 0:
        failures.append(
            f"scale-out: adding {len(SCALED_LINEUP) - len(MIXED_LINEUP)} "
            f"replicas of seen device classes paid {extra_cold} extra cold "
            f"searches (need 0)"
        )
    print(
        f"plan-cache gate: {extra_cold} extra cold searches scaling "
        f"{len(MIXED_LINEUP)} -> {len(SCALED_LINEUP)} replicas "
        f"({len({b.replica_id for b in scaled.batches})} replicas served)"
    )

    append_trajectory(
        OUT_PATH,
        {
            "bench": "heterogeneous_replicas",
            "timestamp": time.time(),
            "requests": NUM_REQUESTS,
            "identical_match": identical_match,
            "makespan_least_loaded_us": mixed_ll.makespan_us,
            "makespan_cost_aware_us": mixed_ca.makespan_us,
            "makespan_speedup": speedup,
            "mean_latency_cut": latency_cut,
            "repeatable": repeatable,
            "p95_latency_least_loaded_us": mixed_ll.p95_latency_us,
            "p95_latency_cost_aware_us": mixed_ca.p95_latency_us,
            "extra_cold_searches": extra_cold,
            "ok": not failures,
        }
    )
    print(f"trajectory: appended run record to {OUT_PATH}")

    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    print("OK: heterogeneous replica gates hold")


if __name__ == "__main__":
    main()
