"""Serving demo: sustained multi-request load with plan caching.

Simulates a small inference service in front of the PIT backend: BERT
requests with dataset-drawn variable sequence lengths arrive every few
milliseconds, the engine buckets them into token-budget batches, and every
batch resolves its kernel plans — declarative PlanSpecs — through the
shared Planner/PlanCache, so only the first batch of each traffic shape
pays the Algorithm 1 search.

The second half re-serves the same traffic through the continuous-batching
scheduler: open batches admit arrivals until the batching window closes
them, and closed batches place onto the least-loaded of four device
replicas — all four warmed by the plan cache the drain run populated.

The final sections show the PlanSpec redesign's two new tricks: MoE
co-batching (merged routing tables planned as ``moe-grouped`` specs
alongside attention plans, with per-kind counts from
``ServingReport.selection_summary()``) and persistence — ``save()`` the
warm cache, revive it with ``PlanCache.load()`` in a fresh engine, and
serve the same traffic with zero cold searches.

The last section leaves the simulated clock entirely: the **live asyncio
front end** serves the same kind of traffic through real concurrent
replica workers (all sharing the engine's one plan cache), sheds
arrivals past its queue-depth bound instead of queueing them past SLO
feasibility, and — replayed in virtual time — reproduces the simulated
scheduler's decisions exactly (see docs/concurrency.md).

The closing section replays the same traffic through the **process
pool**, each replica a real OS worker process behind an RPC channel with
plan-cache deltas keeping the fleet warm, and shows the boundary changed
no decision (see docs/cluster.md).

Run:  PYTHONPATH=src python examples/serving.py
"""

import os
import tempfile

from repro.core import PlanCache
from repro.hw import V100
from repro.models import (
    bert_workload,
    longformer_workload,
    opt_inference_workload,
    switch_workload,
)
from repro.runtime import ServingEngine, format_table


def mixed_stream():
    # A mixed request stream: BERT classification plus OPT generation
    # prefills (the latter exploit ReLU activation sparsity).
    requests = [bert_workload("mnli", 8, seed=s) for s in range(12)]
    requests += [opt_inference_workload("125m", 4, seed=s % 2) for s in range(6)]
    return requests


def batch_table(report, title):
    return format_table(
        ["batch", "reqs", "tokens", "padded", "replica", "exec ms",
         "select us", "cache"],
        [
            [
                b.batch_id,
                b.size,
                b.tokens,
                b.padded_tokens,
                b.replica_id,
                b.exec_us / 1e3,
                b.selection_us,
                f"{b.cache_hits}h/{b.cache_misses}m",
            ]
            for b in report.batches
        ],
        title=title,
    )


def main():
    cache = PlanCache()
    engine = ServingEngine(
        V100, max_batch_tokens=8192, max_batch_size=8, plan_cache=cache
    )
    engine.submit_many(mixed_stream(), interarrival_us=2000.0)
    report = engine.run()
    print(report.describe())
    print()
    print(batch_table(report, "Per-batch breakdown (drain, 1 device)"))

    # Same traffic, continuous batching across four replicas.  The plan
    # cache is already warm from the drain run, so no replica pays a cold
    # Algorithm 1 search.
    engine = ServingEngine(
        V100,
        max_batch_tokens=8192,
        max_batch_size=8,
        replicas=4,
        batch_window_us=3000.0,
        plan_cache=cache,
    )
    engine.submit_many(mixed_stream(), interarrival_us=2000.0)
    report = engine.run(policy="continuous")
    print()
    print(report.describe())
    print()
    print(batch_table(report, "Per-batch breakdown (continuous, 4 replicas)"))

    # A cold continuous run (fresh cache): the scheduler issues each
    # batch's Algorithm 1 search at batch-open time, so the real search
    # milliseconds hide behind the batching window and prior compute —
    # describe() reports the time removed from the critical path.
    engine = ServingEngine(
        V100,
        max_batch_tokens=8192,
        max_batch_size=8,
        batch_window_us=3000.0,
        plan_cache=PlanCache(),
    )
    engine.submit_many(mixed_stream(), interarrival_us=2000.0)
    report = engine.run(policy="continuous")
    print()
    print(report.describe())
    print(
        f"cold searches overlapped with compute: saved "
        f"{report.overlap_saved_us / 1e3:.2f} ms"
    )

    # Heterogeneous fleet: a mixed V100+A100 lineup (slow device listed
    # first) under cost-aware placement.  Each closed batch is priced on
    # both device classes' analytical models and placed to minimize
    # predicted finish time, so the idle-fleet batches land on the A100
    # instead of replica id 0; least-loaded placement on the identical
    # lineup shows what speed-blind placement costs.
    from repro.hw import parse_lineup

    lineup = parse_lineup("v100+a100")
    for placement in ("least-loaded", "cost-aware"):
        het_cache = PlanCache()
        for _ in range(2):  # second pass serves fully warm
            het_engine = ServingEngine(
                V100,
                replica_specs=lineup,
                placement=placement,
                dtype="float16",
                max_batch_tokens=8192,
                max_batch_size=8,
                batch_window_us=500.0,
                plan_cache=het_cache,
            )
            het_engine.submit_many(
                [bert_workload("mnli", 8, seed=s % 4) for s in range(12)],
                interarrival_us=4000.0,
            )
            het_report = het_engine.run(policy="continuous")
        print()
        print(f"mixed lineup, {placement} placement:")
        print(het_report.describe())

    # MoE co-batching: Switch-Transformer requests with statistically alike
    # routing merge their routing tables and plan one grouped dispatch;
    # Longformer requests plan their dynamic attention cover.  All four
    # plan kinds flow through the same Planner — selection_summary()
    # reports the per-kind mix.
    moe_engine = ServingEngine(
        V100, max_batch_tokens=8192, max_batch_size=8,
        plan_cache=PlanCache(), enforce_memory=False,
    )
    stream = [switch_workload(8, 4, seed=s % 2) for s in range(6)]
    stream += [longformer_workload(seq_len=2048, batch_size=1, seed=s % 2)
               for s in range(4)]
    stream += [opt_inference_workload("125m", 4, seed=0) for _ in range(2)]
    moe_engine.submit_many(stream, interarrival_us=2000.0)
    moe_report = moe_engine.run()
    print()
    print(moe_report.describe())
    print("plan kinds resolved through the Planner:")
    for kind, agg in sorted(
        moe_report.selection_summary()["plans_by_kind"].items()
    ):
        print(f"  {kind:12s} {agg['resolved']} plans ({agg['cold']} cold)")

    # Warm start across "processes": persist the warm cache, revive it in
    # a fresh engine, and replay the trace — zero cold searches.
    dump = os.path.join(tempfile.gettempdir(), "pit_plan_cache.json")
    saved = moe_engine.save_plan_cache(dump)
    reloaded = PlanCache.load(
        dump, expected_tiledb_key=moe_engine.tiledb.cache_key
    )
    fresh = ServingEngine(
        V100, max_batch_tokens=8192, max_batch_size=8,
        plan_cache=reloaded, enforce_memory=False,
    )
    fresh.submit_many(stream, interarrival_us=2000.0)
    warm_report = fresh.run()
    print()
    print(
        f"saved {saved['entries']} plans to {dump}; fresh engine replayed "
        f"the trace with {reloaded.misses} cold searches "
        f"({warm_report.selection_summary()['cold_batches']} cold batches, "
        f"selection {warm_report.total_selection_us / 1e3:.2f} ms vs "
        f"{moe_report.total_selection_us / 1e3:.2f} ms cold)"
    )

    # ------------------------------------------------------------------
    # The live path: real asyncio workers instead of a simulated clock.
    # ------------------------------------------------------------------
    from repro.runtime import decision_trace, replay_trace, serve_workloads

    # Four replica workers pull closed batches concurrently; every worker
    # gets its own model backend, all resolving into one single-flight
    # plan cache, so concurrent cold searches are never duplicated.
    live_engine = ServingEngine(
        V100, max_batch_tokens=8192, max_batch_size=8, replicas=4,
        batch_window_us=3000.0, plan_cache=PlanCache(),
        enforce_memory=False,
    )
    live_report = serve_workloads(live_engine, mixed_stream())
    print()
    print(live_report.describe())
    print(
        f"live front end: {len(live_report.batches)} batches across "
        f"{len({b.replica_id for b in live_report.batches})} workers, "
        f"{live_report.plan_cache_stats['misses']} cold searches"
    )

    # Load shedding: past max_queue_depth the front end refuses arrivals
    # immediately — each shed request still gets a report (never silently
    # dropped), and the SLO percentiles exclude it.
    shed_engine = ServingEngine(
        V100, max_batch_tokens=8192, max_batch_size=8, replicas=2,
        batch_window_us=3000.0, plan_cache=PlanCache(),
        enforce_memory=False,
    )
    shed_report = serve_workloads(
        shed_engine, mixed_stream(), max_queue_depth=8
    )
    print(
        f"with max_queue_depth=8: served "
        f"{len(shed_report.requests) - shed_report.shed_requests}, shed "
        f"{shed_report.shed_requests} (all {len(shed_report.requests)} "
        f"reported)"
    )

    # Deterministic replay: the same front-end pipeline driven in virtual
    # time reproduces the simulated scheduler decision-for-decision.
    # charge_selection=False keeps measured selection wall time off the
    # simulated timeline so even start/exec times compare bit-for-bit.
    def replay_engine():
        return ServingEngine(
            V100, max_batch_tokens=8192, max_batch_size=8, replicas=4,
            batch_window_us=3000.0, plan_cache=PlanCache(),
            enforce_memory=False, charge_selection=False,
        )

    sim_engine = replay_engine()
    sim_engine.submit_many(mixed_stream(), interarrival_us=2000.0)
    simulated = sim_engine.run(policy="continuous")

    replay_src = replay_engine()
    requests = replay_src.submit_many(mixed_stream(), interarrival_us=2000.0)
    replayed = replay_trace(replay_src, requests)
    identical = decision_trace(replayed, include_timing=True) == (
        decision_trace(simulated, include_timing=True)
    )
    print(
        f"virtual-time replay vs simulated scheduler: "
        f"{'decision-identical' if identical else 'DIVERGED'} "
        f"({len(replayed.batches)} batches, timings included)"
    )

    # ------------------------------------------------------------------
    # Fault tolerance: deterministic chaos, failover, degraded planning.
    # ------------------------------------------------------------------
    from repro.runtime import FaultSpec, ResilienceConfig

    # Replica 1 dies 3 ms into the trace and never recovers; transient
    # failures and stragglers hit the survivors.  The FaultSpec is seeded,
    # so this exact fault schedule replays bit-identically — and the
    # engine loses nothing: every request reports one terminal outcome,
    # failed attempts retry with backoff onto a *different* healthy
    # replica, and the health timeline below shows the circuit breaker
    # quarantining the dead replica out of placement.
    chaos = ResilienceConfig(
        max_retries=3,
        retry_backoff_us=400.0,
        fault=FaultSpec(
            1234,
            transient_prob=0.15,
            straggler_prob=0.10,
            straggler_factor=1.5,
            outages=((1, 3000.0, 1e9),),
        ),
    )
    chaos_engine = ServingEngine(
        V100, max_batch_tokens=8192, max_batch_size=8, replicas=4,
        batch_window_us=3000.0, plan_cache=PlanCache(),
        enforce_memory=False, charge_selection=False,
        resilience=chaos,
    )
    chaos_engine.submit_many(mixed_stream(), interarrival_us=2000.0)
    chaos_report = chaos_engine.run(policy="continuous")
    print()
    print(chaos_report.describe())
    served = sum(1 for r in chaos_report.requests if r.ok)
    print(
        f"chaos run: {served}/{len(chaos_report.requests)} served with "
        f"replica 1 dead from 3 ms ({chaos_report.retries} retries, "
        f"{chaos_report.failovers} failovers, "
        f"{chaos_report.degraded_plans} degraded plans)"
    )

    # ------------------------------------------------------------------
    # The process pool: each replica is a real OS process.
    # ------------------------------------------------------------------
    from repro.runtime import cluster_replay_trace

    # Four worker processes, each with its own backend and planner; the
    # scheduling policy stays in this process and only batch execution
    # crosses the RPC channel.  Every plan a worker searches cold comes
    # back in a cache delta and is broadcast to the rest of the fleet (see
    # docs/cluster.md).  Virtual-time replay through the workers
    # reproduces the simulated scheduler's decisions, timings included.
    # (The cluster front end requires overlap_selection=False —
    # speculative batch-open searches would run host-side and fork the
    # plan traffic.)
    def cluster_engine():
        return ServingEngine(
            V100, max_batch_tokens=8192, max_batch_size=8, replicas=4,
            batch_window_us=3000.0, plan_cache=PlanCache(),
            enforce_memory=False, overlap_selection=False,
            charge_selection=False,
        )

    csim = cluster_engine()
    csim.submit_many(mixed_stream(), interarrival_us=2000.0)
    csim_report = csim.run(policy="continuous")
    crep = cluster_engine()
    crequests = crep.submit_many(mixed_stream(), interarrival_us=2000.0)
    creplayed = cluster_replay_trace(crep, crequests)
    cidentical = decision_trace(creplayed, include_timing=True) == (
        decision_trace(csim_report, include_timing=True)
    )
    print(
        f"cluster replay vs simulated scheduler: "
        f"{'decision-identical' if cidentical else 'DIVERGED'} "
        f"({len(creplayed.batches)} batches across 4 worker processes, "
        f"{sum(b.cache_misses for b in creplayed.batches)} cold searches "
        f"fleet-wide)"
    )


if __name__ == "__main__":
    main()
