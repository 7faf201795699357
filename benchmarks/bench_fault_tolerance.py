"""Fault tolerance: chaos serving under deterministic injection.

The resilience layer (`repro.runtime.resilience`) only earns its keep if a
failing fleet neither loses requests nor loses determinism.  Four gates:

1. **Zero lost requests**: with one of ``REPLICAS`` replicas killed
   mid-trace plus transient execution failures, every submitted request
   appears in the report exactly once with an explicit terminal outcome
   (served, failed, shed, or deadline-exceeded) — nothing vanishes.
2. **Goodput**: the chaos run must still serve at least
   ``GOODPUT_GATE`` of the requests the fault-free run serves.  Losing a
   replica costs capacity; it must not cost correctness or most of the
   throughput.
3. **Chaos determinism**: two virtual-time replays under the same
   injection seed produce bit-identical decision traces (batches,
   placements, attempts, timings).
4. **Equivalence under faults**: the simulated scheduler and the live
   front end's virtual-time replay make identical decisions under
   identical injection seeds — fault handling did not fork the drivers.

A live (real asyncio workers) chaos pass additionally checks that every
future resolves.  Each run appends a record to the cumulative
``BENCH_serving.json`` trajectory so future PRs can regress against the
history.

Run:  PYTHONPATH=src python benchmarks/bench_fault_tolerance.py
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.hw import V100
from repro.models import bert_workload, switch_workload
from repro.models.workloads import opt_inference_workload
from repro.runtime import (
    FaultSpec,
    ResilienceConfig,
    ServingEngine,
    decision_trace,
    replay_trace,
    serve_workloads,
)

from e2e_common import append_trajectory

OUT_PATH = Path("BENCH_serving.json")

NUM_REQUESTS = 30
#: Four replicas, one killed mid-trace: a 25% capacity loss leaves the
#: fleet enough headroom that goodput should hold well above the gate —
#: on a 3-replica fleet the loss alone caps goodput near 0.67x.
REPLICAS = 4
INTERARRIVAL_US = 400.0
SEED = 1234
#: Replica 1 dies at 3 ms into the trace and never comes back.
OUTAGE = (1, 3000.0, 1e9)
#: Chaos goodput must stay within this fraction of fault-free goodput.
GOODPUT_GATE = 0.70

CHAOS = ResilienceConfig(
    fault=FaultSpec(
        SEED,
        transient_prob=0.15,
        straggler_prob=0.10,
        # Mild stragglers: a 4x factor makes the tail of the makespan
        # hostage to whichever big batch straggles last, which measures
        # tail luck rather than fault handling.
        straggler_factor=1.5,
        outages=(OUTAGE,),
    ),
    max_retries=3,
    retry_backoff_us=400.0,
)


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


def make_engine(resilience=None):
    return ServingEngine(
        V100,
        max_batch_tokens=8192,
        max_batch_size=4,
        batch_window_us=1500.0,
        enforce_memory=False,
        replicas=REPLICAS,
        overlap_selection=False,
        charge_selection=False,
        resilience=resilience,
    )


def run_replay(resilience):
    engine = make_engine(resilience)
    requests = engine.submit_many(
        serving_trace(), interarrival_us=INTERARRIVAL_US
    )
    submitted = sorted(r.request_id for r in requests)
    report = replay_trace(engine, requests)
    return report, submitted


def goodput(report):
    """Served requests per second of makespan."""
    served = sum(1 for r in report.requests if r.ok)
    if report.makespan_us <= 0:
        return 0.0
    return served / (report.makespan_us / 1e6)


def main():
    failures = []

    # --- Gate 1: kill a replica mid-trace, lose nothing ------------------
    chaos, submitted = run_replay(CHAOS)
    reported = sorted(r.request_id for r in chaos.requests)
    if reported != submitted:
        failures.append(
            f"lost requests: submitted {len(submitted)}, reported "
            f"{len(reported)} (duplicates or drops under chaos)"
        )
    unexplained = [
        r for r in chaos.requests
        if not r.ok and not r.shed and not r.error
    ]
    if unexplained:
        failures.append(
            f"{len(unexplained)} failed requests carry no explicit outcome"
        )
    served = sum(1 for r in chaos.requests if r.ok)
    dead = any(state == "dead" for _, _, state in chaos.health_timeline)
    if not dead:
        failures.append(
            "the injected outage never surfaced in the health timeline"
        )
    print(
        f"chaos run: {served}/{len(submitted)} served, "
        f"{chaos.retries} retries ({chaos.failovers} failovers), "
        f"{chaos.deadline_exceeded} deadline-exceeded, replica "
        f"{OUTAGE[0]} down from {OUTAGE[1] / 1e3:.0f} ms"
    )

    # --- Gate 2: goodput within GOODPUT_GATE of fault-free ----------------
    clean, _ = run_replay(None)
    clean_goodput = goodput(clean)
    chaos_goodput = goodput(chaos)
    ratio = chaos_goodput / clean_goodput if clean_goodput > 0 else 0.0
    if ratio < GOODPUT_GATE:
        failures.append(
            f"goodput: chaos run at {ratio:.2f}x of fault-free "
            f"(need >= {GOODPUT_GATE}x)"
        )
    print(
        f"goodput gate: {chaos_goodput:,.0f} req/s under chaos vs "
        f"{clean_goodput:,.0f} req/s fault-free ({ratio:.2f}x)"
    )

    # --- Gate 3: same seed, bit-identical chaos ---------------------------
    rerun, _ = run_replay(CHAOS)
    deterministic = decision_trace(chaos, include_timing=True) == (
        decision_trace(rerun, include_timing=True)
    )
    if not deterministic:
        failures.append(
            "chaos determinism: two replays under one seed diverged"
        )
    print(
        f"determinism gate: same-seed replays "
        f"{'bit-identical' if deterministic else 'DIVERGED'} "
        f"({len(chaos.batches)} batch attempts)"
    )

    # --- Gate 4: simulated scheduler equals replay under faults -----------
    sim_engine = make_engine(CHAOS)
    sim_engine.submit_many(serving_trace(), interarrival_us=INTERARRIVAL_US)
    simulated = sim_engine.run(policy="continuous")
    equivalent = decision_trace(simulated, include_timing=True) == (
        decision_trace(chaos, include_timing=True)
    )
    if not equivalent:
        failures.append(
            "equivalence: fault handling forked the simulated scheduler "
            "from the virtual-time replay"
        )
    print(
        f"equivalence gate: simulated vs replay under faults -> "
        f"{'decision-identical' if equivalent else 'DIVERGED'}"
    )

    # --- Live pass: real workers, every future resolves -------------------
    live_engine = make_engine(CHAOS)
    live = serve_workloads(live_engine, serving_trace())
    live_ids = [r.request_id for r in live.requests]
    if len(live_ids) != NUM_REQUESTS or len(set(live_ids)) != len(live_ids):
        failures.append(
            f"live chaos: {len(live_ids)} reports for "
            f"{NUM_REQUESTS} requests"
        )
    print(
        f"live chaos: {sum(1 for r in live.requests if r.ok)}/"
        f"{NUM_REQUESTS} served through real workers, "
        f"{live.retries} retries"
    )

    append_trajectory(
        OUT_PATH,
        {
            "bench": "fault_tolerance",
            "timestamp": time.time(),
            "requests": NUM_REQUESTS,
            "replicas": REPLICAS,
            "seed": SEED,
            "served_under_chaos": served,
            "retries": chaos.retries,
            "failovers": chaos.failovers,
            "deadline_exceeded": chaos.deadline_exceeded,
            "goodput_chaos_req_s": chaos_goodput,
            "goodput_clean_req_s": clean_goodput,
            "goodput_ratio": ratio,
            "chaos_deterministic": deterministic,
            "replay_equivalent": equivalent,
            "ok": not failures,
        }
    )
    print(f"trajectory: appended run record to {OUT_PATH}")

    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    print("OK: fault-tolerance gates hold")


if __name__ == "__main__":
    main()
