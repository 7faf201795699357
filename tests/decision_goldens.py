"""Golden decision traces of the continuous serving driver.

Each case is an engine configuration plus a seeded arrival trace, taken
from the replay-equivalence tests: the frontend's homogeneous, speculative
heterogeneous and seeded traces, the resilience chaos traces, and the
cluster lineups and faulted trace.  Its golden is the outcome of
``engine.run(policy="continuous")`` under ``charge_selection=False``: the
timed decision trace, retries, failovers, health transitions, makespan,
the ids of the reported requests and the engine-wide plan-cache traffic.
The tests serve every case through each
driver (``engine.run``, ``replay_trace`` and, for cluster cases,
``cluster_replay_trace``) and compare with the golden, so every driver is
pinned to recorded behaviour rather than to another driver.

Regenerate only when a change alters scheduling decisions on purpose::

    PYTHONPATH=src python tests/decision_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.hw import A100, V100
from repro.models import bert_workload, switch_workload
from repro.models.workloads import opt_inference_workload
from repro.runtime import (
    FaultSpec,
    ResilienceConfig,
    ServingEngine,
    cluster_replay_trace,
    decision_trace,
    replay_trace,
)

GOLDENS = Path(__file__).resolve().parent / "fixtures" / "decision_goldens.json"

#: Engine settings every case shares: deterministic simulated timings.
BASE = dict(
    max_batch_tokens=8192,
    max_batch_size=4,
    batch_window_us=1500.0,
    enforce_memory=False,
    overlap_selection=False,
    charge_selection=False,
)


def mixed_trace(engine, n=16, interarrival_us=400.0, seed_base=0):
    """Proj, ffn-act and moe traffic (the frontend/resilience mix)."""
    workloads = []
    for i in range(n):
        seed = seed_base + i
        if i % 5 == 0:
            workloads.append(
                opt_inference_workload("125m", batch_size=2, seed=seed)
            )
        elif i % 5 == 3:
            workloads.append(switch_workload(8, batch_size=2, seed=seed))
        else:
            workloads.append(bert_workload("mnli", 2, seed=seed))
    return engine.submit_many(workloads, interarrival_us=interarrival_us)


def cluster_trace(engine, n=8, interarrival_us=400.0):
    """The cluster tests' mix: every other request is BERT."""
    workloads = []
    for i in range(n):
        if i % 4 == 0:
            workloads.append(
                opt_inference_workload("125m", batch_size=2, seed=i)
            )
        elif i % 4 == 2:
            workloads.append(switch_workload(8, batch_size=2, seed=i))
        else:
            workloads.append(bert_workload("mnli", 2, seed=i))
    return engine.submit_many(workloads, interarrival_us=interarrival_us)


def chaos(seed: int) -> ResilienceConfig:
    return ResilienceConfig(
        fault=FaultSpec(
            seed,
            crash_prob=0.05,
            transient_prob=0.15,
            straggler_prob=0.1,
            outages=((1, 3000.0, 60000.0),),
        ),
        max_retries=3,
        default_deadline_us=200000.0,
    )


CLUSTER_FAULTS = ResilienceConfig(
    fault=FaultSpec(
        1234,
        crash_prob=0.05,
        transient_prob=0.15,
        outages=((1, 3000.0, 60000.0),),
    ),
    max_retries=3,
)

#: name -> (engine settings beyond BASE, trace function, its arguments).
CASES = {
    "homogeneous": (dict(replicas=3), mixed_trace, {}),
    "heterogeneous-speculative": (
        dict(replica_specs=[V100, A100, V100], overlap_selection=True),
        mixed_trace,
        {},
    ),
    **{
        f"seeded-{seed}": (
            dict(replicas=3),
            mixed_trace,
            dict(n=12, interarrival_us=700.0, seed_base=seed),
        )
        for seed in (0, 100, 1000)
    },
    **{
        f"chaos-{seed}": (
            dict(replicas=3, resilience=chaos(seed)),
            mixed_trace,
            dict(n=20),
        )
        for seed in (1234, 777)
    },
    **{
        f"cluster-{lineup}-{seed}": (
            lineup_settings,
            cluster_trace,
            dict(n=6, interarrival_us=300.0 + 100.0 * seed),
        )
        for lineup, lineup_settings in (
            ("homogeneous", dict(replicas=2)),
            ("heterogeneous", dict(replica_specs=[A100, V100])),
        )
        for seed in (0, 1)
    },
    "cluster-faulted": (
        dict(replicas=2, resilience=CLUSTER_FAULTS),
        cluster_trace,
        {},
    ),
}

#: The cases the process pool can serve (all cluster ones).
CLUSTER_CASES = tuple(name for name in CASES if name.startswith("cluster-"))

#: driver name -> callable serving an engine's queued trace.
DRIVERS = {
    "run": lambda engine: engine.run(policy="continuous"),
    "replay": replay_trace,
    "cluster": cluster_replay_trace,
}


def build(name: str) -> ServingEngine:
    """A fresh engine with case ``name``'s trace queued."""
    settings, trace, trace_args = CASES[name]
    engine = ServingEngine(V100, **dict(BASE, **settings))
    trace(engine, **trace_args)
    return engine


def record(report) -> dict:
    """A report's golden-comparable outcome, in JSON form."""
    return json.loads(
        json.dumps(
            {
                "decisions": decision_trace(report, include_timing=True),
                "retries": report.retries,
                "failovers": report.failovers,
                "health_timeline": report.health_timeline,
                "makespan_us": report.makespan_us,
                "request_ids": sorted(r.request_id for r in report.requests),
                "plan_cache": {
                    key: report.plan_cache_stats[key]
                    for key in ("hits", "misses")
                },
            }
        )
    )


def serve(name: str, driver: str) -> dict:
    """Serve case ``name`` through ``driver`` and record the outcome."""
    return comparable(record(DRIVERS[driver](build(name))), driver)


def comparable(outcome: dict, driver: str) -> dict:
    """The fields of ``outcome`` that ``driver`` must reproduce.

    The process pool's host cache only receives the workers' deltas, so its
    engine-wide traffic is not the fleet's; each batch's hits and misses
    are still pinned by the decisions.
    """
    if driver == "cluster":
        return {k: v for k, v in outcome.items() if k != "plan_cache"}
    return outcome


def load() -> dict:
    return json.loads(GOLDENS.read_text())


def render() -> str:
    """The fixture's bytes, generated through ``engine.run``."""
    goldens = {name: serve(name, "run") for name in CASES}
    return json.dumps(goldens, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDENS.write_text(render())
    print(f"wrote {len(CASES)} cases to {GOLDENS}")
