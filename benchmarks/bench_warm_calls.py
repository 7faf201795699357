"""Warm serving calls: a deterministic budget on a warm batch's Python work.

A warm serving batch does no search: it looks its plans up in the shared
:class:`~repro.core.selection.PlanCache` and prices the merged workload
with ``run_transformer``.  Its wall time is Python overhead, and the number
of Python-level calls measures that overhead without reading a clock, so
this gate cannot flake on a loaded runner.

The gate serves a fixed mixed trace (BERT, activation-sparse OPT,
Switch-16/64, Longformer and Museformer requests) twice through one plan
cache, then counts the ``sys.setprofile`` "call" events of the second,
all-hit pass, engine construction included, per served batch.  The count
is taken in two child interpreters under different ``PYTHONHASHSEED``
values and must repeat exactly; it fails above ``BUDGET_CALLS_PER_BATCH``.

Run:  PYTHONPATH=src python benchmarks/bench_warm_calls.py
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.core import PlanCache
from repro.hw import V100
from repro.models import (
    bert_workload,
    longformer_workload,
    museformer_workload,
    opt_inference_workload,
    switch_workload,
)
from repro.runtime import ServingEngine

#: Calls per batch of the pass below before the warm path was trimmed
#: (commit 2e8686f), and the budget: 347.68 calls, with one ``moe_ffn``
#: call per run that prices each distinct row-tile count once, plus about
#: 5%.
PARENT_CALLS_PER_BATCH = 641.62
BUDGET_CALLS_PER_BATCH = 365.0

#: Two replicas, no batch-open speculation and no measured selection time
#: in the simulated schedule: the serving set-up of ``perfbench``.
ENGINE = dict(
    replicas=2,
    max_batch_tokens=8192,
    max_batch_size=4,
    batch_window_us=2000.0,
    enforce_memory=False,
    overlap_selection=False,
    charge_selection=False,
)
INTERARRIVAL_US = 9000.0
VARIANTS = (
    lambda seed: bert_workload("mnli", 8, seed=seed),
    lambda seed: bert_workload("qqp", 8, seed=seed),
    lambda seed: opt_inference_workload("125m", 2, act_sparsity=0.9, seed=seed),
    lambda seed: opt_inference_workload("125m", 2, act_sparsity=0.99, seed=seed),
    lambda seed: switch_workload(16, 2, seed=seed),
    lambda seed: switch_workload(64, 2, seed=seed),
    lambda seed: longformer_workload("base", 1024, seed=seed),
    lambda seed: museformer_workload(1024, seed=seed),
)
REQUESTS = 5 * len(VARIANTS)


def stream() -> list:
    return [
        VARIANTS[i % len(VARIANTS)](i // len(VARIANTS))
        for i in range(REQUESTS)
    ]


def serve(workloads, cache: PlanCache):
    engine = ServingEngine(V100, plan_cache=cache, **ENGINE)
    engine.submit_many(workloads, interarrival_us=INTERARRIVAL_US)
    return engine.run(policy="continuous")


def calls_per_batch() -> float:
    """Python-level calls per batch of one warm pass."""
    workloads, cache = stream(), PlanCache()
    serve(workloads, cache)  # fills the plan cache
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        report = serve(workloads, cache)
    finally:
        sys.setprofile(None)
    return calls / len(report.batches)


def count_in_child(hash_seed: str) -> float:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-W", "error", __file__, "--count"],
        env=env, capture_output=True, text=True, check=True,
    )
    return float(out.stdout.split()[-1])


def main() -> None:
    if sys.argv[1:] == ["--count"]:
        print(f"{calls_per_batch():.2f}")
        return
    counts = {seed: count_in_child(seed) for seed in ("0", "1")}
    for seed, count in counts.items():
        print(f"PYTHONHASHSEED={seed}: {count:.2f} calls per warm batch")
    count = counts["0"]
    print(
        f"parent {PARENT_CALLS_PER_BATCH:.2f} -> now {count:.2f} calls per "
        f"warm batch ({count / PARENT_CALLS_PER_BATCH - 1:+.1%}); budget "
        f"{BUDGET_CALLS_PER_BATCH:.2f}"
    )
    failures = []
    if len(set(counts.values())) > 1:
        failures.append(f"the count depends on the hash seed: {counts}")
    if count > BUDGET_CALLS_PER_BATCH:
        failures.append(
            f"{count:.2f} calls per warm batch exceed the budget of "
            f"{BUDGET_CALLS_PER_BATCH:.2f}"
        )
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    print("OK: warm-batch call budget holds")


if __name__ == "__main__":
    main()
