"""Serving throughput under sustained multi-request load.

Drives the :class:`~repro.runtime.serving.ServingEngine` with the paper's
Figure 11/12 traffic shapes — BERT batches with dataset-drawn variable
sequence lengths, OPT batches with ReLU activation sparsity, and Longformer
single-sequence requests with dynamic global attention — and reports:

* aggregate throughput and per-request latency/queueing-delay percentiles,
* the PlanCache hit rate, and
* the amortization headline: steady-state kernel-selection overhead per
  request vs the cold-start cost of running Algorithm 1 (the acceptance
  criterion is at least 10x; the deployed system's Section 5.5 equivalent
  is reusing its 30-100us search across invocations).  The gate compares
  the *medians* of the per-request shares, as the selection fast-path gate
  does: a few warm lookups slowed by a loaded host move the mean ratio
  (printed next to it) but not the median one.

Run:  PYTHONPATH=src python benchmarks/bench_serving_throughput.py
"""

from __future__ import annotations

import statistics

from repro.core import PlanCache
from repro.hw import V100
from repro.models import (
    bert_workload,
    longformer_workload,
    opt_inference_workload,
)
from repro.runtime import ServingEngine, format_table


def drive(engine: ServingEngine, label: str, workloads, *, interarrival_us):
    engine.submit_many(workloads, interarrival_us=interarrival_us)
    report = engine.run()
    sel = report.selection_summary()
    return report, sel, [
        label,
        len(report.requests),
        len(report.batches),
        report.throughput_tokens_per_s,
        report.mean_latency_us / 1e3,
        report.p95_latency_us / 1e3,
        report.mean_queue_us / 1e3,
        f"{report.plan_cache_stats['hit_rate'] * 100:.0f}%",
    ]


def main():
    cache = PlanCache()
    engine = ServingEngine(
        V100,
        max_batch_tokens=8192,
        max_batch_size=8,
        plan_cache=cache,
        enforce_memory=False,
    )

    streams = [
        (
            "BERT/mnli",
            [bert_workload("mnli", 8, seed=s) for s in range(24)],
            1500.0,
        ),
        (
            "BERT/cola",
            [bert_workload("cola", 8, seed=s) for s in range(24)],
            1500.0,
        ),
        (
            "OPT-125m/alpaca",
            [opt_inference_workload("125m", 4, seed=s % 4) for s in range(12)],
            4000.0,
        ),
        (
            "Longformer-2k",
            [longformer_workload(seq_len=2048, seed=s % 3) for s in range(6)],
            8000.0,
        ),
    ]

    rows = []
    cold_us, warm_us = [], []
    per_request_cold, per_request_warm = [], []
    for label, workloads, gap in streams:
        report, sel, row = drive(engine, label, workloads, interarrival_us=gap)
        rows.append(row)
        for b in report.batches:
            share = b.selection_us / b.size
            if b.cache_misses > 0:
                cold_us.append(b.selection_us)
                per_request_cold.append(share)
            elif b.cache_hits > 0:
                warm_us.append(b.selection_us)
                per_request_warm.append(share)

    print(
        format_table(
            ["stream", "reqs", "batches", "tok/s", "mean ms", "p95 ms",
             "queue ms", "hit rate"],
            rows,
            title="Serving throughput (V100, PIT backend, token-budget batching)",
        )
    )

    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
    if not warm_us:
        # Zero warm batches would make the amortization ratio inf and the
        # >=10x gate below pass vacuously without measuring anything.
        raise SystemExit(
            "FAIL: no warm (all-cache-hit) batches were observed — the "
            "amortization gate would be vacuous; the PlanCache is not "
            "amortizing across requests"
        )
    cold = statistics.median(per_request_cold)
    warm = statistics.median(per_request_warm)
    amortization = cold / warm if warm > 0 else float("inf")
    mean_warm = mean(per_request_warm)
    mean_ratio = (
        mean(per_request_cold) / mean_warm if mean_warm > 0 else float("inf")
    )
    print()
    print(
        format_table(
            ["phase", "batches", "selection us/batch",
             "us/request (mean)", "us/request (median)"],
            [
                ["cold (Algorithm 1 runs)", len(cold_us), mean(cold_us),
                 mean(per_request_cold), cold],
                ["steady (PlanCache hits)", len(warm_us), mean(warm_us),
                 mean_warm, warm],
            ],
            title="Kernel-selection overhead: cold start vs steady state",
        )
    )
    print()
    stats = cache.stats()
    print(
        f"plan cache: {stats['hits']} hits / {stats['misses']} misses "
        f"({stats['hit_rate'] * 100:.1f}% hit rate, "
        f"{stats['size']}/{stats['capacity']} entries)"
    )
    print(f"amortization: steady-state selection is {amortization:.1f}x "
          f"cheaper per request than cold start (median ratio; mean ratio "
          f"{mean_ratio:.1f}x)")
    if amortization < 10:
        raise SystemExit(
            f"FAIL: expected >= 10x selection amortization, got {amortization:.1f}x"
        )
    print("OK: amortization >= 10x")


if __name__ == "__main__":
    main()
