"""One benchmark workload in one fresh interpreter.

``run.py`` starts this script once per measurement so that no
process-wide memo (``TileDB.shared``, ``PlanCache.shared``, numpy's
first-call costs) carries warm state from one workload into another.

Modes:

* ``setup``: import, build the inputs, set up (for warm workloads, serve
  one warm-up pass that fills the plan cache) and report ``setup_s``.
* ``measure``: the same set-up, then timed passes for ``--seconds``
  seconds, output checks against the goldens, and (``--trace 1``) traced
  passes interleaved with untraced ones.

Both modes time the host-speed reference loop (``hostspeed.py``) after
set-up, and ``measure`` after every pass, and report times scaled by it.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.selection import PlanCache
from repro.hw import V100
from repro.runtime import ServingEngine, cluster_replay_trace, decision_trace

import hostspeed
import traces

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
OUT = HERE / "out"

#: Two replicas (one per core of the 2-core reference box), no batch-open
#: speculation (the process pool requires it off, and all three workloads
#: must make the same decisions), and simulated latencies that exclude
#: measured selection wall time, so the simulated clock is deterministic.
ENGINE = dict(
    replicas=2,
    max_batch_tokens=8192,
    max_batch_size=4,
    batch_window_us=2000.0,
    enforce_memory=False,
    overlap_selection=False,
    charge_selection=False,
)
#: Open-loop arrival gap on the simulated clock: ~55% replica utilization,
#: below saturation, so queueing stays bounded on every seed.
INTERARRIVAL_US = 9000.0

#: workload -> (trace kind, served through the process pool, warm cache).
WORKLOADS = {
    "serve_steady": ("steady", False, True),
    "serve_drift": ("drift", False, False),
    "serve_cluster": ("steady", True, True),
}

#: A pass is timed at least this many times, however short ``--seconds``.
MIN_PASSES = 3
#: The fixed trace every run checks when its own seed has no golden.
PROBE_SEED = 0
PROBE_REQUESTS = 40

SIM_METRICS = (
    "sim_makespan_ms",
    "sim_latency_ms.p50",
    "sim_latency_ms.p95",
    "sim_tokens_per_s",
)


def serve_pass(trace, cache: PlanCache, cluster: bool):
    """Serve ``trace`` once through the public serving API."""
    engine = ServingEngine(V100, plan_cache=cache, **ENGINE)
    requests = engine.submit_many(trace, interarrival_us=INTERARRIVAL_US)
    if cluster:
        return cluster_replay_trace(engine, requests)
    return engine.run(policy="continuous")


def summarize(report) -> dict:
    """Digest, simulated-clock values and failures of one served pass."""
    decisions = decision_trace(report, include_timing=True)
    blob = json.dumps(decisions, sort_keys=True, separators=(",", ":"))
    latencies = [r.latency_us for r in report.requests if r.ok]
    return {
        "digest": hashlib.sha256(blob.encode()).hexdigest(),
        "sim": {
            "sim_makespan_ms": report.makespan_us / 1e3,
            "sim_latency_ms.p50": float(np.percentile(latencies, 50)) / 1e3,
            "sim_latency_ms.p95": float(np.percentile(latencies, 95)) / 1e3,
            "sim_tokens_per_s": float(report.throughput_tokens_per_s),
        },
        "requests": len(report.requests),
        "batches": len(report.batches),
        "failed": sum(1 for r in report.requests if not r.ok or r.shed),
    }


def golden_key(kind: str, warm: bool, requests: int, seed: int) -> str:
    return f"{kind}-{'warm' if warm else 'cold'}/{requests}/{seed}"


def load_goldens() -> dict:
    with open(GOLDENS) as f:
        return json.load(f)["entries"]


def mismatches(observed: dict, golden: dict) -> list:
    """What differs between a pass summary and its golden, as strings."""
    found = []
    if observed["digest"] != golden["digest"]:
        found.append(
            f"decision digest {observed['digest'][:12]} != golden "
            f"{golden['digest'][:12]}"
        )
    for name in SIM_METRICS:
        if observed["sim"][name] != golden["sim"][name]:
            found.append(
                f"{name} {observed['sim'][name]!r} != golden "
                f"{golden['sim'][name]!r}"
            )
    return found


def _reset_peak_rss() -> int:
    """Reset the kernel's peak-RSS mark; returns current RSS in KiB."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    return _status_kib("VmRSS")


def _status_kib(field: str) -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


class Checker:
    """Counts served requests and every failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def served(self, summary: dict) -> None:
        self.attempted += summary["requests"]
        self.failed += summary["failed"]

    def expect_equal(self, what: str, observed: dict, reference: dict) -> None:
        for problem in mismatches(observed, reference):
            self.failed += 1
            self.notes.append(f"{what}: {problem}")


def _check_probe(kind, cluster, warm, goldens, checker) -> None:
    """Serve the fixed probe trace and compare it with its golden."""
    trace = traces.make_trace(kind, PROBE_SEED, PROBE_REQUESTS)
    cache = PlanCache()
    summary = summarize(serve_pass(trace, cache, cluster))
    if warm:
        checker.served(summary)
        summary = summarize(serve_pass(trace, cache, cluster))
    checker.served(summary)
    key = golden_key(kind, warm, PROBE_REQUESTS, PROBE_SEED)
    checker.expect_equal(f"probe {key}", summary, goldens[key])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--requests", type=int, default=traces.DEFAULT_REQUESTS)
    parser.add_argument(
        "--spawned-at", type=float, required=True,
        help="time.monotonic() of the parent just before it started us",
    )
    args = parser.parse_args(argv)
    kind, cluster, warm = WORKLOADS[args.workload]

    gen_start = time.monotonic()
    trace = traces.make_trace(kind, args.seed, args.requests)
    input_s = time.monotonic() - gen_start

    # Peak RSS counts from here: what set-up and serving add on top of the
    # interpreter, the imports and the inputs.
    rss_inputs_kib = _reset_peak_rss()
    cache = PlanCache()
    if warm:
        serve_pass(trace, cache, cluster)
    gc.collect()
    unscaled_setup_s = time.monotonic() - args.spawned_at - input_s
    # The host's speed right after set-up scales it (see hostspeed.py).
    reference_s = hostspeed.sample(2 * hostspeed.REPEATS)
    setup_s = hostspeed.scaled(unscaled_setup_s, reference_s)
    if args.mode == "setup":
        print(json.dumps({
            "setup_s": setup_s, "unscaled_setup_s": unscaled_setup_s,
        }))
        return 0

    checker = Checker()
    walls, summaries = [], []
    traced_walls, traced_summaries = [], []
    recorder = last_traced = None
    if args.trace:
        import tracer

        recorder = tracer.Recorder()
    begin = time.perf_counter()
    while True:
        traced = recorder is not None and len(walls) > len(traced_walls)
        pass_cache = cache if warm else PlanCache()
        start = time.perf_counter()
        if traced:
            recorder.clear()
            report = recorder.run_pass(
                lambda: serve_pass(trace, pass_cache, cluster)
            )
            traced_walls.append(time.perf_counter() - start)
            last_traced = pass_cache
        else:
            report = serve_pass(trace, pass_cache, cluster)
            walls.append(time.perf_counter() - start)
            if len(walls) == 1:
                # Before any traced pass, whose spans would count too.
                peak_rss_kib = _status_kib("VmHWM") - rss_inputs_kib
        reference_s += hostspeed.sample()
        summary = summarize(report)
        checker.served(summary)
        (traced_summaries if traced else summaries).append(summary)
        del report
        gc.collect()
        done = time.perf_counter() - begin >= args.seconds
        if done and len(walls) >= MIN_PASSES and (
            recorder is None or len(traced_walls) >= MIN_PASSES
        ):
            break

    # -- output checks ----------------------------------------------------
    reference = summaries[0]
    for i, summary in enumerate(summaries[1:] + traced_summaries, 1):
        checker.expect_equal(f"pass {i} vs pass 0", summary, reference)
    if cluster:
        in_process = summarize(serve_pass(trace, cache, False))
        checker.served(in_process)
        checker.expect_equal("cluster vs in-process", reference, in_process)
    goldens = load_goldens()
    key = golden_key(kind, warm, args.requests, args.seed)
    if key in goldens:
        checker.expect_equal(f"golden {key}", reference, goldens[key])
    else:
        _check_probe(kind, cluster, warm, goldens, checker)
        checker.notes.append(f"no golden for {key}; checked the probe trace")

    batches = reference["batches"]
    OUT.mkdir(exist_ok=True)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "requests": args.requests,
        "env": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "input_s": input_s,
        "setup_s": setup_s,
        "unscaled_setup_s": unscaled_setup_s,
        "pass_walls_s": walls,
        "traced_walls_s": traced_walls,
        "reference_s": reference_s,
        "unscaled_wall_ms_per_batch": (
            hostspeed.lower_quartile(walls) * 1e3 / batches
        ),
        "digest": reference["digest"],
        "golden": key if key in goldens else None,
        "notes": checker.notes,
        "attempted": checker.attempted,
        "failed": checker.failed,
    }
    metrics = {}
    if recorder is None:
        metrics["setup_s"] = setup_s
        metrics["wall_ms_per_batch"] = hostspeed.scaled(
            hostspeed.lower_quartile(walls), reference_s
        ) * 1e3 / batches
        metrics.update(reference["sim"])
    else:
        spans = recorder.spans
        metrics = tracer.layer_metrics(
            spans, recorder.counts, batches, reference["requests"]
        )
        metrics["plan.cache_entries"] = len(last_traced)
        metrics["peak_rss_mib"] = peak_rss_kib / 1024
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        )
        result["plan_and_samples_self_ms_per_batch"] = tracer.self_ms(
            spans, ("plan", "samples")
        ) / batches
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write_chrome_trace(spans, trace_path, result["env"])
        result["chrome_trace"] = str(trace_path.relative_to(HERE.parent))
        print(tracer.format_table(spans, batches))
    result["metrics"] = metrics
    record = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
