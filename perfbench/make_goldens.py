"""Regenerate ``perfbench/goldens.json``: the reference outputs every run
checks against.

For each seed, the golden of a trace kind is the summary of one served pass
(:func:`workload.summarize`): the sha256 of
``decision_trace(report, include_timing=True)`` and the simulated-clock
metrics.  Hit/miss fields are only comparable like with like, so the
``steady`` golden is a *warm* pass (served after a warm-up pass over the
same trace) and the ``drift`` golden a *cold* one (empty plan cache).
``serve_cluster`` is checked against the ``steady`` golden.

Goldens pin the behaviour of the commit they were made from.  Make them
from the parent of a change, not from the change itself::

    git archive <parent> src | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python3 perfbench/make_goldens.py
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.selection import PlanCache

import traces
import workload

#: Goldens cover seeds 0..GOLDEN_SEEDS-1 at the default trace size.
GOLDEN_SEEDS = 100


def golden(kind: str, warm: bool, seed: int, requests: int) -> dict:
    trace = traces.make_trace(kind, seed, requests)
    cache = PlanCache()
    report = workload.serve_pass(trace, cache, False)
    if warm:
        report = workload.serve_pass(trace, cache, False)
    summary = workload.summarize(report)
    if summary["failed"]:
        raise SystemExit(f"{kind} seed {seed}: {summary['failed']} failed")
    return {"digest": summary["digest"], "sim": summary["sim"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=GOLDEN_SEEDS,
                        help="golden seeds 0..N-1")
    args = parser.parse_args(argv)
    plan = [
        (kind, warm, seed, traces.DEFAULT_REQUESTS)
        for seed in range(args.seeds)
        for kind, warm in (("steady", True), ("drift", False))
    ]
    plan += [
        (kind, warm, workload.PROBE_SEED, workload.PROBE_REQUESTS)
        for kind, warm in (("steady", True), ("drift", False))
    ]
    entries = {}
    for kind, warm, seed, requests in plan:
        key = workload.golden_key(kind, warm, requests, seed)
        entries[key] = golden(kind, warm, seed, requests)
        print(key, entries[key]["digest"][:12], file=sys.stderr)
    with open(workload.GOLDENS, "w") as f:
        json.dump({"format": 1, "entries": entries}, f, indent=1,
                  sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
