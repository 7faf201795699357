"""Two-clock serving benchmark: one command, every metric, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 15 --trace 0

Each measurement runs in a fresh interpreter (``perfbench/workload.py``)
pinned to one CPU, with BLAS/OpenMP pinned to one thread.  ``--trace 0`` reports the
end-to-end metrics, with ``setup_s`` the median of several fresh set-ups
and both times scaled to calm host speed (``perfbench/hostspeed.py``);
``--trace 1`` reports the per-layer metrics of a traced run, prints the
per-layer table and writes a Chrome trace to ``perfbench/out/``.  Outputs
are checked against ``perfbench/goldens.json``.  The last line of standard
output is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"

#: Fresh set-ups per ``--trace 0`` run (the measuring one included).
SETUP_RUNS = 4
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 150


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # One BLAS/OpenMP thread per process: the two replicas of the cluster
    # workload already occupy both cores of the reference box.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(args, mode: str) -> tuple:
    """Run one fresh-interpreter workload process; returns (result, lines)."""
    command = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
    ]
    if args.requests is not None:
        command += ["--requests", str(args.requests)]
    spawned_at = time.monotonic()
    proc = subprocess.run(
        command + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{args.workload} ({mode}) exited with {proc.returncode}"
        )
    lines = proc.stdout.splitlines()
    if not lines:
        raise SystemExit(f"{args.workload} ({mode}) printed no result")
    return json.loads(lines[-1]), lines[:-1]


def _declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(BENCHMARK) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--requests", type=int, default=None,
        help="requests per trace (default: the size the goldens cover)",
    )
    args = parser.parse_args(argv)
    declared = _declared_metrics(args.trace)
    # Every process of a run (and the cluster's forked workers) inherits
    # one CPU: the replay dispatches synchronously, so a second core only
    # adds cross-core wake-ups and migrations to the timings.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    setups, unscaled_setups = [], []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setup = _run_child(args, "setup")[0]
            setups.append(setup["setup_s"])
            unscaled_setups.append(setup["unscaled_setup_s"])
    result, lines = _run_child(args, "measure")
    setups.append(result["setup_s"])
    unscaled_setups.append(result["unscaled_setup_s"])
    for line in lines:
        print(line)

    measured = result["metrics"]
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
    if set(measured) != set(declared):
        raise SystemExit(
            f"measured metrics {sorted(set(measured) ^ set(declared))} "
            f"disagree with {BENCHMARK.name}"
        )
    print(
        "# env: " + json.dumps(result["env"], sort_keys=True)
        + f"  setups_s: {setups}  passes: {len(result['pass_walls_s'])}"
        + f"  golden: {result['golden'] or 'probe'}"
    )
    print(
        "# unscaled (see hostspeed.py): wall_ms_per_batch = "
        f"{result['unscaled_wall_ms_per_batch']:.6g} ms, setup_s = "
        f"{statistics.median(unscaled_setups):.6g} s"
    )
    for note in result["notes"]:
        print(f"# check: {note}")
    for name, value in measured.items():
        print(f"# {name} = {value:.6g} {declared[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": declared[name]}
            for name, value in measured.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
