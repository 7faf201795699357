"""Self-test of the benchmark itself.

Run from the repository root, either way::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

It serves every workload twice at a tiny size (the probe golden covers
the output check there) and checks that the simulated clock and the
decision digest repeat exactly, that every metric the benchmark prints is
declared in ``BENCHMARK.json`` under a well-formed name, and that a
perturbed golden is reported as a failure.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workload  # noqa: E402

TINY = ["--requests", "24", "--seconds", "0.5", "--seed", "7"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(name: str, trace: int) -> tuple:
    """Run the benchmark once; returns (result line, full result record)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--trace", str(trace), *TINY],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
        check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads(
        (workload.OUT / f"result-{name}-7-trace{trace}.json").read_text()
    )
    return result, record


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        trace: {m["name"] for m in spec[group]}
        for trace, group in ((0, "end_to_end"), (1, "per_layer"))
    }


def test_workloads_repeat_and_names_are_declared():
    declared = _declared()
    for name in sorted(workload.WORKLOADS):
        first, first_record = _bench(name, 0)
        second, second_record = _bench(name, 0)
        for result in (first, second):
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] > 0
            assert set(result["metrics"]) == declared[0]
        assert first_record["digest"] == second_record["digest"]
        for metric in workload.SIM_METRICS:
            assert (
                first["metrics"][metric]["value"]
                == second["metrics"][metric]["value"]
            ), metric
    for name in ("serve_drift", "serve_cluster"):
        traced, record = _bench(name, 1)
        assert traced["correct"], record["notes"]
        assert set(traced["metrics"]) == declared[1]
        assert (ROOT / record["chrome_trace"]).exists()
    for names in declared.values():
        for metric in names:
            assert NAME.fullmatch(metric) and len(metric) <= 64, metric


def test_perturbed_golden_is_a_failure():
    goldens = workload.load_goldens()
    key = workload.golden_key(
        "steady", True, workload.PROBE_REQUESTS, workload.PROBE_SEED
    )
    golden = goldens[key]
    observed = {"digest": golden["digest"], "sim": dict(golden["sim"])}
    assert workload.mismatches(observed, golden) == []

    perturbed_sim = dict(golden["sim"])
    perturbed_sim["sim_latency_ms.p95"] += 1e-9
    for bad in (
        {"digest": golden["digest"][::-1], "sim": golden["sim"]},
        {"digest": golden["digest"], "sim": perturbed_sim},
    ):
        checker = workload.Checker()
        checker.expect_equal("perturbed", observed, bad)
        assert checker.failed == 1 and checker.notes, bad


if __name__ == "__main__":
    test_perturbed_golden_is_a_failure()
    test_workloads_repeat_and_names_are_declared()
    print("perfbench self-test: OK")
