"""Import budget: a serving process loads only the serving path.

A child interpreter under ``-W error`` imports numpy, then runs the three
``repro`` import lines of ``perfbench/workload.py``, and serves a small
mixed trace (BERT, activation-sparse OPT, Switch, Longformer) twice
through one plan cache: a cold pass, then a warm one.  The test pins what
that process loads:

* no asyncio (only the live front end needs it);
* nothing of the linter but ``repro.analysis.runtime_checks``, which
  supplies the runtime's locks;
* no session, training or report module;
* no baseline module but the dense base backend and PIT's;
* at most ``BUDGET_MODULES`` ``repro`` modules;
* no module first imported during a pass: the import pays for everything
  a pass needs.

It counts modules, not time, so a loaded machine cannot make it flake.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: ``repro`` modules (and their lines) a serving import loaded at commit
#: ad9611a, when every package imported all of its modules eagerly.
PARENT_MODULES, PARENT_LINES = 71, 13_640
#: What a serving import loads since package exports resolve on first use.
BUDGET_MODULES = 47

CHILD = """
import json
import sys

import numpy as np

from repro.core.selection import PlanCache
from repro.hw import V100
from repro.runtime import ServingEngine, cluster_replay_trace, decision_trace

from repro.models import (
    bert_workload, longformer_workload, opt_inference_workload, switch_workload,
)

workloads = []
for seed in range(3):
    workloads += [
        bert_workload("mnli", 8, seed=seed),
        opt_inference_workload("125m", 2, act_sparsity=0.9, seed=seed),
        switch_workload(16, 2, seed=seed),
        longformer_workload("base", 1024, seed=seed),
    ]
loaded = set(sys.modules)
imported, passes, cache = sorted(loaded), [], PlanCache()
for _ in range(2):
    engine = ServingEngine(
        V100, plan_cache=cache, replicas=2, max_batch_tokens=8192,
        max_batch_size=4, batch_window_us=2000.0, enforce_memory=False,
        overlap_selection=False, charge_selection=False,
    )
    engine.submit_many(workloads, interarrival_us=9000.0)
    report = engine.run(policy="continuous")
    assert all(r.ok for r in report.requests), decision_trace(report)
    passes.append(sorted(set(sys.modules) - loaded))
    loaded = set(sys.modules)
lines = 0
for name in imported:
    if name.partition(".")[0] == "repro":
        with open(sys.modules[name].__file__) as source:
            lines += sum(1 for _ in source)
print(json.dumps({"imported": imported, "passes": passes, "lines": lines}))
"""


def serving_process() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", CHILD],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_serving_process_imports_only_the_serving_path():
    child = serving_process()
    imported = child["imported"]
    repro = [name for name in imported if name.partition(".")[0] == "repro"]
    summary = (
        f"repro modules a serving import loads: {len(repro)} "
        f"({child['lines']:,} lines); at ad9611a {PARENT_MODULES} "
        f"({PARENT_LINES:,} lines); budget {BUDGET_MODULES}"
    )
    print(summary)
    assert [n for n in imported if n.partition(".")[0] == "asyncio"] == []
    assert [
        name for name in repro
        if name.startswith("repro.analysis.")
        and name != "repro.analysis.runtime_checks"
    ] == []
    assert [
        name for name in repro
        if name in (
            "repro.runtime.training", "repro.runtime.session",
            "repro.runtime.report",
        )
    ] == []
    assert [
        name for name in repro
        if name.startswith("repro.baselines.")
        and name not in ("repro.baselines.backends", "repro.baselines.pit_backend")
    ] == []
    assert len(repro) <= BUDGET_MODULES, summary
    cold, warm = child["passes"]
    assert cold == [] and warm == []
