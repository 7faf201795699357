"""Cold Algorithm 1 search: the stacked evaluator vs the naive per-rule loop.

The paper's online compilation budget (Section 5.5: 30-100us per search;
Figure 18: index construction under 10% of kernel time) rests on never
re-scanning the raw mask per candidate micro-tile shape and on scoring the
candidates cheaply.  This benchmark times a *cold* ``kernel_selection``
two ways:

* the pre-pyramid loop (``tests/selection_oracle.py``): one naive padded
  cover scan per distinct micro-tile shape per sample, and every rule
  priced one sample at a time in Python;
* ``kernel_selection``: one cover pyramid for all samples (coarser grids
  derived by pooled reductions), and every (rule, sample) pair scored in
  one array pass.

Two families of cases:

* Figure-18-style masks (fine-grained 95-99% sparse, 4k x 4k), where the
  pyramid dominates;
* single-sample masks at the serving engine's sample sizes (a 512x256
  token mask, a 256x1024 ReLU activation sample), where the per-rule
  pricing did.

Gates:

1. every 4k case's median cold-search speedup is >= ``SPEEDUP_GATE`` (5x),
   every serving-sized case's >= ``SERVING_SPEEDUP_GATE`` (4x); both are
   same-process ratios;
2. both paths return the identical ``KernelChoice`` (same tile, PIT-axis
   and micro-tile; cost equal to float tolerance) for every case.

The result lands in ``BENCH_selection.json`` (per-case medians plus the
overall median cold-search time and batched sample count), giving future
PRs a perf trajectory to regress against.

Run:  PYTHONPATH=src python benchmarks/bench_selection_fastpath.py
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import numpy as np

from repro.core import TileDB, kernel_selection
from repro.hw import V100
from repro.runtime import format_table
from repro.sparsity import relu_activation_mask

# The pre-pyramid loop lives with the tests that pin the fast path to it.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from selection_oracle import oracle_kernel_selection  # noqa: E402

SIZE = 4096
REPEATS = 3
SERVING_REPEATS = 15
SPEEDUP_GATE = 5.0
SERVING_SPEEDUP_GATE = 4.0
OUT_PATH = Path("BENCH_selection.json")

#: (name, sparsity, number of stacked samples) — Figure 18's fine-grained
#: regime at the paper's two headline sparsity levels, plus a two-sample
#: case so the batched evaluator is exercised.
CASES = [
    ("fine-0.95", 0.95, 1),
    ("fine-0.99", 0.99, 1),
    ("fine-0.99-s2", 0.99, 2),
]


def fine_grained_case(sparsity: float, num_samples: int):
    def make(rep):
        rng = np.random.default_rng(rep)
        masks = [rng.random((SIZE, SIZE)) >= sparsity
                 for _ in range(num_samples)]
        return masks, (SIZE, SIZE, SIZE)
    return make


def token_case(rep):
    """The serving engine's token-projection sample: ``ServingEngine``'s
    512x256 mask whose first rows are the real tokens."""
    mask = np.zeros((512, 256), dtype=bool)
    mask[:int(round((0.35 + 0.04 * rep) * 512))] = True
    return [mask], (512, 256, 256)


def relu_case(rep):
    """The serving engine's activation sample: 256x1024 post-ReLU."""
    mask = relu_activation_mask(256, 1024, 0.9 + 0.006 * rep, seed=rep)
    return [mask], (256, 1024, 256)


def run_case(tiledb, make_case, repeats: int):
    """Median cold-search time of both paths plus per-repeat mismatches."""
    naive_us, fast_us, mismatches = [], [], []
    fast_choice = None
    for rep in range(repeats):
        # Fresh masks per repeat: every run is a true cold search (only the
        # TileDB's rule table survives a kernel_selection call), and the
        # medians average over pattern draws the way Algorithm 1 averages
        # over samples.
        masks, (m, k, n) = make_case(rep)
        naive_choice = oracle_kernel_selection(masks, m, k, n, tiledb)
        fast_choice = kernel_selection(masks, m, k, n, tiledb)
        naive_us.append(naive_choice.search_time_us)
        fast_us.append(fast_choice.search_time_us)
        # Every repeat's pair must agree, not just the last: equivalence on
        # one mask draw says nothing about the others.
        if not choices_equivalent(fast_choice, naive_choice):
            mismatches.append(
                f"rep {rep}: fast chose {fast_choice.describe()} but naive "
                f"chose {naive_choice.describe()}"
            )
    return (
        statistics.median(naive_us),
        statistics.median(fast_us),
        mismatches,
        fast_choice,
    )


def choices_equivalent(a, b) -> bool:
    return (
        a.tile == b.tile
        and a.pit_axis == b.pit_axis
        and a.microtile == b.microtile
        and abs(a.est_cost_us - b.est_cost_us)
        <= 1e-6 * max(1.0, abs(b.est_cost_us))
    )


def main():
    tiledb = TileDB(V100, "float32")
    # Algorithm 1 builds the TileDB's rule table at its first search; a
    # serving process pays that once, so no timed search should.
    masks, (m, k, n) = token_case(0)
    kernel_selection(masks, m, k, n, tiledb)
    cases = [
        (name, num_samples, fine_grained_case(sparsity, num_samples),
         REPEATS, SPEEDUP_GATE, {"sparsity": sparsity})
        for name, sparsity, num_samples in CASES
    ]
    cases += [
        ("serving-token-512x256", 1, token_case, SERVING_REPEATS,
         SERVING_SPEEDUP_GATE, {}),
        ("serving-relu-256x1024", 1, relu_case, SERVING_REPEATS,
         SERVING_SPEEDUP_GATE, {}),
    ]
    failures = []
    rows = []
    results = []
    for name, num_samples, make_case, repeats, gate, extra in cases:
        naive_us, fast_us, mismatches, fast_choice = run_case(
            tiledb, make_case, repeats
        )
        speedup = naive_us / fast_us if fast_us > 0 else float("inf")
        rows.append([
            name,
            num_samples,
            f"{naive_us / 1e3:.2f}",
            f"{fast_us / 1e3:.2f}",
            f"{speedup:.1f}x",
            f">= {gate:.0f}x",
            fast_choice.describe(),
        ])
        results.append({
            "case": name,
            **extra,
            "num_samples": num_samples,
            "repeats": repeats,
            "naive_median_us": naive_us,
            "fast_median_us": fast_us,
            "speedup": speedup,
            "speedup_gate": gate,
        })
        if speedup < gate:
            failures.append(
                f"{name}: stacked path {speedup:.1f}x vs naive "
                f"(need >= {gate:.0f}x)"
            )
        failures.extend(f"{name}: {m}" for m in mismatches)

    print(
        format_table(
            ["case", "samples", "naive ms", "stacked ms", "speedup", "gate",
             "choice"],
            rows,
            title="Cold Algorithm 1 search (median over fresh mask draws)",
        )
    )

    # Where one cold search spends its time, stage by stage (profile hook).
    print("\ncold search stages (one profiled search per case):")
    for name, make_case in (
        ("fine-0.99", fine_grained_case(0.99, 1)),
        ("serving-token-512x256", token_case),
        ("serving-relu-256x1024", relu_case),
    ):
        masks, (m, k, n) = make_case(0)
        profile = {}
        kernel_selection(masks, m, k, n, tiledb, profile=profile)
        print(
            f"  {name}: cover {profile['cover_us']:.0f} us + score "
            f"{profile['score_us']:.0f} us = {profile['total_us']:.0f} us "
            f"({profile['num_rules']} rules x {profile['num_samples']} "
            f"sample(s))"
        )

    payload = {
        "mask_size": SIZE,
        "median_cold_search_us": statistics.median(
            r["fast_median_us"] for r in results
        ),
        "batch_count": max(r["num_samples"] for r in results),
        "cases": results,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {OUT_PATH}")

    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    print(
        f"OK: stacked path >= {SPEEDUP_GATE:.0f}x on every 4k case and >= "
        f"{SERVING_SPEEDUP_GATE:.0f}x on every serving-sized case, with "
        f"identical KernelChoice"
    )


if __name__ == "__main__":
    main()
