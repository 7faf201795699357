"""Cold Algorithm 1 search: cover-grid pyramid vs the naive per-shape scan.

The paper's online compilation budget (Section 5.5: 30-100us per search;
Figure 18: index construction under 10% of kernel time) rests on never
re-scanning the raw mask per candidate micro-tile shape.  This benchmark
times a *cold* ``kernel_selection`` on Figure-18-style masks (fine-grained
95-99% sparse, 4k x 4k) two ways:

* the pre-pyramid loop (``tests/selection_oracle.py``): one naive padded
  cover scan per distinct micro-tile shape per sample, per-sample Python
  iteration;
* ``kernel_selection`` — the pyramid: one base grid per mask, coarser
  grids derived by pooled reductions, samples stacked and evaluated
  batched.

Gates:

1. every case's median cold-search speedup is >= ``SPEEDUP_GATE`` (5x);
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

# The pre-pyramid loop lives with the tests that pin the fast path to it.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from selection_oracle import oracle_kernel_selection  # noqa: E402

SIZE = 4096
REPEATS = 3
SPEEDUP_GATE = 5.0
OUT_PATH = Path("BENCH_selection.json")

#: (name, sparsity, number of stacked samples) — Figure 18's fine-grained
#: regime at the paper's two headline sparsity levels, plus a two-sample
#: case so the batched evaluator is exercised.
CASES = [
    ("fine-0.95", 0.95, 1),
    ("fine-0.99", 0.99, 1),
    ("fine-0.99-s2", 0.99, 2),
]


def fine_grained_masks(sparsity: float, num_samples: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [rng.random((SIZE, SIZE)) >= sparsity for _ in range(num_samples)]


def run_case(tiledb, sparsity: float, num_samples: int):
    """Median cold-search time of both paths plus per-repeat mismatches."""
    naive_us, fast_us, mismatches = [], [], []
    fast_choice = None
    for rep in range(REPEATS):
        # Fresh masks per repeat: every run is a true cold search (no state
        # survives a kernel_selection call), and the medians average over
        # pattern draws the way Algorithm 1 averages over samples.
        masks = fine_grained_masks(sparsity, num_samples, seed=rep)
        naive_choice = oracle_kernel_selection(masks, SIZE, SIZE, SIZE, tiledb)
        fast_choice = kernel_selection(masks, SIZE, SIZE, SIZE, tiledb)
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
    failures = []
    rows = []
    results = []
    for name, sparsity, num_samples in CASES:
        naive_us, fast_us, mismatches, fast_choice = run_case(
            tiledb, sparsity, num_samples
        )
        speedup = naive_us / fast_us if fast_us > 0 else float("inf")
        rows.append([
            name,
            num_samples,
            f"{naive_us / 1e3:.1f}",
            f"{fast_us / 1e3:.1f}",
            f"{speedup:.1f}x",
            fast_choice.describe(),
        ])
        results.append({
            "case": name,
            "sparsity": sparsity,
            "num_samples": num_samples,
            "naive_median_us": naive_us,
            "fast_median_us": fast_us,
            "speedup": speedup,
        })
        if speedup < SPEEDUP_GATE:
            failures.append(
                f"{name}: pyramid path {speedup:.1f}x vs naive "
                f"(need >= {SPEEDUP_GATE:.0f}x)"
            )
        failures.extend(f"{name}: {m}" for m in mismatches)

    print(
        format_table(
            ["case", "samples", "naive ms", "pyramid ms", "speedup",
             "choice"],
            rows,
            title=(
                f"Cold Algorithm 1 search, {SIZE}x{SIZE} fine-grained masks "
                f"(median of {REPEATS})"
            ),
        )
    )

    # Per-rule attribution of one cold fast-path search (the profile hook).
    profile = {}
    kernel_selection(
        fine_grained_masks(0.99, 1, seed=0), SIZE, SIZE, SIZE, tiledb,
        profile=profile,
    )
    slowest = sorted(
        profile["rules"], key=lambda r: r["eval_us"], reverse=True
    )[:3]
    print("\nslowest candidate evaluations (fast path):")
    for r in slowest:
        print(
            f"  axis={r['pit_axis']} micro-tile={r['microtile']:>6s} "
            f"tile={r['tile']}: {r['eval_us']:.0f} us"
        )

    payload = {
        "mask_size": SIZE,
        "repeats": REPEATS,
        "speedup_gate": SPEEDUP_GATE,
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
        "OK: pyramid fast path >= "
        f"{SPEEDUP_GATE:.0f}x on every case with identical KernelChoice"
    )


if __name__ == "__main__":
    main()
