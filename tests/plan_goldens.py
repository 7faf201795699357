"""Golden plans of Algorithm 1 and of the PIT backend's priced runs.

Five sections, each a map from case name to its recorded outcome:

* ``selection`` — the :func:`~repro.core.selection.kernel_selection` choice
  (tile, PIT-axis, micro-tile, and the ``repr`` of the estimated cost and
  covered sparsity) over seeded ``granular_mask`` samples, across
  granularities, sparsities, both sparse operands, 1/3/9 samples and the
  dense fallback on and off.  Nine samples matter: from eight values on,
  numpy's pairwise sum no longer adds in sample order, so an averaging
  change shows up there first.
* ``nm`` — the :func:`~repro.core.selection.nm_kernel_selection` result
  (kernel choice, winning channel order, pattern) for 2:4 and 1:4 under
  the deterministic and the seeded ``("learned", 4, 0)`` policy.
* ``figures`` — the exact latency, convert time and peak memory of
  ``run_transformer`` on a PIT backend for the figure workloads (Figures
  8-14; Figure 19's GLUE workloads are Figure 11's), each priced once on a
  fresh backend and once through a :class:`PlanCache` shared by the whole
  sweep.
* ``baselines`` — the same latency, convert time and peak memory (plus
  ``oom``) of every non-PIT backend in the lineups of Figures 8-14 on their
  workloads, as ``run_lineup`` prices them for the figures.  MegaBlocks
  ships fp16 kernels only, so Figure 8's fp32 lineup omits it; Figure 12's
  large-4096 row holds its out-of-memory boundary.
* ``training`` — ``sparse_training_step("pit", ...)`` at four of Figure
  15's points.

``tests/test_plan_goldens.py`` compares every section exactly.  Regenerate
only when a change alters plans or prices on purpose::

    PYTHONPATH=src python tests/plan_goldens.py
"""

from __future__ import annotations

import contextlib
import functools
import json
from pathlib import Path

from repro.baselines import PITBackend, pit_backend
from repro.core import TileDB, kernel_selection, nm_kernel_selection
from repro.core.selection import PlanCache
from repro.hw import A100, V100
from repro.models import workloads
from repro.models import (
    bert_workload,
    longformer_workload,
    museformer_workload,
    opt_inference_workload,
    opt_training_workload,
    swin_moe_workload,
    switch_workload,
)
from repro.runtime import run_lineup, run_transformer, sparse_training_step
from repro.sparsity import BERT_DATASETS
from repro.sparsity.masks import granular_mask

GOLDENS = Path(__file__).resolve().parent / "fixtures" / "plan_goldens.json"

#: ``[m, k, n]`` of every selection case; the sparse operand's samples are
#: ``[m, k]`` (A) or ``[k, n]`` (B).
SELECTION_DIMS = (128, 256, 192)
GRANULARITIES = ((1, 1), (8, 1), (1, 8), (4, 4), (32, 1))
SPARSITIES = (0.5, 0.9, 0.99)
SAMPLE_COUNTS = (1, 3, 9)

#: ``[m, k, n]`` of the nm-sparse cases: large enough ``m`` that sparse
#: kernels beat the dense fallback, so the channel order matters.
NM_DIMS = (1024, 256, 192)
#: name -> (granularity, sparsity) of the three weight-mask samples.
NM_MASKS = {"g1x1-s0.99": ((1, 1), 0.99), "g1x32-s0.9": ((1, 32), 0.9)}
NM_PATTERNS = ((2, 4), (1, 4))
NM_POLICIES = {"deterministic": (), "learned": ("learned", 4, 0)}

#: Figure 8's fp16 and Figure 9's lineup without PIT; Figure 8's fp32
#: lineup drops MegaBlocks.
BASELINES = ("PyTorch", "PyTorch-S", "Tutel", "DeepSpeed", "MegaBlocks")
BASELINES_FP32 = BASELINES[:-1]
#: Figures 10-14's lineups without PIT, as ``benchmarks/bench_fig1*.py``
#: run them: TurboTransformer joins in Figure 11, Longformer-S in Figure 12.
DENSE_BASELINES = ("PyTorch", "PyTorch-S", "DeepSpeed")
FIGURE_BASELINES = {
    "fig10": DENSE_BASELINES,
    "fig11": DENSE_BASELINES + ("TurboTransformer",),
    "fig12": ("PyTorch", "PyTorch-S", "Longformer-S", "DeepSpeed"),
    "fig13": DENSE_BASELINES,
    "fig14": DENSE_BASELINES,
}


def _figure_cases() -> dict:
    """name -> (workload builder, device, dtype, run_transformer kwargs)."""
    cases = {}
    for batch in (8, 32):
        for experts in (64, 128, 256):
            build = (lambda e=experts, b=batch: switch_workload(e, b, seed=0))
            for dtype in ("float16", "float32"):
                cases[f"fig8-e{experts}-b{batch}-{dtype}"] = (
                    build, A100, dtype, {}
                )
    for batch in (8, 32):
        for experts in (8, 16, 32):
            cases[f"fig9-e{experts}-b{batch}"] = (
                lambda e=experts, b=batch: swin_moe_workload(e, b, seed=0),
                A100, "float16", {},
            )
    for size in ("13b", "30b"):
        cases[f"fig10-{size}"] = (
            lambda s=size: opt_inference_workload(s, 32, seed=0),
            V100, "float32", {"devices": 8},
        )
    for dataset in BERT_DATASETS:
        cases[f"fig11-{dataset}"] = (
            lambda d=dataset: bert_workload(d, 32, seed=0),
            V100, "float32", {},
        )
    for size, seq in (("base", 2048), ("large", 2048), ("base", 4096),
                      ("large", 4096)):
        cases[f"fig12-{size}-{seq}"] = (
            lambda s=size, q=seq: longformer_workload(s, q, batch_size=16,
                                                      seed=0),
            V100, "float32", {},
        )
    for seq in (1024, 4096, 7168):
        cases[f"fig13-{seq}"] = (
            lambda q=seq: museformer_workload(q, batch_size=4, seed=0),
            V100, "float32", {},
        )
    for size in ("125m", "350m", "1.3b"):
        cases[f"fig14-{size}"] = (
            lambda s=size: opt_training_workload(s, 8, seed=0),
            A100, "float32", {"mode": "training"},
        )
    return cases


FIGURE_CASES = _figure_cases()

#: name -> (block, sparsity) of Figure 15's points.
TRAINING_CASES = {
    "b32x64-s0.5": ((32, 64), 0.5),
    "b32x64-s0.98": ((32, 64), 0.98),
    "b32x1-s0.9": ((32, 1), 0.9),
    "b32x1-s0.96": ((32, 1), 0.96),
}


def _choice(choice) -> dict:
    tile, micro = choice.tile, choice.microtile
    return {
        "tile": None if tile is None else [tile.tm, tile.tk, tile.tn],
        "pit_axis": choice.pit_axis,
        "microtile": None if micro is None else list(micro.shape),
        "est_cost_us": repr(choice.est_cost_us),
        "covered_sparsity": repr(choice.covered_sparsity),
    }


def record_selection() -> dict:
    tiledb = TileDB.shared(V100, "float32")
    m, k, n = SELECTION_DIMS
    out = {}
    for operand, shape in (("A", (m, k)), ("B", (k, n))):
        for gh, gw in GRANULARITIES:
            for sparsity in SPARSITIES:
                for count in SAMPLE_COUNTS:
                    masks = [
                        granular_mask(shape, (gh, gw), sparsity, seed=seed)
                        for seed in range(count)
                    ]
                    for fallback in (True, False):
                        name = (
                            f"{operand}-g{gh}x{gw}-s{sparsity}-n{count}-"
                            f"{'fallback' if fallback else 'no-fallback'}"
                        )
                        out[name] = _choice(kernel_selection(
                            masks, m, k, n, tiledb, sparse_operand=operand,
                            include_dense_fallback=fallback,
                        ))
    return out


def record_nm() -> dict:
    tiledb = TileDB.shared(V100, "float32")
    m, k, n = NM_DIMS
    out = {}
    for mask_name, (granularity, sparsity) in NM_MASKS.items():
        masks = [
            granular_mask((k, n), granularity, sparsity, seed=seed)
            for seed in range(3)
        ]
        for pattern in NM_PATTERNS:
            for policy_name, policy in NM_POLICIES.items():
                got = nm_kernel_selection(
                    masks, m, k, n, tiledb, pattern=pattern,
                    permutation=policy,
                )
                out[f"{mask_name}-{pattern[0]}:{pattern[1]}-{policy_name}"] = {
                    "choice": _choice(got.choice),
                    "permutation": list(got.permutation),
                    "pattern": list(got.pattern),
                }
    return out


def _run(report) -> dict:
    return {
        "latency_ms": repr(report.latency_ms),
        "convert_ms": repr(report.convert_ms),
        "peak_mem_gib": repr(report.peak_mem_gib),
        "oom": report.oom,
    }


@contextlib.contextmanager
def _memoized(module, name: str):
    """Within the block, ``module.name`` (a pure function of its arguments)
    returns its last result again for repeated arguments."""
    original = getattr(module, name)
    setattr(module, name, functools.lru_cache(maxsize=1)(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def record_figures() -> dict:
    shared = PlanCache()
    out = {}
    last_build = workload = None
    # Both passes of an OPT case draw the same 2048 x d_ff activation mask,
    # and Longformer base and large at one length build the same mask
    # statistics: each is computed once (no caller mutates either result).
    with (
        _memoized(pit_backend, "relu_activation_mask"),
        _memoized(workloads, "longformer_mask_stats"),
    ):
        for name, (build, spec, dtype, kwargs) in FIGURE_CASES.items():
            if build is not last_build:  # Figure 8's dtypes share a build
                last_build, workload = build, build()
            out[name] = {
                "fresh": _run(run_transformer(
                    workload, PITBackend(spec, dtype), **kwargs
                )),
                "shared": _run(run_transformer(
                    workload, PITBackend(spec, dtype, plan_cache=shared),
                    **kwargs,
                )),
            }
    out["shared-cache"] = {
        key: shared.stats()[key] for key in ("size", "hits", "misses")
    }
    return out


def record_baselines() -> dict:
    out = {}
    last_build = workload = None
    for name, (build, spec, dtype, kwargs) in FIGURE_CASES.items():
        if build is not last_build:
            last_build, workload = build, build()
        figure = name.split("-")[0]
        if figure in FIGURE_BASELINES:
            lineup = FIGURE_BASELINES[figure]
        else:
            lineup = BASELINES if dtype == "float16" else BASELINES_FP32
        out[name] = {
            report.backend: _run(report)
            for report in run_lineup(workload, lineup, spec, dtype, **kwargs)
        }
    return out


def record_training() -> dict:
    out = {}
    for name, (block, sparsity) in TRAINING_CASES.items():
        report = sparse_training_step(
            "pit", V100, block=block, sparsity=sparsity,
            batch_tokens=32 * 128, seed=7,
        )
        out[name] = {
            "latency_ms": repr(report.latency_ms),
            "convert_ms": repr(report.convert_ms),
            "mem_gib": repr(report.mem_gib),
            "plan_hits": report.plan_hits,
            "plan_misses": report.plan_misses,
        }
    return out


#: section -> recorder.
SECTIONS = {
    "selection": record_selection,
    "nm": record_nm,
    "figures": record_figures,
    "baselines": record_baselines,
    "training": record_training,
}


def record() -> dict:
    """Every section's outcome, in JSON form."""
    return {name: recorder() for name, recorder in SECTIONS.items()}


def load() -> dict:
    return json.loads(GOLDENS.read_text())


def render() -> str:
    """The fixture's bytes."""
    return json.dumps(record(), indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDENS.write_text(render())
    print(f"wrote {len(SECTIONS)} sections to {GOLDENS}")
