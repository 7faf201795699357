"""Training-side runtime: iterative-pruning sparse training (Figure 15),
planned through the unified :class:`~repro.core.plan.Planner`.

Sparse training prices a BERT forward+backward where every weight matmul
``C[m, n] = X[m, k] @ W[k, n]`` carries a block mask on ``W`` that changes
every step (magnitude pruning over drifting weights).  Consequences the
figure shows:

* **PyTorch** computes densely and multiplies the mask in — flat latency
  across sparsity;
* **PyTorch-S** covers the mask with Triton's 32x32 blocks and *rebuilds the
  block layout for every layer, every batch*.  At 32x64 granularity the
  cover is tight and the conversion is the gap to PIT; at 32x1 the 32x32
  blocks cover nearly everything and PyTorch-S ends up slower than dense;
* **PIT** resolves a ``weight-sparse`` (or ``nm-sparse``) plan — Algorithm 1
  on operand B over the *full* tile database — through
  :meth:`~repro.baselines.pit_backend.PITBackend.weight_sparse_plan`.  At
  32x1 the (tk, 1) micro-tiles merge scattered weight columns into dense
  tiles, keeping the 32x1 latency equal to the 32x64 latency ("the best of
  both worlds").

This module contains *no* direct TileDB or kernel search: every plan
resolution flows through ``Planner.resolve`` (inside the PIT backend), so
training inherits the serving stack's memoization, quantized-signature
warm-start, and :meth:`~repro.core.selection.PlanCache.save`/``load``
persistence across pruning runs — see ``docs/training.md``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..baselines.backends import ModelBackend
from ..baselines.pit_backend import PITBackend
from ..baselines.triton_block import triton_convert_passes
from ..core.cover import CoverCache
from ..core.detector import index_construction_time_us
from ..core.selection import PlanCache
from ..hw.costmodel import (
    TileConfig,
    matmul_step_time_us,
    matmul_tile_fixed_time_us,
)
from ..hw.memory import stream_time_us
from ..hw.spec import GPUSpec, dtype_bytes
from ..models.config import ModelConfig, bert_base
from ..sparsity.masks import MagnitudePruner


@dataclass
class SparseTrainingReport:
    """One pruning-step measurement for one system."""

    backend: str
    block: tuple
    sparsity: float
    latency_ms: float
    convert_ms: float
    mem_gib: float
    #: Plan-resolution provenance (PIT only; zeros for the baselines):
    #: cache hits / cold Algorithm 1 searches this step, and the wall time
    #: resolution took — Section 5.5's search-budget quantity, now visible
    #: per training step.
    plan_hits: int = 0
    plan_misses: int = 0
    search_us: float = 0.0


# ----------------------------------------------------------------------
# Mask + cover-pyramid memo
# ----------------------------------------------------------------------
#: Per-step mask/cover memo.  One figure point prices the *same* regenerated
#: masks for all three backends, and a warm-start run re-prices them every
#: epoch — so the cover-grid pyramid (PR 3) is built once per mask and
#: reused, instead of `CoverCache(weight_mask)` from scratch at every
#: pricing call.  Bounded LRU: a figure sweep touches dozens of
#: (block, sparsity) points but only a handful at a time.
_COVER_MEMO: OrderedDict = OrderedDict()
_COVER_MEMO_CAP = 24


def _family_masks(config: ModelConfig, block: tuple, sparsity: float,
                  seed: int) -> dict:
    """``{family: (mask, cover, count)}`` for one pruning step, memoized.

    One representative weight mask per matmul family; every layer shares
    the sparsity statistics, so price one layer and scale by depth.  The
    masks are drawn in a fixed family order from one seeded rng, so equal
    (config, block, sparsity, seed) always name bit-identical masks — the
    property both the memo and plan-cache warm-starts rest on.
    """
    key = (config.d_model, config.d_ff, tuple(block), round(sparsity, 6), seed)
    if key in _COVER_MEMO:
        _COVER_MEMO.move_to_end(key)
        return _COVER_MEMO[key]
    d, d_ff = config.d_model, config.d_ff
    rng = np.random.default_rng(seed)
    pruner = MagnitudePruner(block)
    families = {}
    for name, shape, count in (
        ("attn", (d, d), 4),
        ("ffn1", (d, d_ff), 1),
        ("ffn2", (d_ff, d), 1),
    ):
        mask = pruner.mask(rng.standard_normal(shape), sparsity)
        families[name] = (mask, CoverCache(mask), count)
    _COVER_MEMO[key] = families
    while len(_COVER_MEMO) > _COVER_MEMO_CAP:
        _COVER_MEMO.popitem(last=False)
    return families


def _block_cover_matmul_us(
    cover: CoverCache,
    m: int,
    spec: GPUSpec,
    dtype: str,
    *,
    block: int = 32,
) -> float:
    """Triton-style in-place block-sparse matmul: covered W blocks execute
    as dense (block x block) tiles for each output row-block.

    Takes the weight mask's :class:`CoverCache` — the pyramid is shared
    across pruning steps and backends via :func:`_family_masks` instead of
    being rebuilt per call.
    """
    grid = cover.grid((block, block))
    covered = int(grid.sum())
    tile = TileConfig(block, block, block)
    row_tiles = math.ceil(m / block)
    steps = covered * row_tiles
    out_tiles = int(grid.any(axis=0).sum()) * row_tiles
    step = matmul_step_time_us(tile, dtype, spec)
    fixed = matmul_tile_fixed_time_us(tile, dtype, spec)
    return (
        math.ceil(steps / spec.num_sms) * step
        + math.ceil(out_tiles / spec.num_sms) * fixed
        + spec.kernel_launch_us
    )


def sparse_training_step(
    backend: str,
    spec: GPUSpec,
    *,
    config: ModelConfig = None,
    block: tuple = (32, 64),
    sparsity: float = 0.9,
    batch_tokens: int = 32 * 128,
    dtype: str = "float32",
    seed: int = 0,
    plan_cache: Optional[PlanCache] = None,
    pattern: tuple = (),
    permutation: tuple = (),
) -> SparseTrainingReport:
    """Price one forward+backward batch of iterative-pruning BERT training.

    ``backend`` is one of ``pytorch``, ``pytorch-s``, ``pit``.  The weight
    masks are regenerated by magnitude pruning at the requested sparsity,
    modeling the per-step mask churn of Figure 2d.

    The PIT backend resolves one plan per matmul family through
    ``Planner.resolve`` over ``plan_cache`` (a fresh private cache when
    ``None`` — every family then pays a cold full-TileDB search, exactly
    the single-step semantics of Figure 15).  Pass a shared cache — or use
    :func:`sparse_training_run` — and subsequent steps whose drifting masks
    land in the same quantized signature replay cached plans; the report's
    ``plan_hits``/``plan_misses``/``search_us`` make the difference
    visible.  A non-empty ``pattern`` switches PIT to the ``nm-sparse``
    kind (N:M projection composed with a channel-permutation search,
    ``permutation`` being the search policy).
    """
    if config is None:
        config = bert_base()
    if backend not in ("pytorch", "pytorch-s", "pit"):
        raise ValueError(f"unknown sparse-training backend {backend!r}")
    d, d_ff = config.d_model, config.d_ff
    families = _family_masks(config, block, sparsity, seed)
    dsize = dtype_bytes(dtype)
    m = batch_tokens

    if backend == "pit":
        pricer = PITBackend(spec, dtype, plan_cache=plan_cache)
    else:
        pricer = ModelBackend(spec, dtype)

    latency_us = 0.0
    convert_us = 0.0
    plan_hits = 0
    plan_misses = 0
    search_us = 0.0
    weight_elems_per_layer = 0
    for _, (mask, cover, count) in families.items():
        k, n = mask.shape
        weight_elems_per_layer += mask.size

        if backend == "pytorch":
            dense = pricer.dense_matmul_us(m, k, n)
            mask_apply = (
                3 * stream_time_us(mask.size * dsize, spec) + spec.kernel_launch_us
            )
            latency_us += count * (dense + mask_apply)
        elif backend == "pytorch-s":
            compute = _block_cover_matmul_us(cover, m, spec, dtype, block=32)
            passes = triton_convert_passes(32)
            convert = (
                stream_time_us(int(mask.size * dsize * passes), spec)
                + 4 * spec.kernel_launch_us
            )
            latency_us += count * (compute + convert)
            convert_us += count * convert
        else:  # pit: one plan per family, resolved through the Planner
            resolved = pricer.weight_sparse_plan(
                [mask], m, k, n, pattern=pattern, permutation=permutation
            )
            plan_hits += int(resolved.cache_hit)
            plan_misses += int(resolved.cold)
            search_us += resolved.search_us
            compute = pricer.weight_sparse_matmul_us(
                resolved, mask, m, cover=cover
            )
            latency_us += count * compute
            # Detector time is already inside the plan's estimate; report
            # the same quantity as the convert share for the stacked bars.
            micro = (block[0], 1) if block[0] >= block[1] else (1, block[1])
            detector = index_construction_time_us(
                mask.shape, dtype, spec, int(cover.grid(micro).sum())
            )
            convert_us += count * detector

    # Scale one layer to the full stack; backward ~ 2x forward compute and
    # rebuilds the indexes/layouts for the gradient masks too.
    total_layers = config.n_layers
    latency_us *= total_layers * 3.0
    convert_us *= total_layers * 3.0

    # Memory: dense weights + gradients + Adam states for the baselines;
    # PIT stores the masked weights compactly (values + micro-tile index)
    # while grads/optimizer stay dense for the trainable (unpruned) set.
    act_bytes = batch_tokens * (2 * d + d_ff) * dsize * total_layers
    weight_bytes = weight_elems_per_layer * total_layers * dsize
    if backend == "pit":
        density = 1.0 - sparsity
        weights_total = weight_bytes + 3 * weight_bytes * (density + 0.05)
    else:
        weights_total = 4 * weight_bytes
    mem_gib = (act_bytes + weights_total) / (1 << 30)

    return SparseTrainingReport(
        backend=backend,
        block=block,
        sparsity=sparsity,
        latency_ms=latency_us / 1e3,
        convert_ms=convert_us / 1e3,
        mem_gib=mem_gib,
        plan_hits=plan_hits,
        plan_misses=plan_misses,
        search_us=search_us,
    )


def sparse_training_run(
    backend: str,
    spec: GPUSpec,
    *,
    sparsities,
    config: ModelConfig = None,
    block: tuple = (32, 64),
    batch_tokens: int = 32 * 128,
    dtype: str = "float32",
    seed: int = 0,
    seed_stride: int = 0,
    plan_cache: Optional[PlanCache] = None,
) -> list:
    """Price a multi-step pruning run: one report per sparsity step.

    All steps share one :class:`PlanCache` (``plan_cache``, or a fresh one),
    so the PIT backend's plan resolutions warm-start across the run: the
    first step at each traffic class pays Algorithm 1, later steps whose
    masks quantize to the same signature replay the cached plan.  Persist
    the cache with ``PlanCache.save`` after an epoch and ``load`` it before
    the next — a restarted pruning run (or a second epoch) then resolves
    with *zero* cold searches, which is exactly what
    ``benchmarks/bench_training_warmstart.py`` gates in CI.

    ``seed_stride`` regenerates the weights with ``seed + i * seed_stride``
    at step ``i`` — nonzero strides model drifting weights whose masks
    change every step yet (at equal sparsity) still share plans through
    the quantized signature.
    """
    cache = plan_cache if plan_cache is not None else PlanCache()
    return [
        sparse_training_step(
            backend,
            spec,
            config=config,
            block=block,
            sparsity=s,
            batch_tokens=batch_tokens,
            dtype=dtype,
            seed=seed + i * seed_stride,
            plan_cache=cache,
        )
        for i, s in enumerate(sparsities)
    ]
