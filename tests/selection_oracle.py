"""The pre-pyramid Algorithm 1 loop: the reference for the selection fast path.

Every sample gets its own cover cache whose grids are each one naive padded
:func:`~repro.core.cover.cover_grid` scan of the mask, and every rule walks
the samples one at a time, summing costs in sample order — Algorithm 1 as
it ran before the cover-grid pyramid and the stacked-sample evaluator.
``kernel_selection`` must return the same choice, bit for bit; the
equivalence tests check that, and ``benchmarks/bench_selection_fastpath.py``
times this loop as the baseline of its 5x gate.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import KernelChoice, TileDB, matmul_rules
from repro.core.cover import (
    CoverCache,
    cover_grid,
    dense_matmul_workload,
    matmul_workload,
)
from repro.core.detector import index_construction_time_us
from repro.hw.costmodel import sparse_matmul_time_us
from repro.hw.spec import dtype_bytes


class NaiveCoverCache(CoverCache):
    """A :class:`CoverCache` that scans the raw mask once per grid shape."""

    def grid(self, microtile_shape: tuple, *, transposed: bool = False):
        key = (tuple(microtile_shape), transposed)
        got = self._grids.get(key)
        if got is None:
            mask = self.mask.T if transposed else self.mask
            got = self._grids[key] = cover_grid(mask, microtile_shape)
        return got


def oracle_kernel_selection(
    sparsity_samples,
    m: int,
    k: int,
    n: int,
    tiledb: TileDB,
    *,
    sparse_operand: str = "A",
    include_dense_fallback: bool = True,
) -> KernelChoice:
    """Algorithm 1 through the per-sample loop over naive cover scans."""
    samples = [np.asarray(s, dtype=bool) for s in sparsity_samples]
    dense_extent = n if sparse_operand == "A" else m
    spec, dtype = tiledb.spec, tiledb.dtype
    start = time.perf_counter()

    caches = [NaiveCoverCache(s) for s in samples]
    best, best_cost, best_cov = None, float("inf"), 0.0
    for rule in matmul_rules(tiledb.tiles(), sparse_operand=sparse_operand):
        cost = 0.0
        cov = 0.0
        for cache in caches:
            wl = matmul_workload(
                cache, rule.tile, rule.pit_axis, dense_extent,
                sparse_operand=sparse_operand,
            )
            detector = index_construction_time_us(
                cache.shape, dtype, spec, wl.num_microtiles
            )
            cost += sparse_matmul_time_us(
                wl.total_k_steps,
                wl.num_output_tiles,
                rule.tile,
                dtype,
                spec,
                tensor_core=tiledb.tensor_core,
                sread_contig_bytes=max(rule.microtile.shape) * dtype_bytes(dtype),
                detector_us=detector,
            )
            grid = cache.grid(
                rule.microtile.shape, transposed=(sparse_operand == "B")
            )
            cov += 1.0 - float(grid.sum()) / max(1, grid.size)
        cost /= len(samples)
        cov /= len(samples)
        if cost < best_cost:
            best, best_cost, best_cov = rule, cost, cov

    tile = None if best is None else best.tile
    axis = None if best is None else best.pit_axis
    micro = None if best is None else best.microtile
    if include_dense_fallback:
        dense_tile = tiledb.best_dense_tile(m, k, n).tile
        dwl = dense_matmul_workload(m, k, n, dense_tile)
        dense_cost = sparse_matmul_time_us(
            dwl.total_k_steps,
            dwl.num_output_tiles,
            dense_tile,
            dtype,
            spec,
            tensor_core=tiledb.tensor_core,
        )
        if dense_cost <= best_cost:
            tile, axis, micro = dense_tile, None, None
            best_cost, best_cov = dense_cost, 0.0
    return KernelChoice(
        tile=tile,
        pit_axis=axis,
        microtile=micro,
        est_cost_us=best_cost,
        covered_sparsity=best_cov,
        search_time_us=(time.perf_counter() - start) * 1e6,
    )
