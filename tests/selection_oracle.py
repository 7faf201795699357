"""The pre-pyramid Algorithm 1 loop: the reference for the selection fast path.

Every sample keeps its own grids, each one naive padded
:func:`~repro.core.cover.cover_grid` scan of the mask, and every rule's
workload is counted from those grids one sample at a time, summing costs in
sample order — Algorithm 1 as it ran before the cover-grid pyramid and the
stacked-sample evaluator.  Neither the workload counts nor the covered
sparsity share code with that evaluator
(:class:`~repro.core.cover.SampleStack`, the grouped pooled counts of
:class:`~repro.core.kernels._RuleTable`), so the reference checks them
rather than repeats them: the covered sparsity comes from a
:func:`~repro.core.cover.cover_grid` scan of the raw mask with the rule's
micro-tile, which is in the sparse operand's own coordinates (``[k, n]``
for B), while the evaluator reads it from its transposed workload counts.
``kernel_selection`` must return the same choice, bit for bit; the
equivalence tests check that, and ``benchmarks/bench_selection_fastpath.py``
times this loop as the baseline of its speedup gates.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core import KernelChoice, TileDB, matmul_rules
from repro.core.cover import cover_grid
from repro.core.detector import index_construction_time_us
from repro.hw.costmodel import sparse_matmul_time_us
from repro.hw.spec import dtype_bytes


class NaiveCovers:
    """One sample's cover grids, each scanned from the raw mask once."""

    def __init__(self, mask: np.ndarray):
        self.mask = mask
        self._grids = {}

    def grid(self, microtile_shape: tuple, transposed: bool) -> np.ndarray:
        key = (tuple(microtile_shape), transposed)
        if key not in self._grids:
            mask = self.mask.T if transposed else self.mask
            self._grids[key] = cover_grid(mask, microtile_shape)
        return self._grids[key]


def naive_workload(covers: NaiveCovers, tile, pit_axis: str, dense_extent: int,
                   sparse_operand: str) -> tuple:
    """``(total_k_steps, num_output_tiles, num_microtiles, wasted_fraction)``
    of one rule on one sample, counted from its naive grids.

    The grid is oriented so rows are the PIT-axis side (a sparse B is
    transposed).  A spatial axis (m, n) merges ``(1, tk)`` micro-tiles of
    each K-block column into ``ceil(count / merge)`` tiles; the reduction
    axis k gathers each row-block's ``(rows, 1)`` micro-tiles into
    ``ceil(count / tk)`` K-steps.  Every step of one output column tile
    computes ``rows x tk`` sparse-operand elements; the waste is the share
    of those that are zeros.
    """
    transposed = sparse_operand == "B"
    rows = tile.tn if transposed else tile.tm
    col_tiles = math.ceil(dense_extent / (tile.tm if transposed else tile.tn))
    if pit_axis == "k":
        grid = covers.grid((rows, 1), transposed)
        counts = grid.sum(axis=1)
        steps = int(np.ceil(counts / tile.tk).sum())
        out_tiles = int((counts > 0).sum()) * col_tiles
    else:
        grid = covers.grid((1, tile.tk), transposed)
        steps = int(np.ceil(grid.sum(axis=0) / rows).sum())
        live = int(grid.any(axis=1).sum())
        out_tiles = math.ceil(live / rows) * col_tiles
    computed = steps * rows * tile.tk
    nnz = int(np.count_nonzero(covers.mask))
    waste = 0.0 if computed == 0 else max(0.0, 1.0 - nnz / computed)
    return steps * col_tiles, out_tiles, int(grid.sum()), waste


def naive_dense_workload(m: int, k: int, n: int, tile) -> tuple:
    """``(total_k_steps, num_output_tiles)`` of the dense fallback: every
    output tile runs every K-step."""
    out_tiles = math.ceil(m / tile.tm) * math.ceil(n / tile.tn)
    return out_tiles * math.ceil(k / tile.tk), out_tiles


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

    covers = [NaiveCovers(s) for s in samples]
    best, best_cost, best_cov = None, float("inf"), 0.0
    for rule in matmul_rules(tiledb.tiles(), sparse_operand=sparse_operand):
        cost = 0.0
        cov = 0.0
        for sample in covers:
            steps, out_tiles, num_micro, _ = naive_workload(
                sample, rule.tile, rule.pit_axis, dense_extent, sparse_operand
            )
            detector = index_construction_time_us(
                sample.mask.shape, dtype, spec, num_micro
            )
            cost += sparse_matmul_time_us(
                steps,
                out_tiles,
                rule.tile,
                dtype,
                spec,
                tensor_core=tiledb.tensor_core,
                sread_contig_bytes=max(rule.microtile.shape) * dtype_bytes(dtype),
                detector_us=detector,
            )
            # The rule's micro-tile is in the sparse operand's own
            # coordinates, so it covers the raw mask, never a transpose.
            grid = sample.grid(rule.microtile.shape, False)
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
        dense_cost = sparse_matmul_time_us(
            *naive_dense_workload(m, k, n, dense_tile),
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
