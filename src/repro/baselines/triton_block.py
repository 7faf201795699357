"""OpenAI / Triton block-sparse SpMM baseline.

Triton's block-sparse kernels execute dense 32x32 (or 16x16) blocks — fully
GPU-efficient per block, but the *cover* is block-granular: a single 1x32
non-zero strip drags in a whole 32x32 block of work.  Two consequences the
paper measures:

* coverage waste at fine granularity (Figure 16's 32x1 and 1x64 panels,
  PyTorch-S's poor BERT latency on short GLUE sequences in Figure 11);
* an expensive block-layout (lookup-table) construction whose passes grow
  with the block map size — PIT's index build is 11-26x faster (Figure 18).
"""

from __future__ import annotations

import math

import numpy as np

from ..hw.costmodel import TileConfig, matmul_tile_time_us
from ..hw.memory import stream_time_us
from ..hw.spec import dtype_bytes
from ..core.cover import cover_grid
from .base import SpmmKernel, SpmmResult


def triton_convert_passes(block: int) -> float:
    """Layout-build passes grow with block size (mask reduce + LUT build).

    Calibrated so PIT's single-pass detector is ~11-14x faster at 16x16 and
    ~13-26x faster at 32x32, the ranges of Figure 18.
    """
    return 10.0 + (block * block) / 64.0


class TritonBlockSparseKernel(SpmmKernel):
    """Block-granular SpMM with Triton-style layout construction."""

    name = "OpenAI Block (Triton)"

    def __init__(self, spec, *, block: int = 32):
        super().__init__(spec)
        if block < 8:
            raise ValueError("Triton block-sparse supports blocks >= 8")
        self.block = block
        # One K-step per covered block.  The schedule processes several
        # consecutive output-column blocks per CTA (Triton's blocksparse
        # matmul uses a wide-n program), which restores most of the data
        # reuse a naive block x block tile would lose.
        self.tile = TileConfig(tm=block, tk=block, tn=min(128, 4 * block))

    def convert_us(self, mask: np.ndarray) -> float:
        m, k = mask.shape
        passes = triton_convert_passes(self.block)
        dense_bytes = m * k * dtype_bytes(self.dtype)
        grid_cells = math.ceil(m / self.block) * math.ceil(k / self.block)
        lut_bytes = grid_cells * 8
        return (
            stream_time_us(int(dense_bytes * passes), self.spec)
            + stream_time_us(lut_bytes, self.spec)
            + 4 * self.spec.kernel_launch_us
        )

    def spmm(self, mask: np.ndarray, n: int) -> SpmmResult:
        grid = cover_grid(mask, (self.block, self.block))
        covered = int(grid.sum())
        n_tiles_cols = math.ceil(n / self.tile.tn)
        # Each covered A-block is one K-step of the (block x block) tile,
        # executed for every output column tile.
        total_steps = covered * n_tiles_cols
        row_blocks = int(grid.any(axis=1).sum())
        out_tiles = row_blocks * n_tiles_cols
        step = matmul_tile_time_us(self.tile, self.tile.tk, self.dtype, self.spec)
        waves = math.ceil(total_steps / self.spec.num_sms)
        compute = waves * step + self.spec.kernel_launch_us
        nnz = int(np.count_nonzero(mask))
        stored = covered * self.block * self.block
        waste = 0.0 if stored == 0 else 1.0 - nnz / stored
        return SpmmResult(
            compute_us=compute,
            convert_us=self.convert_us(mask),
            detail={
                "covered_blocks": covered,
                "coverage_waste": waste,
                "out_tiles": out_tiles,
            },
        )
