"""PIT exposed through the kernel-level SpMM interface.

Lets the micro-benchmarks (Figures 16, 17, 18) compare PIT against the
library baselines uniformly.  Selection runs Algorithm 1 per mask (cached by
shape so repeated sparsity ratios re-select, as the online system would).
"""

from __future__ import annotations

import numpy as np

from ..core.cover import SampleStack
from ..core.detector import index_construction_time_us
from ..core.kernels import SparseMatmulKernel
from ..core.selection import kernel_selection
from ..core.tiledb import TileDB
from ..hw.costmodel import dense_matmul_time_us
from .base import SpmmKernel, SpmmResult


class PITSpmmKernel(SpmmKernel):
    """PIT sparse matmul: Algorithm 1 selection + generated kernel cost."""

    name = "PIT"

    def __init__(self, spec, dtype: str = "float32", *, tensor_core: bool = False):
        super().__init__(spec, dtype)
        self.tensor_core = tensor_core
        self.tiledb = TileDB.shared(spec, dtype, tensor_core=tensor_core)

    def spmm(self, mask: np.ndarray, n: int) -> SpmmResult:
        m, k = mask.shape
        choice = kernel_selection([mask], m, k, n, self.tiledb)
        if choice.is_dense_fallback:
            compute = dense_matmul_time_us(
                m, k, n, choice.tile, self.dtype, self.spec,
                tensor_core=self.tensor_core,
            )
            return SpmmResult(
                compute_us=compute,
                convert_us=0.0,
                detail={"choice": choice.describe(), "fallback": True},
            )
        kernel = SparseMatmulKernel(
            choice.tile,
            choice.pit_axis,
            self.spec,
            self.dtype,
            tensor_core=self.tensor_core,
        )
        # The kernel's workload covers the mask with its micro-tiles, so the
        # stack's memoized micro-tile count is the index Convert builds.
        stack = SampleStack([mask])
        compute = kernel.estimate_us(stack, n, include_detector=False)
        convert = index_construction_time_us(
            mask.shape, self.dtype, self.spec,
            int(stack.num_microtiles(kernel.microtile.shape)[0]),
        )
        return SpmmResult(
            compute_us=compute,
            convert_us=convert,
            detail={
                "choice": choice.describe(),
                "microtile": str(choice.microtile),
                "covered_sparsity": choice.covered_sparsity,
                "search_us": choice.search_time_us,
            },
        )

    def convert_us(self, mask: np.ndarray, microtile_shape: tuple) -> float:
        """Index-construction latency alone (Figure 18)."""
        from ..core.cover import cover_grid

        grid = cover_grid(mask, microtile_shape)
        return index_construction_time_us(
            mask.shape, self.dtype, self.spec, int(grid.sum())
        )
