"""SparTA-style static-sparsity compiler baseline (OSDI'22).

SparTA specializes a kernel ahead of time for one *specific* sparsity
pattern: it searches tile shapes, propagates the sparsity attribute, and
emits code with the zeros stripped.  Two faces matter for the figures:

* **compile cost** (Figure 3b): 400-600 *seconds* per pattern — unusable
  when patterns change at runtime;
* **kernel quality** (Figure 16): for a *static* pattern, SparTA covers the
  mask in place with the best tile it can find.  It cannot permute data, so
  at fine granularity (32x1) a GPU-efficient tile covers mostly zeros while
  a granularity-aligned tile is GPU-inefficient — exactly the dilemma PIT's
  transformation escapes (PIT measures 1.5-5.7x over SparTA there).
"""

from __future__ import annotations

import math

import numpy as np

from ..core.cover import cover_grid
from ..core.tiledb import TileDB
from ..hw.costmodel import sparse_matmul_time_us
from .base import SpmmKernel, SpmmResult

#: AOT specialization cost per new sparsity pattern (microseconds).
#: Figure 3b reports 400-600 seconds; we charge the midpoint.
SPARTA_COMPILE_US = 500e6


class SparTAKernel(SpmmKernel):
    """In-place tile cover with AOT-searched tile shape (no permutation)."""

    name = "SparTA"

    def _cover_cost_us(self, mask: np.ndarray, tile, n: int) -> float:
        """Cost of covering the mask in place with (tm, tk) blocks."""
        grid = cover_grid(mask, (tile.tm, tile.tk))
        covered_steps = int(grid.sum())
        n_tiles_cols = math.ceil(n / tile.tn)
        total_steps = covered_steps * n_tiles_cols
        out_tiles = int(grid.any(axis=1).sum()) * n_tiles_cols
        return sparse_matmul_time_us(
            total_steps, out_tiles, tile, self.dtype, self.spec
        )

    def best_tile_for(self, mask: np.ndarray, n: int):
        """The AOT tile search: minimize in-place cover cost for the pattern."""
        db = TileDB.shared(self.spec, self.dtype)
        best_tile, best_cost = None, float("inf")
        for entry in db.tiles():
            cost = self._cover_cost_us(mask, entry.tile, n)
            if cost < best_cost:
                best_tile, best_cost = entry.tile, cost
        return best_tile, best_cost

    def spmm(self, mask: np.ndarray, n: int) -> SpmmResult:
        tile, compute = self.best_tile_for(mask, n)
        return SpmmResult(compute_us=compute, detail={"tile": tile.describe()})
