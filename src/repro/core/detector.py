"""Online sparsity detection (Section 3.3).

PIT constructs the sparse index *at micro-tile granularity* and *unordered*:
each GPU thread block scans a region of the tensor, and when it finds a
micro-tile containing non-zeros it appends the micro-tile's offset to a
pre-allocated index array via ``atomicAdd``.  Because PIT-axis computation is
permutation invariant, no sorting pass is needed — which is exactly why the
construction is a single bandwidth-bound sweep, unlike cuSPARSE's multi-pass
CSR build or Triton's block-layout build (Figure 18).

The functional side returns real (seeded-shuffled) micro-tile coordinates so
that kernels can gather with them; the shuffle models the nondeterministic
thread-block completion order, and property tests assert results are
invariant to it — that is the PIT property at work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hw.memory import stream_time_us, tensor_bytes
from ..hw.spec import GPUSpec
from .cover import cover_grid
from .microtile import MicroTile


@dataclass
class SparseIndex:
    """An unordered micro-tile index over one sparse tensor."""

    microtile: MicroTile
    #: Shape of the micro-tile grid the tensor was scanned with.
    grid_shape: tuple
    #: ``(num_microtiles, 2)`` array of non-empty micro-tile grid coordinates,
    #: in *unordered* (atomic-add completion) order.
    positions: np.ndarray
    #: Simulated construction latency (microseconds).
    construct_us: float

    @property
    def num_microtiles(self) -> int:
        return int(self.positions.shape[0])

    def ordered(self) -> "SparseIndex":
        """A row-major-sorted copy (the ablation baseline: ordered index
        construction would require a sort or ordered atomics)."""
        order = np.lexsort((self.positions[:, 1], self.positions[:, 0]))
        return SparseIndex(
            microtile=self.microtile,
            grid_shape=self.grid_shape,
            positions=self.positions[order],
            construct_us=self.construct_us,
        )


def index_construction_time_us(
    tensor_shape: tuple,
    dtype: str,
    spec: GPUSpec,
    num_microtiles: int,
) -> float:
    """Simulated latency of PIT's online index construction.

    One streaming read of the tensor (every value must be inspected), plus the
    atomic-add index writes (8 bytes per non-empty micro-tile at gather
    efficiency), plus one kernel launch.  No sort, no second pass — the
    unordered-index trick.
    """
    scan = stream_time_us(tensor_bytes(tensor_shape, dtype), spec)
    writes = stream_time_us(num_microtiles * 8, spec) / spec.gather_efficiency
    return scan + writes + spec.kernel_launch_us


def build_index(
    mask: np.ndarray,
    microtile: MicroTile,
    spec: GPUSpec,
    *,
    seed: int = 0,
) -> SparseIndex:
    """Detect non-empty micro-tiles of ``mask`` and build the unordered index.

    The scan is priced over an fp32 *values* tensor of the mask's shape
    (the mask itself is not materialized on a real device).
    """
    grid = cover_grid(mask, microtile.shape)
    coords = np.argwhere(grid)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(coords.shape[0])
    coords = coords[perm]
    construct = index_construction_time_us(
        mask.shape, "float32", spec, coords.shape[0]
    )
    return SparseIndex(
        microtile=microtile,
        grid_shape=grid.shape,
        positions=coords,
        construct_us=construct,
    )
