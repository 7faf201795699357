"""Tensor Core (wmma) instruction model.

Figure 17 and the hardware discussion in Section 5.3 rely on two facts about
NVIDIA's wmma interface that this module encodes:

* wmma only supports three fragment shapes in half precision —
  ``16x16x16``, ``32x8x16`` and ``8x32x16`` (m x n x k) — so a sparse kernel
  must build *dense* fragments of one of those shapes; it cannot consume a
  32x1 sparsity granularity directly.  PIT's transformation constructs dense
  fragments from sparsely located micro-tiles, which is how it "loosens the
  constraints on hardware instructions".
* the A100's *Sparse Tensor Core* (``mma.sp``) consumes a strict 2:4 pattern
  (every 1x4 run has exactly two zeros); PIT can feed it only the eligible
  micro-tiles (Section 6, future work) — :class:`SparseTensorCore` models the
  2x throughput on eligible fragments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spec import GPUSpec

#: The three fp16 fragment shapes wmma supports, as (m, n, k).
WMMA_FP16_SHAPES: tuple[tuple[int, int, int], ...] = (
    (16, 16, 16),
    (32, 8, 16),
    (8, 32, 16),
)


def wmma_supports(tm: int, tn: int, tk: int) -> bool:
    """Whether a (tm, tn, tk) fragment is directly expressible with wmma.

    A computation tile is wmma-compatible when each extent is a multiple of
    some supported fragment shape.
    """
    return any(
        tm % fm == 0 and tn % fn == 0 and tk % fk == 0
        for fm, fn, fk in WMMA_FP16_SHAPES
    )


@dataclass(frozen=True)
class SparseTensorCore:
    """Model of the A100 ``mma.sp`` 2:4 structured-sparsity path.

    Eligible fragments (every 1x4 run containing exactly two zeros) execute at
    ``SPEEDUP`` times the dense Tensor Core rate; ineligible fragments must
    take the dense path.  PIT's augmentation (Section 6) routes all-zero
    micro-tiles away entirely and feeds only the 2:4-eligible ones here.
    """

    SPEEDUP = 2.0

    spec: GPUSpec

    def fragment_time_ratio(self, eligible: bool) -> float:
        """Relative per-fragment time vs. the dense Tensor Core path."""
        return 1.0 / self.SPEEDUP if eligible else 1.0


def is_two_four_eligible(block) -> bool:
    """Check the strict 2:4 pattern on a numpy block's innermost axis.

    Every aligned run of 4 elements along the last axis must contain at most
    two non-zeros.  (All-zero runs are trivially eligible but wasteful — PIT
    skips them before they reach the instruction.)
    """
    import numpy as np

    arr = np.asarray(block)
    if arr.shape[-1] % 4 != 0:
        return False
    runs = arr.reshape(*arr.shape[:-1], -1, 4)
    nnz_per_run = (runs != 0).sum(axis=-1)
    return bool((nnz_per_run <= 2).all())
