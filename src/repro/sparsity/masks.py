"""Weight-sparsity mask generators: granular random masks and magnitude
pruning (Figure 2d, Figure 15, Figure 16, Table 3 workloads).

``granular_mask`` produces the block-granular random masks of the kernel
micro-benchmarks (Figure 16's 32x1 / 1x64 / 32x64 granularities, Table 3's
2x1..32x1).  ``MagnitudePruner`` implements the iterative magnitude pruning
of the sparse-training experiment (Figure 15): at each step the mask keeps
the largest-magnitude weight *blocks*, so the mask changes every step as the
weights move — the dynamic part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def granular_mask(
    shape: tuple,
    granularity: tuple,
    sparsity: float,
    *,
    seed: int = 0,
) -> np.ndarray:
    """Random boolean mask whose non-zeros come in ``granularity`` blocks.

    ``sparsity`` is the fraction of *blocks* that are zero (equal to the
    element sparsity since blocks are all-or-nothing).  The shape must divide
    evenly by the granularity — kernel benchmarks use power-of-two sizes.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError("sparsity must be in [0, 1]")
    gh, gw = granularity
    if shape[0] % gh or shape[1] % gw:
        raise ValueError(f"shape {shape} not divisible by granularity {granularity}")
    rng = np.random.default_rng(seed)
    grid = rng.random((shape[0] // gh, shape[1] // gw)) >= sparsity
    return np.kron(grid, np.ones((gh, gw), dtype=bool))


def mask_sparsity(mask: np.ndarray) -> float:
    """Zero fraction of a mask."""
    return 1.0 - float(np.count_nonzero(mask)) / mask.size


@dataclass
class PruningSchedule:
    """Iterative pruning schedule: sparsity ramps from start to end."""

    start_sparsity: float = 0.0
    end_sparsity: float = 0.98
    num_steps: int = 10

    def sparsity_at(self, step: int) -> float:
        """Cubic sparsity ramp (the standard gradual-pruning schedule)."""
        if self.num_steps <= 1:
            return self.end_sparsity
        t = min(1.0, max(0.0, step / (self.num_steps - 1)))
        return self.end_sparsity + (self.start_sparsity - self.end_sparsity) * (
            (1 - t) ** 3
        )


class MagnitudePruner:
    """Block-wise magnitude pruning (Figure 15's mask_calc_func).

    Keeps the blocks with the largest L1 magnitude; everything else is
    masked.  Because weights drift during training, the kept set changes
    step to step — the mask stream is dynamic and nearly never repeats.
    """

    def __init__(self, block: tuple):
        bh, bw = block
        if bh < 1 or bw < 1:
            raise ValueError(f"invalid block {block}")
        self.block = block

    def block_scores(self, weights: np.ndarray) -> np.ndarray:
        bh, bw = self.block
        rows, cols = weights.shape
        if rows % bh or cols % bw:
            raise ValueError(
                f"weight shape {weights.shape} not divisible by block {self.block}"
            )
        return (
            np.abs(weights)
            .reshape(rows // bh, bh, cols // bw, bw)
            .sum(axis=(1, 3))
        )

    def mask(self, weights: np.ndarray, sparsity: float) -> np.ndarray:
        """Boolean keep-mask at the requested sparsity."""
        if not 0.0 <= sparsity <= 1.0:
            raise ValueError("sparsity must be in [0, 1]")
        scores = self.block_scores(weights)
        num_blocks = scores.size
        num_keep = num_blocks - int(round(sparsity * num_blocks))
        grid = np.zeros(scores.shape, dtype=bool)
        if num_keep > 0:
            threshold_idx = np.argpartition(scores.ravel(), -num_keep)[-num_keep:]
            grid.ravel()[threshold_idx] = True
        return np.kron(grid, np.ones(self.block, dtype=bool))

    def mask_stream(
        self,
        weights: np.ndarray,
        schedule: PruningSchedule,
        *,
        drift: float = 0.01,
        seed: int = 0,
    ):
        """Yield (step, sparsity, mask) over a training run.

        Between steps the weights receive a small random update (``drift``),
        so consecutive masks differ even at constant sparsity — matching the
        paper's observation that every layer rebuilds its sparse index every
        batch (Section 5.2).
        """
        rng = np.random.default_rng(seed)
        w = weights.copy()
        for step in range(schedule.num_steps):
            sparsity = schedule.sparsity_at(step)
            yield step, sparsity, self.mask(w, sparsity)
            w += drift * rng.standard_normal(w.shape)


def nm_prune_mask(scores, n: int, m: int, *, axis: int = 0) -> np.ndarray:
    """N:M pruning: keep the ``n`` largest-score entries of every aligned
    ``m``-group along ``axis``.

    ``scores`` is a magnitude matrix (use ``np.abs(weights)``) or a boolean
    keep-mask; zero-score entries are never kept, so projecting an existing
    mask keeps at most ``n`` of its surviving entries per group.  Ties break
    toward the lower index (stable sort), which makes the projection a pure
    function of its inputs — the property the nm-sparse plan kind needs for
    its permutation search to be cacheable.
    """
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got {n}:{m}")
    arr = np.moveaxis(np.asarray(scores, dtype=float), axis, 0)
    if arr.shape[0] % m:
        raise ValueError(
            f"axis extent {arr.shape[0]} not divisible by group size {m}"
        )
    groups = arr.reshape(arr.shape[0] // m, m, *arr.shape[1:])
    order = np.argsort(-groups, axis=1, kind="stable")
    rank = np.argsort(order, axis=1, kind="stable")
    keep = (rank < n).reshape(arr.shape) & (arr != 0)
    return np.moveaxis(keep, 0, axis)


def two_four_mask(shape: tuple, *, seed: int = 0) -> np.ndarray:
    """A strict 2:4 structured mask (every aligned 1x4 run keeps exactly 2).

    The pattern NVIDIA's Sparse Tensor Core consumes; used by the
    sparse-tensor-core augmentation benches.
    """
    rows, cols = shape
    if cols % 4:
        raise ValueError("2:4 masks need a column count divisible by 4")
    rng = np.random.default_rng(seed)
    runs = rows * (cols // 4)
    # For each 1x4 run choose 2 of 4 positions.
    choices = rng.permuted(
        np.tile(np.array([True, True, False, False]), (runs, 1)), axis=1
    )
    return choices.reshape(rows, cols)
