"""CoverAlgo: micro-tile coverage of a sparse tensor (Algorithm 1, line 8).

Given a sparsity mask and a micro-tile shape, CoverAlgo computes how many
micro-tiles are needed to cover all non-zero values, and — after merging
micro-tiles along the PIT-axis into dense computation tiles — how much work
the generated sparse kernel performs.  Algorithm 1 estimates a candidate
kernel's cost as ``num_tiles * tile_cost``; this module produces exactly
those tile counts, and also the *coverage waste* statistics plotted in
Figure 3a.

Merging semantics: micro-tiles can merge into one dense computation tile when
they share their block position on every non-PIT axis (they are interchanged
along the PIT-axis only — that is what the permutation-invariance property
licenses).  Hence the workload is computed per non-PIT block position:
``sum_over_positions(ceil(count_position / merge_factor))``.

Cover grids are served from a *pyramid*: one base grid per mask at the
finest granularity (the GCD of the requested micro-tile extents, typically
1x1 — the boolean mask itself), with every coarser ``(mh, mw)`` grid derived
by pooled ``.reshape(...).any()`` reductions over the coarsest
already-computed grid whose extents divide it.  Together with the
transposition identity ``cover_grid(mask.T, (a, b)) ==
cover_grid(mask, (b, a)).T`` (served as a numpy view, never materialized)
this makes a cold Algorithm 1 search touch the raw mask O(1) times instead
of once per candidate micro-tile shape — the Section 5.5 budget depends on
it.  :class:`SampleStack` extends the same pyramid across a whole batch of
same-shape sparsity samples so candidate evaluation vectorizes over the
sample axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..hw.costmodel import TileConfig
from .microtile import MicroTile, gcd_microtile_shape


def cover_grid(mask: np.ndarray, microtile_shape: tuple) -> np.ndarray:
    """Boolean grid marking which grid-aligned micro-tiles contain non-zeros.

    The mask is zero-padded up to a multiple of the micro-tile shape (the
    trailing partial tiles behave like tiles padded with zeros, exactly as a
    GPU kernel would guard out-of-range accesses).

    This is the naive single-shape reference: one padded pass over the raw
    mask.  The pyramid caches below must agree with it bit-for-bit.
    """
    if mask.ndim != 2:
        raise ValueError(f"cover_grid expects a 2-D mask, got shape {mask.shape}")
    mh, mw = microtile_shape
    if mh < 1 or mw < 1:
        raise ValueError(f"invalid micro-tile shape {microtile_shape}")
    rows, cols = mask.shape
    grid_r, grid_c = math.ceil(rows / mh), math.ceil(cols / mw)
    padded = np.zeros((grid_r * mh, grid_c * mw), dtype=bool)
    padded[:rows, :cols] = mask != 0
    return padded.reshape(grid_r, mh, grid_c, mw).any(axis=(1, 3))


def count_covering_microtiles(mask: np.ndarray, microtile: MicroTile) -> int:
    """Number of micro-tiles needed to cover all non-zeros of ``mask``."""
    return int(cover_grid(mask, microtile.shape).sum())


def coverage_waste(mask: np.ndarray, microtile_shape: tuple) -> float:
    """Fraction of covered elements that are zeros (Figure 3a's 'wasted c.').

    A 32x32 cover of a 99%-sparse fine-grained tensor computes mostly zeros;
    this is the quantity the tile-shape dilemma trades against GPU efficiency.
    """
    grid = cover_grid(mask, microtile_shape)
    covered_elems = int(grid.sum()) * microtile_shape[0] * microtile_shape[1]
    if covered_elems == 0:
        return 0.0
    nnz = int(np.count_nonzero(mask))
    return 1.0 - nnz / covered_elems


def covered_sparsity(mask: np.ndarray, microtile_shape: tuple) -> float:
    """Sparsity ratio *after* covering (Table 3's 'Sparsity Ratio After Cover').

    The fraction of micro-tile grid cells that are entirely zero — i.e. the
    effective sparsity the merged dense computation sees.
    """
    grid = cover_grid(mask, microtile_shape)
    if grid.size == 0:
        return 0.0
    return 1.0 - float(grid.sum()) / grid.size


class _CoverPyramid:
    """Pooled cover grids over a ``[S, R, C]`` boolean stack.

    The ``(1, 1)`` level is the stack itself; a ``(mh, mw)`` grid derives
    from the coarsest cached level ``(dh, dw)`` with ``dh | mh`` and
    ``dw | mw`` by an any-pooled reshape, touching ``R*C / (dh*dw)`` cells
    instead of the raw masks.  Exactness rests on
    ``ceil(ceil(x/a)/b) == ceil(x/(a*b))``: pooling a zero-padded coarse
    grid marks exactly the cells the naive zero-padded scan marks, partial
    trailing tiles included.
    """

    __slots__ = ("_grids",)

    def __init__(self, stack: np.ndarray):
        self._grids = {(1, 1): stack}

    def grid(self, shape: tuple) -> np.ndarray:
        mh, mw = int(shape[0]), int(shape[1])
        if mh < 1 or mw < 1:
            raise ValueError(f"invalid micro-tile shape {shape}")
        key = (mh, mw)
        got = self._grids.get(key)
        if got is None:
            got = self._derive(key)
            self._grids[key] = got
        return got

    def _derive(self, key: tuple) -> np.ndarray:
        mh, mw = key
        dh, dw = 1, 1
        for h, w in self._grids:
            if mh % h == 0 and mw % w == 0 and h * w > dh * dw:
                dh, dw = h, w
        src = self._grids[(dh, dw)]
        fh, fw = mh // dh, mw // dw
        if fh == 1 and fw == 1:
            return src
        s, rows, cols = src.shape
        grid_r, grid_c = -(-rows // fh), -(-cols // fw)
        if grid_r * fh != rows or grid_c * fw != cols:
            padded = np.zeros((s, grid_r * fh, grid_c * fw), dtype=bool)
            padded[:, :rows, :cols] = src
            src = padded
        return _pool_rows(_pool_cols(src, fw), fh)


#: Word dtypes for column pooling: ``f`` consecutive mask bytes are one
#: non-zero test on an ``f``-byte integer view — numpy reduces a short
#: contiguous bool axis element-by-element, while the integer compare runs
#: at streaming bandwidth (~25x faster at pool width 8).
_POOL_WORDS = {2: np.uint16, 4: np.uint32, 8: np.uint64}


def _pool_cols(arr: np.ndarray, fw: int) -> np.ndarray:
    """Any-pool ``fw`` adjacent columns of a ``[S, R, C]`` bool array."""
    while fw > 1:
        word = None
        if arr.flags.c_contiguous:
            for f in (8, 4, 2):
                if fw % f == 0:
                    word = f
                    break
        if word is None:
            s, r, c = arr.shape
            return arr.reshape(s, r, c // fw, fw).any(axis=3)
        arr = arr.view(_POOL_WORDS[word]) != 0
        fw //= word
    return arr


def _pool_rows(arr: np.ndarray, fh: int) -> np.ndarray:
    """Any-pool ``fh`` adjacent rows of a ``[S, R, C]`` bool array.

    Row pooling reduces over a long contiguous inner axis, which numpy
    already streams well — no integer trick needed.
    """
    if fh == 1:
        return arr
    s, r, c = arr.shape
    return arr.reshape(s, r // fh, fh, c).any(axis=2)


class CoverCache:
    """Memoized cover grids (and their marginals) for one mask.

    Algorithm 1 evaluates dozens of (tile, axis) candidates whose micro-tiles
    collapse to a handful of distinct shapes; the pyramid keeps the online
    search cheap (the paper reports 30-100us searches) by deriving every
    coarser grid from a finer one instead of re-scanning the raw mask, and
    per-grid row/column counts are computed once and shared across all rules
    that reuse a micro-tile shape.
    """

    def __init__(self, mask: np.ndarray):
        self.mask = np.asarray(mask, dtype=bool)
        if self.mask.ndim != 2:
            raise ValueError(
                f"CoverCache expects a 2-D mask, got shape {self.mask.shape}"
            )
        self.nnz = int(np.count_nonzero(self.mask))
        self._pyr = _CoverPyramid(self.mask[np.newaxis])
        self._grids: dict = {}
        self._stats: dict = {}

    @property
    def shape(self) -> tuple:
        """Shape of the wrapped mask — a cache substitutes for its mask
        anywhere only the shape and the cover grids are consulted (e.g.
        :meth:`SparseMatmulKernel.estimate_us`), so one pyramid can price
        the same mask through several backends without rebuilding."""
        return self.mask.shape

    def grid(self, microtile_shape: tuple, *, transposed: bool = False) -> np.ndarray:
        key = (tuple(microtile_shape), transposed)
        got = self._grids.get(key)
        if got is None:
            if transposed:
                # cover_grid(mask.T, (a, b)) == cover_grid(mask, (b, a)).T:
                # serve the other orientation as a view instead of
                # materializing a second grid.
                mh, mw = microtile_shape
                got = self._pyr.grid((mw, mh))[0].T
            else:
                got = self._pyr.grid(tuple(microtile_shape))[0]
            self._grids[key] = got
        return got

    def _stat(self, name: str, shape: tuple, transposed: bool, fn):
        key = (name, tuple(shape), transposed)
        got = self._stats.get(key)
        if got is None:
            got = fn(self.grid(shape, transposed=transposed))
            self._stats[key] = got
        return got

    def col_counts(self, shape: tuple, *, transposed: bool = False) -> np.ndarray:
        """Non-empty micro-tiles per grid column (``grid.sum(axis=0)``)."""
        return self._stat("col", shape, transposed, lambda g: g.sum(axis=0))

    def row_counts(self, shape: tuple, *, transposed: bool = False) -> np.ndarray:
        """Non-empty micro-tiles per grid row (``grid.sum(axis=1)``)."""
        return self._stat("row", shape, transposed, lambda g: g.sum(axis=1))

    def live_rows(self, shape: tuple, *, transposed: bool = False) -> int:
        """Number of grid rows containing any non-empty micro-tile."""
        return self._stat(
            "live", shape, transposed, lambda g: int(g.any(axis=1).sum())
        )

    def num_microtiles(self, shape: tuple, *, transposed: bool = False) -> int:
        """Total non-empty micro-tiles of this grid."""
        return self._stat("nnz", shape, transposed, lambda g: int(g.sum()))


class SampleStack:
    """A batch of same-shape sparsity samples sharing one cover pyramid.

    Algorithm 1 averages each candidate's cost over several recent sparsity
    samples; stacking them into one ``[S, R, C]`` boolean array lets every
    (tile, axis) rule's workload evaluate across all samples in a single
    vectorized pass (counts of shape ``[S, G]``, ``ceil``/``sum`` over the
    grid axis per sample) instead of a per-sample Python loop.
    """

    def __init__(self, samples):
        arrays = [np.asarray(s, dtype=bool) for s in samples]
        if not arrays:
            raise ValueError("SampleStack needs at least one sample")
        shape = arrays[0].shape
        if len(shape) != 2:
            raise ValueError(f"samples must be 2-D, got shape {shape}")
        for a in arrays:
            if a.shape != shape:
                raise ValueError(
                    f"samples must share one shape, got {a.shape} != {shape}"
                )
        # A lone sample (the serving path's common case) rides as a view;
        # stacking copies only when there is a batch to fuse.
        self.stack = (
            arrays[0][np.newaxis]
            if len(arrays) == 1
            else np.stack(arrays)
        )
        #: Per-sample non-zero counts, shape ``[S]``.
        self.nnz = self.stack.sum(axis=(1, 2), dtype=np.int64)
        self._pyr = _CoverPyramid(self.stack)
        self._stats: dict = {}

    @property
    def num_samples(self) -> int:
        return int(self.stack.shape[0])

    @property
    def sample_shape(self) -> tuple:
        return tuple(self.stack.shape[1:])

    def _canonical(self, shape: tuple, transposed: bool) -> tuple:
        return (shape[1], shape[0]) if transposed else tuple(shape)

    def prime(self, shapes, *, transposed: bool = False) -> None:
        """Seed the pyramid for a known set of micro-tile shapes.

        Computes the GCD base grid first, then requests each shape
        fine-to-coarse, so every grid derives from the coarsest compatible
        ancestor already present rather than from the raw masks.
        """
        canon = sorted(
            {self._canonical(s, transposed) for s in shapes},
            key=lambda s: s[0] * s[1],
        )
        if not canon:
            return
        base = gcd_microtile_shape(canon)
        if base != (1, 1):
            self._pyr.grid(base)
        for shape in canon:
            self._pyr.grid(shape)

    def grids(self, shape: tuple, *, transposed: bool = False) -> np.ndarray:
        """``[S, Gr, Gc]`` cover grids (transposed served as a view)."""
        got = self._pyr.grid(self._canonical(shape, transposed))
        return got.transpose(0, 2, 1) if transposed else got

    def _stat(self, name: str, shape: tuple, transposed: bool, fn):
        key = (name, tuple(shape), transposed)
        got = self._stats.get(key)
        if got is None:
            got = fn(self.grids(shape, transposed=transposed))
            self._stats[key] = got
        return got

    def col_counts(self, shape: tuple, *, transposed: bool = False) -> np.ndarray:
        """``[S, Gc]`` non-empty micro-tiles per grid column, per sample."""
        return self._stat("col", shape, transposed, lambda g: g.sum(axis=1))

    def row_counts(self, shape: tuple, *, transposed: bool = False) -> np.ndarray:
        """``[S, Gr]`` non-empty micro-tiles per grid row, per sample."""
        return self._stat("row", shape, transposed, lambda g: g.sum(axis=2))

    def live_rows(self, shape: tuple, *, transposed: bool = False) -> np.ndarray:
        """``[S]`` grid rows containing any non-empty micro-tile."""
        return self._stat(
            "live", shape, transposed, lambda g: g.any(axis=2).sum(axis=1)
        )

    def num_microtiles(self, shape: tuple, *, transposed: bool = False) -> np.ndarray:
        """``[S]`` total non-empty micro-tiles, per sample."""
        return self._stat(
            "nnz", shape, transposed, lambda g: g.sum(axis=(1, 2), dtype=np.int64)
        )

    def grid_cells(self, shape: tuple, *, transposed: bool = False) -> int:
        """Cells of one sample's 2-D grid (``Gr * Gc``)."""
        g = self.grids(shape, transposed=transposed)
        return int(g.shape[1] * g.shape[2])


@dataclass(frozen=True)
class MatmulWorkload:
    """Work performed by a sparse matmul kernel after micro-tile merging."""

    #: Total K-steps across all dense computation tiles (the unit Algorithm 1
    #: multiplies by the profiled per-step tile cost).
    total_k_steps: int
    #: Number of distinct output tiles written (each pays the fixed cost).
    num_output_tiles: int
    #: Micro-tiles covering the sparse operand (sparse-index length).
    num_microtiles: int
    #: Fraction of computed elements that are zero padding/waste.
    wasted_fraction: float

    @property
    def is_empty(self) -> bool:
        return self.total_k_steps == 0


def matmul_workload(
    mask,
    tile: TileConfig,
    pit_axis: str,
    n_extent: int,
    *,
    sparse_operand: str = "A",
) -> MatmulWorkload:
    """Workload of ``C[m,n] += A[m,k] * B[k,n]`` with one sparse operand.

    ``mask`` is the sparse operand's non-zero mask (A: [M, K]; B: [K, N]) or
    a :class:`CoverCache` wrapping it.  ``n_extent`` is the dense extent of
    the axis not covered by the mask (N when A is sparse, M when B is
    sparse).

    * PIT-axis ``m`` (A sparse): micro-tile ``(1, tk)``.  Micro-tiles merge
      across rows within the same K-block; every K-block column contributes
      ``ceil(count / tm)`` steps, replicated over ``ceil(N / tn)`` output
      column tiles.
    * PIT-axis ``k`` (A sparse): micro-tile ``(tm, 1)``.  Columns of each
      row-block gather into K-steps of ``tk``; every row-block contributes
      ``ceil(count / tk)`` steps.
    * PIT-axis ``n`` / ``k`` with B sparse: symmetric.
    """
    cache = mask if isinstance(mask, CoverCache) else CoverCache(mask)
    if sparse_operand == "A":
        if pit_axis == "m":
            return _workload_outer_axis(cache, tile, n_extent, transposed=False)
        if pit_axis == "k":
            return _workload_reduce_axis(cache, tile, n_extent, transposed=False)
        raise ValueError(f"sparse A supports PIT-axis m or k, got {pit_axis!r}")
    if sparse_operand == "B":
        if pit_axis == "n":
            return _workload_outer_axis(cache, tile, n_extent, transposed=True)
        if pit_axis == "k":
            return _workload_reduce_axis(cache, tile, n_extent, transposed=True)
        raise ValueError(f"sparse B supports PIT-axis n or k, got {pit_axis!r}")
    raise ValueError(f"sparse_operand must be 'A' or 'B', got {sparse_operand!r}")


def _workload_outer_axis(
    cache: CoverCache,
    tile: TileConfig,
    dense_extent: int,
    *,
    transposed: bool,
) -> MatmulWorkload:
    """Spatial-axis rule: merge (1, tk) micro-tiles across rows.

    The grid is oriented so rows are the PIT-axis (for sparse B, the mask is
    transposed so its n-axis becomes the rows).  For each K-block column,
    ``count`` non-empty row micro-tiles merge into ``ceil(count/merge)``
    dense tiles of one K-step each.
    """
    merge_factor = tile.tn if transposed else tile.tm
    shape = (1, tile.tk)
    counts = cache.col_counts(shape, transposed=transposed)
    steps_per_ncol = int(np.ceil(counts / merge_factor).sum())
    n_tiles_cols = math.ceil(dense_extent / (tile.tm if transposed else tile.tn))
    total_steps = steps_per_ncol * n_tiles_cols

    # Output tiles: rows with any non-zero, packed by merge_factor, times
    # the output column tiles.
    nonzero_rows = cache.live_rows(shape, transposed=transposed)
    out_tiles = math.ceil(nonzero_rows / merge_factor) * n_tiles_cols

    num_micro = cache.num_microtiles(shape, transposed=transposed)
    # Sparse-operand elements touched per output column tile.
    computed = steps_per_ncol * merge_factor * tile.tk
    waste = 0.0 if computed == 0 else max(0.0, 1.0 - cache.nnz / computed)
    return MatmulWorkload(
        total_k_steps=total_steps,
        num_output_tiles=out_tiles,
        num_microtiles=num_micro,
        wasted_fraction=waste,
    )


def _workload_reduce_axis(
    cache: CoverCache,
    tile: TileConfig,
    dense_extent: int,
    *,
    transposed: bool,
) -> MatmulWorkload:
    """Reduction-axis rule: merge (row_block, 1) micro-tiles along K.

    For each row-block, ``count`` non-empty column micro-tiles merge into
    ``ceil(count/tk)`` K-steps.
    """
    row_block = tile.tn if transposed else tile.tm
    shape = (row_block, 1)
    counts = cache.row_counts(shape, transposed=transposed)
    steps_per_ncol = int(np.ceil(counts / tile.tk).sum())
    n_tiles_cols = math.ceil(dense_extent / (tile.tm if transposed else tile.tn))
    total_steps = steps_per_ncol * n_tiles_cols

    # Every row-block with any work writes its output tiles densely.
    nonzero_blocks = int((counts > 0).sum())
    out_tiles = nonzero_blocks * n_tiles_cols

    num_micro = cache.num_microtiles(shape, transposed=transposed)
    computed = steps_per_ncol * row_block * tile.tk
    waste = 0.0 if computed == 0 else max(0.0, 1.0 - cache.nnz / computed)
    return MatmulWorkload(
        total_k_steps=total_steps,
        num_output_tiles=out_tiles,
        num_microtiles=num_micro,
        wasted_fraction=waste,
    )


def batched_matmul_workload(
    stack: SampleStack,
    tile: TileConfig,
    pit_axis: str,
    n_extent: int,
    *,
    sparse_operand: str = "A",
) -> list:
    """Vectorized :func:`matmul_workload` across a :class:`SampleStack`.

    One pooled-counts pass evaluates every sample; returns one
    :class:`MatmulWorkload` per sample, exactly equal to the per-sample
    scalar results (the integer tile counts are identical; the float waste
    fraction is computed from the same integers).
    """
    if sparse_operand == "A":
        if pit_axis == "m":
            return _batched_outer_axis(stack, tile, n_extent, transposed=False)
        if pit_axis == "k":
            return _batched_reduce_axis(stack, tile, n_extent, transposed=False)
        raise ValueError(f"sparse A supports PIT-axis m or k, got {pit_axis!r}")
    if sparse_operand == "B":
        if pit_axis == "n":
            return _batched_outer_axis(stack, tile, n_extent, transposed=True)
        if pit_axis == "k":
            return _batched_reduce_axis(stack, tile, n_extent, transposed=True)
        raise ValueError(f"sparse B supports PIT-axis n or k, got {pit_axis!r}")
    raise ValueError(f"sparse_operand must be 'A' or 'B', got {sparse_operand!r}")


def _assemble_workloads(stack, steps_per_ncol, n_tiles_cols, out_tiles, micro,
                        elems_per_step) -> list:
    computed = steps_per_ncol * elems_per_step
    out = []
    for s in range(stack.num_samples):
        waste = (
            0.0
            if computed[s] == 0
            else max(0.0, 1.0 - stack.nnz[s] / computed[s])
        )
        out.append(
            MatmulWorkload(
                total_k_steps=int(steps_per_ncol[s]) * n_tiles_cols,
                num_output_tiles=int(out_tiles[s]),
                num_microtiles=int(micro[s]),
                wasted_fraction=waste,
            )
        )
    return out


def _batched_outer_axis(stack, tile, dense_extent, *, transposed) -> list:
    merge_factor = tile.tn if transposed else tile.tm
    shape = (1, tile.tk)
    counts = stack.col_counts(shape, transposed=transposed)  # [S, Gc]
    steps_per_ncol = np.ceil(counts / merge_factor).sum(axis=1).astype(np.int64)
    n_tiles_cols = math.ceil(dense_extent / (tile.tm if transposed else tile.tn))
    live = stack.live_rows(shape, transposed=transposed)  # [S]
    out_tiles = np.ceil(live / merge_factor).astype(np.int64) * n_tiles_cols
    micro = stack.num_microtiles(shape, transposed=transposed)
    return _assemble_workloads(
        stack, steps_per_ncol, n_tiles_cols, out_tiles, micro,
        merge_factor * tile.tk,
    )


def _batched_reduce_axis(stack, tile, dense_extent, *, transposed) -> list:
    row_block = tile.tn if transposed else tile.tm
    shape = (row_block, 1)
    counts = stack.row_counts(shape, transposed=transposed)  # [S, Gr]
    steps_per_ncol = np.ceil(counts / tile.tk).sum(axis=1).astype(np.int64)
    n_tiles_cols = math.ceil(dense_extent / (tile.tm if transposed else tile.tn))
    nonzero_blocks = (counts > 0).sum(axis=1)
    out_tiles = nonzero_blocks * n_tiles_cols
    micro = stack.num_microtiles(shape, transposed=transposed)
    return _assemble_workloads(
        stack, steps_per_ncol, n_tiles_cols, out_tiles, micro,
        row_block * tile.tk,
    )


def dense_matmul_workload(m: int, k: int, n: int, tile: TileConfig) -> MatmulWorkload:
    """Workload of the dense fallback (all tiles, all K-steps)."""
    tiles_m = math.ceil(m / tile.tm)
    tiles_n = math.ceil(n / tile.tn)
    steps = tiles_m * tiles_n * math.ceil(k / tile.tk)
    return MatmulWorkload(
        total_k_steps=steps,
        num_output_tiles=tiles_m * tiles_n,
        num_microtiles=0,
        wasted_fraction=0.0,
    )
