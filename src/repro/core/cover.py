"""CoverAlgo: micro-tile coverage of a sparse tensor (Algorithm 1, line 8).

Given a sparsity mask and a micro-tile shape, CoverAlgo computes how many
micro-tiles are needed to cover all non-zero values.  This module holds the
cover grids and their per-row and per-column counts; Algorithm 1's one
workload evaluator, :class:`~repro.core.kernels._RuleTable`, merges those
counts along the PIT-axis into dense computation tiles and prices them as
``num_tiles * tile_cost``.  The naive single-mask helpers
(:func:`cover_grid`, :func:`coverage_waste`, :func:`covered_sparsity`) are
the test reference, Figure 3a's *coverage waste* and Table 3's covered
sparsity.

Cover grids are served from a *pyramid*: one base grid per mask at the
finest granularity (the GCD of the requested micro-tile extents, typically
1x1 — the boolean mask itself), with every coarser ``(mh, mw)`` grid derived
by pooled ``.reshape(...).any()`` reductions over the coarsest
already-computed grid whose extents divide it.  Together with the
transposition identity ``cover_grid(mask.T, (a, b)) ==
cover_grid(mask, (b, a)).T`` (served as a numpy view, never materialized)
this makes a cold Algorithm 1 search touch the raw mask O(1) times instead
of once per candidate micro-tile shape — the Section 5.5 budget depends on
it.  :class:`SampleStack` holds the pyramid of one or more same-shape
sparsity samples, so a rule's counts cover every stacked sample in one
pass; a single mask is a one-sample stack.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .microtile import gcd_microtile_shape


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


class SampleStack:
    """A batch of same-shape sparsity samples sharing one cover pyramid.

    Algorithm 1 averages each candidate's cost over several recent sparsity
    samples; stacking them into one ``[S, R, C]`` boolean array lets every
    (tile, axis) rule's workload evaluate across all samples in a single
    vectorized pass (counts of shape ``[S, G]``, ``ceil``/``sum`` over the
    grid axis per sample) instead of a per-sample Python loop.  Per-grid
    marginals are memoized, so every rule that reuses a micro-tile shape
    shares one count.  A single mask is a one-sample stack, held as a view.
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
        #: Cover-grid pyramid: shape -> ``[S, Gr, Gc]`` grid, seeded with
        #: the stack itself as the ``(1, 1)`` level.
        self._levels = {(1, 1): self.stack}
        self._stats: dict = {}

    @functools.cached_property
    def nnz(self) -> np.ndarray:
        """``[S]`` per-sample non-zero counts, counted on first use: only
        the waste fraction of a
        :meth:`~repro.core.kernels.SparseMatmulKernel.run` report reads
        them, and a cover-only caller (the activation-cover memo) never
        does."""
        return np.array(
            [np.count_nonzero(sample) for sample in self.stack], dtype=np.int64
        )

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
            self._level(base)
        for shape in canon:
            self._level(shape)

    def grids(self, shape: tuple, *, transposed: bool = False) -> np.ndarray:
        """``[S, Gr, Gc]`` cover grids (transposed served as a view)."""
        got = self._level(self._canonical(shape, transposed))
        return got.transpose(0, 2, 1) if transposed else got

    def _level(self, shape: tuple) -> np.ndarray:
        """The pyramid's ``(mh, mw)`` grid, derived on first use.

        A grid derives from the coarsest cached level ``(dh, dw)`` with
        ``dh | mh`` and ``dw | mw`` by an any-pooled reshape, touching
        ``R*C / (dh*dw)`` cells instead of the raw masks.  Exactness rests
        on ``ceil(ceil(x/a)/b) == ceil(x/(a*b))``: pooling a zero-padded
        coarse grid marks exactly the cells the naive zero-padded scan
        marks, partial trailing tiles included.
        """
        mh, mw = int(shape[0]), int(shape[1])
        if mh < 1 or mw < 1:
            raise ValueError(f"invalid micro-tile shape {shape}")
        grid = self._levels.get((mh, mw))
        if grid is not None:
            return grid
        dh, dw = 1, 1
        for h, w in self._levels:
            if mh % h == 0 and mw % w == 0 and h * w > dh * dw:
                dh, dw = h, w
        base = self._levels[(dh, dw)]
        fh, fw = mh // dh, mw // dw
        s, rows, cols = base.shape
        grid_r, grid_c = -(-rows // fh), -(-cols // fw)
        if grid_r * fh != rows or grid_c * fw != cols:
            padded = np.zeros((s, grid_r * fh, grid_c * fw), dtype=bool)
            padded[:, :rows, :cols] = base
            base = padded
        grid = self._levels[(mh, mw)] = _pool_rows(_pool_cols(base, fw), fh)
        return grid

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
