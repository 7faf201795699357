"""Dynamic sparse-attention mask generators (Longformer, Museformer, Fig. 2a).

Longformer attends through a sliding window plus a small, *input-dependent*
set of global tokens; Museformer attends to fine-grained recent bars plus
coarse-grained summary positions chosen by the music's structure.  Both
yield attention masks known only at runtime — the dynamic sparsity PIT's
attention policy covers with micro-tiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Rows a chunked statistics pass materializes at once.
_CHUNK_ROWS = 2048

#: Width of one sparsity-signature quantization bucket, shared by every
#: plan and batch signature.  Masks whose density statistics agree to
#: within one bucket share a cached plan: the selection landscape is flat
#: at that resolution (neighbouring candidates' costs differ by far more
#: than a few percent of density), while patterns that drift past it
#: genuinely can flip the winning rule.
SIGNATURE_QUANTUM = 0.05


@dataclass(frozen=True)
class MaskStats:
    """Coverage statistics of one [seq, seq] attention mask.

    Backends price sparse attention from these statistics instead of the raw
    mask, which lets 32k-token Museformer masks (1G+ elements) be processed
    in row chunks without ever materializing the full matrix.
    """

    seq: int
    nnz: int
    #: Width of the PIT micro-tile and count of non-empty (1, micro_w) cells.
    micro_w: int
    covered_micro: int
    #: Block-sparse block size and count of non-empty (block, block) cells.
    block: int
    covered_blocks: int
    #: Number of 32-row bands containing any non-zero (output-tile count).
    row_blocks_nonzero: int
    #: The finest useful micro-tile (one 32B fp32 transaction, Section 3.1)
    #: and its cover — scattered single columns (global tokens, summary
    #: tokens) cover far tighter at width 8 than at width 32.
    micro_fine_w: int = 8
    covered_micro_fine: int = 0

    @property
    def density(self) -> float:
        return self.nnz / float(self.seq * self.seq) if self.seq else 0.0

    def covered_micro_elems(self) -> int:
        return self.covered_micro * self.micro_w

    def best_micro_cover_elems(self) -> int:
        """Covered elements under the better of the two micro-tile widths —
        the quantity PIT's micro-tile selection minimizes."""
        fine = self.covered_micro_fine * self.micro_fine_w
        if self.covered_micro_fine == 0:
            return self.covered_micro_elems()
        return min(self.covered_micro_elems(), fine)

    def covered_block_elems(self) -> int:
        return self.covered_blocks * self.block * self.block

    def plan_signature(self) -> tuple:
        """Quantized signature of this mask for plan-cache keying (hashable).

        Captures what an attention plan depends on: the sequence extent,
        the quantized overall density, the quantized micro-cover fraction
        (how much of the mask the winning micro-tile actually touches) and
        the cover granularities.  Seed-to-seed mask jitter of one workload
        maps to the same signature; structural changes (wider windows, more
        global tokens) move a bucket and genuinely re-plan.
        """
        q = 1.0 / SIGNATURE_QUANTUM
        cells = max(1, self.seq * ((self.seq + self.micro_w - 1) // self.micro_w))
        cover = self.covered_micro / cells
        return (
            self.seq,
            int(round(self.density * q)),
            int(round(cover * q)),
            self.micro_w,
            self.block,
        )

    @classmethod
    def merged(cls, stats_list, weights=None) -> "MaskStats":
        """Weighted-average statistics of several same-shape masks.

        A merged serving batch carries one :class:`MaskStats` that prices
        *per sequence*; averaging the member masks' statistics (weighted by
        each member's sequence count) keeps the merged batch priced like
        its population instead of like its first member.  Raises
        ``ValueError`` on zero inputs or mismatched shapes/granularities —
        those masks were never batch-compatible.
        """
        stats_list = list(stats_list)
        if not stats_list:
            raise ValueError("cannot merge zero mask statistics")
        base = stats_list[0]
        for s in stats_list[1:]:
            if (s.seq, s.micro_w, s.block, s.micro_fine_w) != (
                base.seq, base.micro_w, base.block, base.micro_fine_w
            ):
                raise ValueError(
                    f"cannot merge mask stats over different shapes/"
                    f"granularities: {(s.seq, s.micro_w, s.block)} vs "
                    f"{(base.seq, base.micro_w, base.block)}"
                )
        if len(stats_list) == 1:
            return base
        w = np.asarray(
            [1.0] * len(stats_list) if weights is None else list(weights),
            dtype=float,
        )
        if w.size != len(stats_list) or w.sum() <= 0:
            raise ValueError("weights must match stats and sum to > 0")
        w = w / w.sum()

        def avg(attr):
            return int(round(float(np.dot(w, [getattr(s, attr) for s in stats_list]))))

        return cls(
            seq=base.seq,
            nnz=avg("nnz"),
            micro_w=base.micro_w,
            covered_micro=avg("covered_micro"),
            block=base.block,
            covered_blocks=avg("covered_blocks"),
            row_blocks_nonzero=avg("row_blocks_nonzero"),
            micro_fine_w=base.micro_fine_w,
            covered_micro_fine=avg("covered_micro_fine"),
        )

    @classmethod
    def from_mask(cls, mask: np.ndarray, *, micro_w: int = 32, block: int = 32):
        """Compute statistics from a materialized mask."""
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError(f"expected a square 2-D mask, got {mask.shape}")
        seq = mask.shape[0]
        return cls.from_row_chunks(
            lambda lo, hi: mask[lo:hi], seq, micro_w=micro_w, block=block
        )

    @classmethod
    def from_row_chunks(cls, row_fn, seq: int, *, micro_w: int = 32, block: int = 32):
        """Compute statistics by streaming row chunks.

        ``row_fn(lo, hi)`` returns the boolean mask rows ``[lo:hi]`` of shape
        ``(hi-lo, seq)``.  Chunks are 2048 rows, rounded to a multiple of
        ``block`` so block covers never straddle chunks.
        """
        from ..core.cover import cover_grid

        chunk_rows = max(block, (_CHUNK_ROWS // block) * block)
        fine_w = 8
        nnz = 0
        covered_micro = 0
        covered_fine = 0
        covered_blocks = 0
        row_blocks_nonzero = 0
        for lo in range(0, seq, chunk_rows):
            hi = min(seq, lo + chunk_rows)
            rows = np.asarray(row_fn(lo, hi), dtype=bool)
            if rows.shape != (hi - lo, seq):
                raise ValueError(
                    f"row_fn({lo}, {hi}) returned shape {rows.shape}, "
                    f"expected {(hi - lo, seq)}"
                )
            nnz += int(rows.sum())
            covered_micro += int(cover_grid(rows, (1, micro_w)).sum())
            covered_fine += int(cover_grid(rows, (1, fine_w)).sum())
            bgrid = cover_grid(rows, (block, block))
            covered_blocks += int(bgrid.sum())
            row_blocks_nonzero += int(bgrid.any(axis=1).sum())
        return cls(
            seq=seq, nnz=nnz, micro_w=micro_w, covered_micro=covered_micro,
            block=block, covered_blocks=covered_blocks,
            row_blocks_nonzero=row_blocks_nonzero,
            micro_fine_w=fine_w, covered_micro_fine=covered_fine,
        )


def as_mask_stats(attn_mask, *, micro_w: int = 32, block: int = 32) -> MaskStats:
    """Accept either a raw mask or precomputed :class:`MaskStats`."""
    if isinstance(attn_mask, MaskStats):
        return attn_mask
    return MaskStats.from_mask(
        np.asarray(attn_mask, dtype=bool), micro_w=micro_w, block=block
    )


def representative_attention_mask(
    stats: MaskStats, rows: int, cols: int
) -> np.ndarray:
    """A ``[rows, cols]`` sample mask with the density of ``stats``.

    The serving path plans from summary statistics, never from a raw
    ``[seq, seq]`` mask; when Algorithm 1 does need something to search
    over (a cold attention plan), this builds a banded stand-in: each row
    carries one contiguous run of width ``density * cols`` centred on the
    scaled diagonal — the dominant structure of windowed/banded dynamic
    attention.  Deterministic given the stats and sample shape.
    """
    if rows < 1 or cols < 1:
        raise ValueError("sample shape extents must be >= 1")
    width = max(1, min(cols, int(round(stats.density * cols))))
    # np.rint and round() both round half to even, on the same quotients.
    centers = np.rint(np.arange(rows) * (cols - 1) / max(1, rows - 1))
    lo = np.clip(centers.astype(np.int64) - width // 2, 0, cols - width)
    # Row i is the window of [cols zeros | width ones | zeros] that starts
    # cols - lo[i] in: one band of ``width`` set columns from column lo[i].
    band = np.zeros(2 * cols, dtype=bool)
    band[cols:cols + width] = True
    return np.lib.stride_tricks.sliding_window_view(band, cols)[cols - lo]


def global_token_positions(seq_len: int, num_global: int, seed: int) -> np.ndarray:
    """The input-dependent global token positions of a Longformer input."""
    rng = np.random.default_rng(seed)
    return rng.choice(seq_len, size=min(num_global, seq_len), replace=False)


def longformer_mask_rows(
    row_lo: int,
    row_hi: int,
    seq_len: int,
    window: int,
    global_positions: np.ndarray,
) -> np.ndarray:
    """Rows [row_lo:row_hi] of a Longformer mask (chunked generation)."""
    rows = np.arange(row_lo, row_hi)
    cols = np.arange(seq_len)
    mask = np.abs(rows[:, None] - cols[None, :]) <= window // 2
    in_global_rows = np.isin(rows, global_positions)
    mask[in_global_rows, :] = True
    mask[:, global_positions] = True
    return mask


def longformer_mask(
    seq_len: int,
    window: int = 512,
    *,
    num_global: int = 16,
    seed: int = 0,
) -> np.ndarray:
    """Longformer attention: sliding window + dynamic global tokens.

    Global token positions are input-dependent (e.g. question tokens); they
    attend to and are attended by every position — the rows/column stripes
    that break block-sparse tilings (Section 5.1's Longformer discussion).
    """
    globals_ = global_token_positions(seq_len, num_global, seed)
    return longformer_mask_rows(0, seq_len, seq_len, window, globals_)


def longformer_mask_stats(
    seq_len: int,
    window: int = 512,
    *,
    num_global: int = 16,
    seed: int = 0,
) -> MaskStats:
    """Longformer mask statistics without materializing the full matrix."""
    globals_ = global_token_positions(seq_len, num_global, seed)
    return MaskStats.from_row_chunks(
        lambda lo, hi: longformer_mask_rows(lo, hi, seq_len, window, globals_),
        seq_len,
    )


def museformer_summary_positions(
    seq_len: int, bar_len: int, summary_stride: int, seed: int
) -> np.ndarray:
    """The (input-dependent) summary token of each summarized bar."""
    rng = np.random.default_rng(seed)
    num_bars = (seq_len + bar_len - 1) // bar_len
    positions = []
    for b in range(0, num_bars, summary_stride):
        offset = int(rng.integers(0, min(bar_len, seq_len - b * bar_len)))
        positions.append(b * bar_len + offset)
    return np.asarray(positions, dtype=np.int64)


def museformer_mask_rows(
    row_lo: int,
    row_hi: int,
    seq_len: int,
    bar_len: int,
    fine_bars: int,
    summary_positions: np.ndarray,
) -> np.ndarray:
    """Rows [row_lo:row_hi] of a Museformer mask (chunked generation)."""
    rows = np.arange(row_lo, row_hi)
    cols = np.arange(seq_len)
    row_bar = rows // bar_len
    col_bar = cols // bar_len
    # Fine-grained: own bar and the previous fine_bars bars.
    fine = (col_bar[None, :] <= row_bar[:, None]) & (
        col_bar[None, :] >= row_bar[:, None] - fine_bars
    )
    # Coarse-grained: earlier bars' summary tokens.
    coarse = np.zeros((rows.size, seq_len), dtype=bool)
    coarse[:, summary_positions] = True
    mask = fine | coarse
    causal = cols[None, :] <= rows[:, None]
    return mask & causal


def museformer_mask_stats(
    seq_len: int,
    *,
    bar_len: int = 256,
    fine_bars: int = 2,
    summary_stride: int = 4,
    seed: int = 0,
) -> MaskStats:
    """Museformer mask statistics via row-chunked streaming (32k-ready)."""
    summaries = museformer_summary_positions(seq_len, bar_len, summary_stride, seed)
    return MaskStats.from_row_chunks(
        lambda lo, hi: museformer_mask_rows(
            lo, hi, seq_len, bar_len, fine_bars, summaries
        ),
        seq_len,
    )
