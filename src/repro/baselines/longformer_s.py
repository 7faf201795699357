"""Longformer-S: the model-specific sparse attention of allenai/longformer.

Longformer's authors hand-optimized their window+global pattern by
*decomposing* it: the sliding window becomes a banded matmul over chunked
diagonals, and the global tokens become separate dense slabs.  That removes
coverage waste entirely, but at the price of

* heavy data rearrangement (chunking/rolling Q and K into overlapping
  blocks, padding, and copying results back), and
* temporary intermediate tensors (the Figure 12 memory discussion).

The design is pattern-specific: it cannot serve Museformer or MoE models.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..hw.costmodel import TileConfig
from ..hw.memory import stream_time_us
from ..hw.memtracker import MemoryTracker
from ..hw.spec import dtype_bytes
from ..hw.timeline import ExecReport
from .backends import ModelBackend, UnsupportedModelError

#: Rearrangement passes over Q/K/V for the chunked-diagonal layout:
#: chunk, pad, roll and transpose each of Q/K/V plus the un-chunk of the
#: band outputs.
REARRANGE_PASSES = 10


class LongformerSBackend(ModelBackend):
    """Pattern-decomposed window+global attention."""

    name = "Longformer-S"
    #: One-sided sliding-window width and global-token count the
    #: decomposed kernels are built for.
    WINDOW = 512
    NUM_GLOBAL = 64

    def attention(
        self, lengths, heads: int, head_dim: int,
        *, attn_mask: Optional[np.ndarray] = None, causal: bool = False,
        mem: Optional[MemoryTracker] = None,
    ) -> list:
        lengths = np.asarray(lengths)
        batch = int(lengths.size)
        s = int(lengths.max()) if batch else 0
        bh = batch * heads
        w, g = self.WINDOW, self.NUM_GLOBAL

        tile = TileConfig(32, min(64, max(8, head_dim)), 32)
        # Banded part: the chunked-diagonal implementation computes a full
        # 2w-wide band per row (the overlapping-chunk trick), i.e. 2x the
        # useful window scores.
        band_scores = s * 2 * w
        band_tiles = math.ceil(band_scores / (tile.tm * tile.tn)) * bh
        band_steps = band_tiles * math.ceil(head_dim / tile.tk)
        # Global part: 2*g dense stripes of length s.
        glob_scores = 2 * g * s
        glob_tiles = math.ceil(glob_scores / (tile.tm * tile.tn)) * bh
        glob_steps = glob_tiles * math.ceil(head_dim / tile.tk)

        qk = self._tiled_matmul_us(band_steps + glob_steps, band_tiles + glob_tiles, tile)
        pv = qk  # symmetric second matmul
        total_scores = (band_scores + glob_scores) * bh
        sm_bytes = int(total_scores) * dtype_bytes(self.dtype)
        sm = 3 * stream_time_us(sm_bytes, self.spec) + self.spec.kernel_launch_us

        # The rearrangement overhead: chunk/roll/pad copies of Q, K, V and
        # the un-chunk of outputs.
        qkv_bytes = 3 * batch * s * heads * head_dim * dtype_bytes(self.dtype)
        rearrange = (
            REARRANGE_PASSES * stream_time_us(qkv_bytes, self.spec)
            + REARRANGE_PASSES * self.spec.kernel_launch_us
        )

        # Temporaries: chunked copies (2x QKV) and banded score buffers.
        self._alloc(mem, int(total_scores), "attn.scores")
        self._alloc(mem, 2 * 3 * batch * s * heads * head_dim, "attn.chunked", "conversion")
        self._alloc(mem, batch * s * heads * head_dim, "attn.out")
        return [
            ExecReport(
                op="attn.qk", latency_us=qk + rearrange, convert_us=rearrange
            ),
            ExecReport(op="attn.softmax", latency_us=sm),
            ExecReport(op="attn.pv", latency_us=pv),
        ]

    def moe_ffn(self, routing, d_model: int, d_ff: int) -> list:
        raise UnsupportedModelError(
            "Longformer-S is attention-specific; it has no MoE operators"
        )
