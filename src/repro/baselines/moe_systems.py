"""MoE-system baselines: Tutel, DeepSpeed, MegaBlocks (Figures 8 and 9).

All three execute the experts *together* instead of PyTorch's Python loop,
but differ in how they handle the uneven token distribution:

* **Tutel** pads every expert's buffer to the *maximum* per-expert token
  count and runs one BatchMatmul — enormous padding waste and memory when
  routing is skewed (its OOMs in Figure 8);
* **DeepSpeed-MoE** pads to a fixed capacity factor and *drops* overflow
  tokens; plus it fuses inference layers (activation-memory savings);
* **MegaBlocks** reorganizes tokens into a block-sparse layout and runs a
  block-grouped GEMM — only ceil-to-32 padding, but it pays the
  reorganization passes and ships fp16 kernels only.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..hw.costmodel import TileConfig, elementwise_time_us
from ..hw.memory import stream_time_us
from ..hw.memtracker import MemoryTracker
from ..hw.spec import dtype_bytes
from ..hw.timeline import ExecReport
from ..sparsity.moe import capacity_tokens
from .backends import AllocLog, ModelBackend


class TutelBackend(ModelBackend):
    """Tutel: BatchMatmul over expert buffers padded to the max load."""

    name = "Tutel"
    #: Workspace overhead factor: the all-to-all dispatch stages input and
    #: output copies of the capacity-sized buffers, and because every
    #: batch's capacity differs the caching allocator retains blocks it
    #: cannot reuse.  Together ~2x the nominal buffer bytes.
    WORKSPACE_RETENTION = 2.0

    def _moe_layer(self, counts, num_tokens: int, d_model: int, d_ff: int,
                   mem: AllocLog) -> list:
        cap = int(counts.max(initial=0))
        e = counts.size
        if cap == 0:
            return [ExecReport(op="moe.tutel", latency_us=self.spec.kernel_launch_us)]
        # Dispatch: scatter tokens into the [E, cap, d_model] buffer.
        dispatch = 2 * elementwise_time_us(
            num_tokens * d_model, self.dtype, self.spec
        )
        up = self._matmul_us(cap, d_model, d_ff, batch=e)
        act = elementwise_time_us(e * cap * d_ff, self.dtype, self.spec)
        down = self._matmul_us(cap, d_ff, d_model, batch=e)
        combine = 2 * elementwise_time_us(
            num_tokens * d_model, self.dtype, self.spec
        )
        # Memory: the padded dispatch buffers dominate (E x cap x dims).
        # Because every batch's capacity differs, the caching allocator
        # retains each MoE layer's buffers instead of reusing them — the
        # "excessive padding" OOMs of Figure 8 (category survives the
        # engine's per-layer free of 'padding').
        retained = self.WORKSPACE_RETENTION
        self._alloc(mem, int(e * cap * d_model * retained), "moe.dispatch", "moe-workspace")
        self._alloc(mem, int(e * cap * d_ff * retained), "moe.hidden", "moe-workspace")
        self._alloc(mem, int(e * cap * d_model * retained), "moe.combine", "moe-workspace")
        waste = 1.0 - num_tokens / max(1, e * cap)
        return [
            ExecReport(
                op="moe.tutel",
                latency_us=dispatch + up + act + down + combine,
                wasted_fraction=waste,
                detail={"capacity": cap, "experts": e},
            )
        ]


class DeepSpeedBackend(ModelBackend):
    """DeepSpeed inference: fused layers + capacity-factor MoE."""

    name = "DeepSpeed"
    fuses_inference_layers = True
    WORKSPACE_RETENTION = 1.3
    #: Default inference capacity factor.
    CAPACITY_FACTOR = 1.25
    #: Layer fusion removes most non-matmul launch overheads.
    FUSION_LAUNCH_SAVING = 0.6

    def layernorm(self, lengths, d_model: int) -> list:
        reports = super().layernorm(lengths, d_model)
        return [
            ExecReport(op=r.op, latency_us=r.latency_us * self.FUSION_LAUNCH_SAVING)
            for r in reports
        ]

    def pointwise(self, lengths, d_model: int, *, label: str = "residual") -> list:
        reports = super().pointwise(lengths, d_model, label=label)
        return [
            ExecReport(op=r.op, latency_us=r.latency_us * self.FUSION_LAUNCH_SAVING)
            for r in reports
        ]

    def attention(
        self, lengths, heads: int, head_dim: int,
        *, attn_mask=None, causal: bool = False,
        mem: Optional[MemoryTracker] = None,
    ) -> list:
        if attn_mask is not None:
            # DeepSpeed's sparse attention is built on the same Triton
            # block-sparse kernels as PyTorch-S (Section 5.1), outside the
            # fused-layer fast path — including its temporaries.
            from .pytorch_s import triton_masked_attention

            return triton_masked_attention(
                self, lengths, heads, head_dim, attn_mask, mem
            )
        return super().attention(
            lengths, heads, head_dim, attn_mask=None, causal=causal, mem=mem
        )

    def _moe_layer(self, counts, num_tokens: int, d_model: int, d_ff: int,
                   mem: AllocLog) -> list:
        e = counts.size
        cap = capacity_tokens(num_tokens, e, self.CAPACITY_FACTOR)
        dispatch = 2 * elementwise_time_us(
            num_tokens * d_model, self.dtype, self.spec
        )
        up = self._matmul_us(cap, d_model, d_ff, batch=e)
        act = elementwise_time_us(e * cap * d_ff, self.dtype, self.spec)
        down = self._matmul_us(cap, d_ff, d_model, batch=e)
        combine = 2 * elementwise_time_us(
            num_tokens * d_model, self.dtype, self.spec
        )
        # Same allocator-retention behaviour as Tutel (see there), at the
        # smaller capacity-factor buffer sizes.
        retained = self.WORKSPACE_RETENTION
        self._alloc(mem, int(e * cap * d_model * retained), "moe.dispatch", "moe-workspace")
        self._alloc(mem, int(e * cap * d_ff * retained), "moe.hidden", "moe-workspace")
        dropped = int(np.maximum(counts - cap, 0).sum())
        waste = 1.0 - num_tokens / max(1, e * cap)
        return [
            ExecReport(
                op="moe.deepspeed",
                latency_us=dispatch + up + act + down + combine,
                wasted_fraction=max(0.0, waste),
                detail={"capacity": cap, "dropped_tokens": dropped},
            )
        ]


class MegaBlocksBackend(ModelBackend):
    """MegaBlocks: block-sparse grouped GEMM over reorganized tokens."""

    name = "MegaBlocks"
    supported_dtypes = ("float16",)
    BLOCK = 32

    def _moe_layer(self, counts, num_tokens: int, d_model: int, d_ff: int,
                   mem: AllocLog) -> list:
        tile = TileConfig(self.BLOCK, self.BLOCK, self.BLOCK * 2)
        steps_up = steps_down = tiles_up = tiles_down = 0
        padded_tokens = 0
        for count in counts:
            count = int(count)
            if count == 0:
                continue
            m_tiles = math.ceil(count / self.BLOCK)
            padded_tokens += m_tiles * self.BLOCK
            tiles_up += m_tiles * math.ceil(d_ff / tile.tn)
            steps_up += m_tiles * math.ceil(d_ff / tile.tn) * math.ceil(d_model / tile.tk)
            tiles_down += m_tiles * math.ceil(d_model / tile.tn)
            steps_down += m_tiles * math.ceil(d_model / tile.tn) * math.ceil(d_ff / tile.tk)
        up = self._tiled_matmul_us(steps_up, tiles_up, tile)
        act = elementwise_time_us(padded_tokens * d_ff, self.dtype, self.spec)
        down = self._tiled_matmul_us(steps_down, tiles_down, tile)
        # Token reorganization: histogram + sort + gather into the
        # expert-sorted layout, and the scatter back — four passes over the
        # token tensor (the cost PIT's SRead/SWrite piggybacking removes).
        token_bytes = num_tokens * d_model * dtype_bytes(self.dtype)
        reorg = 4 * stream_time_us(token_bytes, self.spec) + 4 * self.spec.kernel_launch_us
        self._alloc(mem, padded_tokens * d_model, "moe.sorted", "conversion")
        self._alloc(mem, padded_tokens * d_ff, "moe.hidden")
        waste = 1.0 - num_tokens / max(1, padded_tokens)
        return [
            ExecReport(
                op="moe.megablocks",
                latency_us=up + act + down + reorg,
                convert_us=reorg,
                wasted_fraction=waste,
                detail={"padded_tokens": padded_tokens},
            )
        ]
