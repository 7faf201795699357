"""PyTorch-S: the paper's sparse-kernel PyTorch variant.

"We also create PyTorch-S, a variant of PyTorch that uses the
best-performing sparse kernels from cuSPARSE, Sputnik, and Triton.  We
select the best result among these sparse kernels for each model."

At the model level PyTorch-S behaves like PyTorch with Triton block-sparse
(block 32) kernels substituted where sparsity exists:

* token-level sparsity is handled at 32-token block granularity — short
  sequences pad up to a multiple of 32 (a 16-token sequence wastes 50%,
  the Figure 11 discussion);
* every fresh sparsity pattern requires rebuilding the Triton block layout
  ("PyTorch-S Convert" in every figure);
* converted sparse copies of the data are materialized, costing memory
  (Longformer-4k and Museformer OOMs).
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
from .backends import AllocLog, ModelBackend
from .triton_block import triton_convert_passes

#: Host synchronization + layout rebuild of the Triton sparse-attention
#: wrapper, paid once per layer per fresh mask.
TRITON_ATTENTION_SYNC_US = 250.0

#: Block size of Triton's block-sparse attention kernels.
_TRITON_ATTENTION_BLOCK = 32


def triton_masked_attention(
    backend: ModelBackend,
    lengths,
    heads: int,
    head_dim: int,
    attn_mask,
    mem: Optional[MemoryTracker],
) -> list:
    """Triton block-sparse attention over a dynamic mask.

    Shared by PyTorch-S and DeepSpeed ("DeepSpeed uses Triton to implement
    their sparse attention, so it has a similar performance to PyTorch-S",
    Section 5.1).  The mask is covered with 32x32 blocks; QK^T/softmax/PV
    run on covered blocks only, but the wrapper must materialize the
    broadcast mask, the raw block scores, a converted copy, and the softmax
    output — the temporaries behind the Figure 12/13 memory story.
    """
    from ..sparsity.attention import as_mask_stats
    from ..hw.costmodel import TileConfig

    block = _TRITON_ATTENTION_BLOCK
    lengths = np.asarray(lengths)
    batch = int(lengths.size)
    stats = as_mask_stats(attn_mask, block=block)
    covered_blocks = stats.covered_blocks
    score_elems = float(stats.covered_block_elems())
    s = stats.seq
    tile = TileConfig(block, block, block)

    bh = batch * heads
    steps = covered_blocks * bh * math.ceil(head_dim / tile.tk)
    out_tiles = covered_blocks * bh
    qk = backend._tiled_matmul_us(steps, out_tiles, tile)
    sm_bytes = int(score_elems * bh) * dtype_bytes(backend.dtype)
    sm = 3 * stream_time_us(sm_bytes, backend.spec) + backend.spec.kernel_launch_us
    pv = backend._tiled_matmul_us(steps, out_tiles, tile)

    # Layout build: one scan of the [s, s] byte mask, multi-pass work on
    # the (s/32)^2 block map, and a fixed host-sync cost.  The fixed part
    # dominates at short sequences (Figure 13's 23.2%-then-diluted
    # conversion share).
    passes = triton_convert_passes(block)
    block_map_bytes = (s // block + 1) ** 2 * 8
    convert = (
        stream_time_us(s * s, backend.spec)
        + stream_time_us(int(block_map_bytes * passes), backend.spec)
        + TRITON_ATTENTION_SYNC_US
    )
    # Temporaries: broadcast byte mask, raw + converted + softmax'd scores.
    if mem is not None:
        mem.alloc(s * s, "attn.mask.bytes", category="conversion")
    backend._alloc(mem, int(score_elems * bh), "attn.scores.block")
    backend._alloc(mem, int(score_elems * bh), "attn.scores.converted", "conversion")
    backend._alloc(mem, int(score_elems * bh), "attn.probs.block")
    backend._alloc(mem, batch * s * heads * head_dim, "attn.out")
    return [
        ExecReport(op="attn.qk", latency_us=qk + convert, convert_us=convert),
        ExecReport(op="attn.softmax", latency_us=sm),
        ExecReport(op="attn.pv", latency_us=pv),
    ]


class PyTorchSBackend(ModelBackend):
    """PyTorch + best-of {cuSPARSE, Sputnik, Triton} sparse kernels."""

    name = "PyTorch-S"
    BLOCK = 32

    def __init__(self, spec, dtype: str = "float32"):
        super().__init__(spec, dtype)
        self.tile = TileConfig(self.BLOCK, self.BLOCK, self.BLOCK)
        self._causal_model = False

    def check_model(self, family: str, max_seq: int) -> None:
        """Engine hook: decoder (causal) models keep full padding.

        The sparse wrappers pack encoder batches into 32-token blocks, but
        packing breaks the causal-mask structure their attention kernels
        assume, so decoder models (OPT, Museformer) run at PyTorch padding —
        part of why PyTorch-S has the *highest* OPT latency in Figure 10.
        """
        self._causal_model = family in ("opt", "museformer")

    # ------------------------------------------------------------------
    def padded_tokens(self, lengths) -> int:
        """Tokens computed on: each sequence padded to a multiple of 32
        (encoders) or to the batch max (causal decoders; see check_model)."""
        lengths = np.asarray(lengths)
        if lengths.size == 0:
            return 0
        if self._causal_model:
            return int(lengths.max()) * int(lengths.size)
        return int((np.ceil(lengths / self.BLOCK) * self.BLOCK).sum())

    #: Host-visible work of one sparse-wrapper invocation: building the
    #: Triton layout (mask reduce + LUT) and synchronizing before launch.
    CONVERT_FIXED_US = 30.0
    #: Achieved bandwidth fraction of the dense->block *data* conversion
    #: (scattered writes + stage synchronizations).
    CONVERT_DATA_BW_EFF = 0.2

    def _layout_convert_us(self, rows: int, cols: int) -> float:
        """Per-op conversion for *token-structured* sparsity.

        The wrapper materializes the sparse view of the activation (read +
        write: two streaming passes) and rebuilds the block layout from the
        block occupancy map, plus fixed launch/sync overhead.  Converting
        activation *data* to the block format is costed separately with
        Triton's multi-pass count from :mod:`repro.tensor.sparse`.
        """
        dense_bytes = rows * cols * dtype_bytes(self.dtype)
        layout_bytes = max(1, (rows // self.BLOCK) * (cols // self.BLOCK)) * 8
        return (
            stream_time_us(int(dense_bytes * 2.2), self.spec)
            + stream_time_us(layout_bytes, self.spec)
            + self.CONVERT_FIXED_US
        )

    # ------------------------------------------------------------------
    def linear(
        self, lengths, in_f: int, out_f: int,
        *, label: str = "linear", mem: Optional[MemoryTracker] = None,
    ) -> list:
        tokens = self.padded_tokens(lengths)
        batch = int(np.asarray(lengths).size)
        max_len = int(np.asarray(lengths).max()) if batch else 0
        latency = self._matmul_us(tokens, in_f, out_f)
        # The token block layout is rebuilt per fresh batch mask: one Triton
        # layout pass over the padded activation.
        convert = self._layout_convert_us(batch * max_len, in_f)
        self._alloc(mem, tokens * out_f, label)
        # Converted sparse copy of the input activation.
        self._alloc(mem, tokens * in_f, f"{label}.converted", "conversion")
        return [
            ExecReport(op=label, latency_us=latency + convert, convert_us=convert)
        ]

    def ffn(
        self, lengths, d_model: int, d_ff: int,
        *, activation: str = "gelu", act_sparsity: Optional[float] = None,
        seed: int = 0, mem: Optional[MemoryTracker] = None,
    ) -> list:
        reports = self.linear(lengths, d_model, d_ff, label="ffn.in", mem=mem)
        tokens = self.padded_tokens(lengths)
        reports.append(
            ExecReport(
                op=f"ffn.{activation}",
                latency_us=elementwise_time_us(tokens * d_ff, self.dtype, self.spec),
            )
        )
        if act_sparsity is None or activation != "relu":
            reports.extend(
                self.linear(lengths, d_ff, d_model, label="ffn.out", mem=mem)
            )
            return reports
        # OPT's ReLU activation sparsity (Figure 10): PyTorch-S tries to
        # exploit it with Triton's 32x32 blocks, but the 1-element-granular
        # pattern lights up essentially every block — the compute stays
        # (nearly) dense while the wrapper still converts the big
        # [tokens, d_ff] activation *data* to the block format every batch.
        # This is why PyTorch-S has the highest OPT latency in the paper.
        block_elems = self.BLOCK * self.BLOCK
        covered_fraction = 1.0 - (act_sparsity ** block_elems)
        compute = self._matmul_us(tokens, d_ff, d_model) * covered_fraction
        from ..tensor.sparse import TRITON_CONVERT_PASSES

        # Converting the activation *data* into the block format runs far
        # below streaming bandwidth: scattered block writes, several small
        # kernels and synchronizations between the stages.
        act_bytes = tokens * d_ff * dtype_bytes(self.dtype)
        convert = (
            stream_time_us(int(act_bytes * TRITON_CONVERT_PASSES), self.spec)
            / self.CONVERT_DATA_BW_EFF
            + 4 * self.spec.kernel_launch_us
        )
        self._alloc(mem, tokens * d_model, "ffn.out")
        self._alloc(mem, tokens * d_ff, "ffn.act.converted", "conversion")
        reports.append(
            ExecReport(
                op="ffn.out[block-sparse-act]",
                latency_us=compute + convert,
                convert_us=convert,
                wasted_fraction=covered_fraction - (1.0 - act_sparsity),
            )
        )
        return reports

    def attention(
        self, lengths, heads: int, head_dim: int,
        *, attn_mask: Optional[np.ndarray] = None, causal: bool = False,
        mem: Optional[MemoryTracker] = None,
    ) -> list:
        lengths = np.asarray(lengths)
        batch = int(lengths.size)
        if attn_mask is not None:
            return triton_masked_attention(
                self, lengths, heads, head_dim, attn_mask, mem
            )
        # Variable lengths: block-diagonal attention at 32-token blocks.
        padded = np.ceil(lengths / self.BLOCK) * self.BLOCK
        score_elems = float((padded**2).sum())
        s = int(lengths.max()) if batch else 0
        covered_blocks = int(score_elems // (self.BLOCK**2))

        bh = batch * heads
        steps = covered_blocks * heads * math.ceil(head_dim / self.tile.tk)
        out_tiles = covered_blocks * heads
        qk = self._tiled_matmul_us(steps, out_tiles, self.tile)
        sm_bytes = int(score_elems * heads) * dtype_bytes(self.dtype)
        sm = 3 * stream_time_us(sm_bytes, self.spec) + self.spec.kernel_launch_us
        pv = self._tiled_matmul_us(steps, out_tiles, self.tile)
        convert = self._layout_convert_us(batch * s, s)
        self._alloc(mem, int(score_elems * heads), "attn.scores")
        self._alloc(mem, int(score_elems * heads), "attn.scores.converted", "conversion")
        self._alloc(mem, batch * s * heads * head_dim, "attn.out")
        return [
            ExecReport(op="attn.qk", latency_us=qk + convert, convert_us=convert),
            ExecReport(op="attn.softmax", latency_us=sm),
            ExecReport(op="attn.pv", latency_us=pv),
        ]

    def _moe_layer(self, counts, num_tokens: int, d_model: int, d_ff: int,
                   mem: AllocLog) -> list:
        """PyTorch-S MoE: the same sequential expert loop as PyTorch (it is
        PyTorch with sparse kernels substituted, not a grouped-GEMM system),
        with a per-expert sparse-format conversion on top.  This is why the
        Figure 8 speedups over PyTorch-S track those over PyTorch."""
        total = 0.0
        convert_total = 0.0
        for count in counts:
            count = int(count)
            if count == 0:
                continue
            padded = math.ceil(count / self.BLOCK) * self.BLOCK
            gather = elementwise_time_us(count * d_model, self.dtype, self.spec)
            up = self._matmul_us(padded, d_model, d_ff)
            act = elementwise_time_us(padded * d_ff, self.dtype, self.spec)
            down = self._matmul_us(padded, d_ff, d_model)
            scatter = elementwise_time_us(count * d_model, self.dtype, self.spec)
            convert = self._layout_convert_us(padded, d_model)
            total += (
                gather + up + act + down + scatter + convert
                + self.MOE_EXPERT_SYNC_US
            )
            convert_total += convert
        self._alloc(mem, num_tokens * d_ff, "moe.hidden")
        self._alloc(mem, num_tokens * d_model, "moe.converted", "conversion")
        return [
            ExecReport(
                op="moe.sequential_sparse",
                latency_us=total,
                convert_us=convert_total,
            )
        ]
