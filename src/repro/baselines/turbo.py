"""TurboTransformers baseline (Figure 11).

TurboTransformers serves BERT with *smart dynamic batching*: it sorts
requests by length and runs sub-batches of similar lengths sequentially,
so each sub-batch pads only to its own maximum.  It also fuses non-GEMM ops
(activation-memory savings).  Its limits, per the paper:

* it "only supports the BERT model and fails to run other models due to
  missing operators";
* it "crashes when the input sequence length increases due to kernel
  implementation issues";
* the sub-batches run *sequentially*, so short sub-batches underfill the
  GPU — PIT's whole-batch gather is 1.1-1.9x faster.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..hw.memtracker import MemoryTracker
from ..hw.timeline import ExecReport
from .backends import ModelBackend, UnsupportedModelError

#: Sequence length beyond which TurboTransformers' kernels crash.
TURBO_MAX_SEQ = 512
#: Number of length-sorted sub-batches the scheduler forms.
TURBO_BUCKETS = 4


def length_buckets(lengths) -> list:
    """Split lengths into ``TURBO_BUCKETS`` sorted sub-batches (each padded
    to its own max)."""
    lengths = np.sort(np.asarray(lengths))
    if lengths.size == 0:
        return []
    splits = np.array_split(lengths, min(TURBO_BUCKETS, lengths.size))
    return [s for s in splits if s.size]


class TurboTransformerBackend(ModelBackend):
    """Length-bucketed sequential execution, BERT-only."""

    name = "TurboTransformer"
    fuses_inference_layers = True
    supported_model_families = ("bert",)

    def check_model(self, family: str, max_seq: int) -> None:
        """Raise for unsupported models/lengths (the paper's crash notes)."""
        if family not in self.supported_model_families:
            raise UnsupportedModelError(
                f"TurboTransformers only supports BERT; {family!r} has "
                f"missing operators"
            )
        if max_seq > TURBO_MAX_SEQ:
            raise UnsupportedModelError(
                f"TurboTransformers kernels crash beyond {TURBO_MAX_SEQ} "
                f"tokens (requested {max_seq})"
            )

    def padded_tokens(self, lengths) -> int:
        return sum(
            int(bucket.max()) * bucket.size for bucket in length_buckets(lengths)
        )

    def linear(
        self, lengths, in_f: int, out_f: int,
        *, label: str = "linear", mem: Optional[MemoryTracker] = None,
    ) -> list:
        total = 0.0
        tokens_out = 0
        for bucket in length_buckets(lengths):
            rows = int(bucket.max()) * bucket.size
            total += self._matmul_us(rows, in_f, out_f)
            tokens_out += rows
        self._alloc(mem, tokens_out * out_f, label)
        return [ExecReport(op=label, latency_us=total)]

    def attention(
        self, lengths, heads: int, head_dim: int,
        *, attn_mask=None, causal: bool = False,
        mem: Optional[MemoryTracker] = None,
    ) -> list:
        from ..hw.costmodel import softmax_time_us

        if attn_mask is not None:
            raise UnsupportedModelError(
                "TurboTransformers has no sparse-attention operators"
            )
        qk = sm = pv = 0.0
        score_elems = 0
        for bucket in length_buckets(lengths):
            s = int(bucket.max())
            bh = bucket.size * heads
            qk += self._matmul_us(s, head_dim, s, batch=bh)
            sm += softmax_time_us(bh * s, s, self.dtype, self.spec)
            pv += self._matmul_us(s, s, head_dim, batch=bh)
            score_elems += bh * s * s
        self._alloc(mem, score_elems, "attn.scores")
        return [
            ExecReport(op="attn.qk", latency_us=qk),
            ExecReport(op="attn.softmax", latency_us=sm),
            ExecReport(op="attn.pv", latency_us=pv),
        ]

    def moe_ffn(self, routing, d_model: int, d_ff: int) -> list:
        raise UnsupportedModelError("TurboTransformers has no MoE operators")
