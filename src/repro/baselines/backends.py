"""Model-level backends: the end-to-end systems of Figures 8-15 and 19.

A :class:`ModelBackend` prices the transformer primitives (projections, FFN,
attention, MoE dispatch) with one system's padding/conversion/fusion
semantics, and books activations into a :class:`~repro.hw.MemoryTracker`.
The runtime engine (:mod:`repro.runtime.engine`) walks a model architecture
and sums the reports.

This module holds the base class and the dense systems (PyTorch, TVM); the
sparse/MoE/specialized systems live in sibling modules.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core.tiledb import TileDB
from ..hw.costmodel import (
    TileConfig,
    dense_matmul_time_us,
    elementwise_time_us,
    kernel_time_us,
    layernorm_time_us,
    matmul_step_time_us,
    matmul_tile_fixed_time_us,
    softmax_time_us,
)
from ..hw.memtracker import MemoryTracker
from ..hw.spec import GPUSpec, dtype_bytes
from ..hw.timeline import ExecReport


class UnsupportedModelError(RuntimeError):
    """Raised when a baseline cannot run a model (missing ops, crashes)."""


class AllocLog(list):
    """An op's allocations as ``(bytes, label, category)`` records, in call
    order: a :class:`~repro.hw.MemoryTracker` stand-in that books nothing,
    so the engine can book them later."""

    def alloc(self, num_bytes: int, label: str, category: str) -> None:
        self.append((num_bytes, label, category))


class ModelBackend:
    """Base backend: dense padded execution (PyTorch semantics).

    Subclasses override the padding/conversion/sparsity behaviour; every
    shared cost helper lives here so backends stay commensurate.

    Pricing contract: the engine prices layer 0's blocks and replays them
    for every later layer, re-pricing only what the contract allows to
    differ (see :func:`repro.runtime.engine.run_transformer`):

    * a first-use charge, like :class:`~repro.baselines.PITBackend`'s
      once-per-batch detector passes, shows as Convert time
      (``convert_us``) on the op that pays it;
    * an op with no Convert time in layer 0 prices identically in every
      later layer;
    * in an MoE block, only :meth:`moe_ffn` reads the routing, and it
      prices every MoE layer of the run in one call.
    """

    name = "PyTorch"
    #: Which precisions the system ships kernels for (MegaBlocks is fp16-only).
    supported_dtypes = ("float32", "float16")
    #: Fusing the whole encoder layer into one op saves activation memory at
    #: inference (DeepSpeed, TurboTransformer).
    fuses_inference_layers = False
    #: Labels of intra-layer intermediates that fused backends never
    #: materialize at inference (set by the engine via :meth:`set_fusion`).
    INTERMEDIATE_LABELS = ("ffn.in", "attn.scores", "moe.hidden")

    def __init__(self, spec: GPUSpec, dtype: str = "float32"):
        if dtype not in self.supported_dtypes:
            raise UnsupportedModelError(
                f"{self.name} does not provide {dtype} kernels"
            )
        self.spec = spec
        self.dtype = dtype
        #: Bytes per element of ``dtype``: every booking multiplies by it.
        self._dsize = dtype_bytes(dtype)
        self.tensor_core = dtype == "float16" and spec.has_tensor_cores
        self.tiledb = TileDB.shared(spec, dtype, tensor_core=self.tensor_core)
        self._fusion_active = False
        #: (tm, tk, tn) -> (step, fixed) times: device constants.
        self._tile_times: dict = {}

    def set_fusion(self, active: bool, lengths=None) -> None:
        """Engine hook at run start (given the run's ``lengths``) and at run
        end: enable inference-layer fusion memory savings.

        Only takes effect on backends with ``fuses_inference_layers`` — and
        only at inference; training must keep activations for backward
        (Figure 14's DeepSpeed memory discussion).
        """
        self._fusion_active = active and self.fuses_inference_layers

    # ------------------------------------------------------------------
    # Shared cost helpers
    # ------------------------------------------------------------------
    def _matmul_us(self, m: int, k: int, n: int, *, batch: int = 1) -> float:
        """Dense matmul latency with the best profiled tile."""
        if m <= 0 or k <= 0 or n <= 0 or batch <= 0:
            return 0.0
        entry = self.tiledb.best_dense_tile(m, k, n)
        tiles = math.ceil(m / entry.tile.tm) * math.ceil(n / entry.tile.tn) * batch
        return kernel_time_us(tiles, entry.tile_cost_us(k), self.spec)

    def dense_matmul_us(self, m: int, k: int, n: int) -> float:
        """Public dense matmul pricing with the wave-quantized formula — the
        training path charges baseline backends through this instead of
        reimplementing tile lookup (the inference paths use the
        profiled-tile-cost variant, :meth:`_matmul_us`)."""
        if m <= 0 or k <= 0 or n <= 0:
            return 0.0
        entry = self.tiledb.best_dense_tile(m, k, n)
        return dense_matmul_time_us(
            m, k, n, entry.tile, self.dtype, self.spec,
            tensor_core=self.tensor_core,
        )

    def _tiled_matmul_us(
        self, total_steps: int, out_tiles: int, tile: TileConfig
    ) -> float:
        """Latency of a fused kernel given its tile workload."""
        if total_steps <= 0:
            return self.spec.kernel_launch_us
        # Keyed by the extents: a tuple of numbers hashes without calling
        # the dataclass's Python-level __hash__.
        key = (tile.tm, tile.tk, tile.tn)
        times = self._tile_times.get(key)
        if times is None:
            times = self._tile_times[key] = (
                matmul_step_time_us(
                    tile, self.dtype, self.spec, tensor_core=self.tensor_core
                ),
                matmul_tile_fixed_time_us(tile, self.dtype, self.spec),
            )
        step, fixed = times
        step_waves = math.ceil(total_steps / self.spec.num_sms)
        tile_waves = math.ceil(out_tiles / self.spec.num_sms)
        return step_waves * step + tile_waves * fixed + self.spec.kernel_launch_us

    def _alloc(
        self, mem: Optional[MemoryTracker], num_elems: int, label: str,
        category: str = "activations",
    ) -> None:
        if mem is None or num_elems <= 0:
            return
        if self._fusion_active and label in self.INTERMEDIATE_LABELS:
            return  # fused kernels never materialize these
        mem.alloc(int(num_elems) * self._dsize, label, category=category)

    # ------------------------------------------------------------------
    # Token accounting (padding semantics)
    # ------------------------------------------------------------------
    def padded_tokens(self, lengths) -> int:
        """Rows a token-level matmul computes over: pad to the batch max."""
        lengths = np.asarray(lengths)
        if lengths.size == 0:
            return 0
        return int(lengths.max()) * int(lengths.size)

    def padded_seq(self, lengths) -> int:
        """Per-sequence padded length used by attention."""
        lengths = np.asarray(lengths)
        return int(lengths.max()) if lengths.size else 0

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def linear(
        self, lengths, in_f: int, out_f: int,
        *, label: str = "linear", mem: Optional[MemoryTracker] = None,
    ) -> list:
        """Token projection: [tokens, in_f] @ [in_f, out_f]."""
        tokens = self.padded_tokens(lengths)
        latency = self._matmul_us(tokens, in_f, out_f)
        self._alloc(mem, tokens * out_f, label)
        return [ExecReport(op=label, latency_us=latency)]

    def layernorm(self, lengths, d_model: int) -> list:
        tokens = self.padded_tokens(lengths)
        return [
            ExecReport(
                op="layernorm",
                latency_us=layernorm_time_us(tokens, d_model, self.dtype, self.spec),
            )
        ]

    def pointwise(self, lengths, d_model: int, *, label: str = "residual") -> list:
        """Residual add / bias add over the token activation."""
        tokens = self.padded_tokens(lengths)
        return [
            ExecReport(
                op=label,
                latency_us=elementwise_time_us(
                    tokens * d_model, self.dtype, self.spec, num_inputs=2
                ),
            )
        ]

    def ffn(
        self, lengths, d_model: int, d_ff: int,
        *, activation: str = "gelu", act_sparsity: Optional[float] = None,
        seed: int = 0, mem: Optional[MemoryTracker] = None,
    ) -> list:
        """Two-matmul FFN.  Dense systems cannot exploit ``act_sparsity``."""
        reports = self.linear(lengths, d_model, d_ff, label="ffn.in", mem=mem)
        tokens = self.padded_tokens(lengths)
        reports.append(
            ExecReport(
                op=f"ffn.{activation}",
                latency_us=elementwise_time_us(tokens * d_ff, self.dtype, self.spec),
            )
        )
        reports.extend(self.linear(lengths, d_ff, d_model, label="ffn.out", mem=mem))
        return reports

    def attention(
        self, lengths, heads: int, head_dim: int,
        *, attn_mask: Optional[np.ndarray] = None, causal: bool = False,
        mem: Optional[MemoryTracker] = None,
    ) -> list:
        """Multi-head attention: QK^T, softmax, PV, at padded length.

        Dense systems compute the full [s, s] score matrix regardless of the
        mask; the mask only changes softmax masking (same cost).
        """
        from ..sparsity.attention import MaskStats

        batch = int(np.asarray(lengths).size)
        s = self.padded_seq(lengths)
        if isinstance(attn_mask, MaskStats):
            s = attn_mask.seq
        elif attn_mask is not None:
            s = np.asarray(attn_mask).shape[0]
        bh = batch * heads
        qk = self._matmul_us(s, head_dim, s, batch=bh)
        sm = softmax_time_us(bh * s, s, self.dtype, self.spec)
        pv = self._matmul_us(s, s, head_dim, batch=bh)
        self._alloc(mem, bh * s * s, "attn.scores")
        self._alloc(mem, batch * s * heads * head_dim, "attn.out")
        return [
            ExecReport(op="attn.qk", latency_us=qk),
            ExecReport(op="attn.softmax", latency_us=sm),
            ExecReport(op="attn.pv", latency_us=pv),
        ]

    #: Per-expert stall of the eager MoE loop: selecting each expert's
    #: tokens calls ``.nonzero()`` / boolean indexing, which synchronizes
    #: the device and re-fills the pipeline, on top of the launch overheads
    #: of the per-expert small kernels.  This is why eager PyTorch degrades
    #: so sharply as the expert count grows (Figure 8).
    MOE_EXPERT_SYNC_US = 150.0

    def moe_ffn(self, routing, d_model: int, d_ff: int) -> list:
        """The expert FFNs of every MoE layer of ``routing`` (a
        :class:`~repro.sparsity.moe.RoutingTable` already rescaled to this
        backend's token count), priced in one call.

        Returns, per row, that layer's ``(reports, allocs)``: its reports
        and its allocations as ``(bytes, label, category)`` records in call
        order, which the engine books layer by layer.  Each layer prices
        through :meth:`_moe_layer`.
        """
        layers = []
        for counts in routing.counts:
            allocs = AllocLog()
            reports = self._moe_layer(
                counts, routing.num_tokens, d_model, d_ff, allocs
            )
            layers.append((tuple(reports), tuple(allocs)))
        return layers

    def _moe_layer(self, counts, num_tokens: int, d_model: int, d_ff: int,
                   mem: AllocLog) -> list:
        """PyTorch MoE: a Python loop over experts, one pair of small
        matmuls per expert (plus gather/scatter and a device sync each)."""
        total = 0.0
        for count in counts:
            count = int(count)
            if count == 0:
                continue
            gather = elementwise_time_us(count * d_model, self.dtype, self.spec)
            up = self._matmul_us(count, d_model, d_ff)
            act = elementwise_time_us(count * d_ff, self.dtype, self.spec)
            down = self._matmul_us(count, d_ff, d_model)
            scatter = elementwise_time_us(count * d_model, self.dtype, self.spec)
            total += gather + up + act + down + scatter + self.MOE_EXPERT_SYNC_US
        self._alloc(mem, num_tokens * d_ff, "moe.hidden")
        self._alloc(mem, num_tokens * d_model, "moe.out")
        return [ExecReport(op="moe.sequential", latency_us=total)]


#: PyTorch semantics == the dense base backend.
PyTorchBackend = ModelBackend


class TVMBackend(ModelBackend):
    """TVM + Ansor: an AOT-tuned dense compiler (Figure 19's extra baseline).

    After 2000 trials per task it emits slightly better-fused dense kernels
    than the framework (modest matmul gain, fewer launches), but it is still
    *dense*: it pads exactly like PyTorch, and re-tuning per dynamic shape at
    runtime is infeasible (its tuning time is hours, charged offline).
    """

    name = "TVM"
    #: Ansor-tuned kernels beat the vendor library by a few percent.
    MATMUL_GAIN = 0.94

    def _matmul_us(self, m: int, k: int, n: int, *, batch: int = 1) -> float:
        return super()._matmul_us(m, k, n, batch=batch) * self.MATMUL_GAIN
