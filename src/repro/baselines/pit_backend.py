"""PIT as a model-level backend.

Applies PIT's transformation to every transformer primitive, each with the
rule the evaluation uses for its dynamic sparsity:

* **projections/FFN** gather exactly the real tokens (m-axis rule) — no
  padding rows, plus a one-pass detector charge per fresh mask;
* **FFN second matmul** additionally covers the post-ReLU activation with
  (1, 32) micro-tiles and skips zero coverage (k-axis rule, the OPT
  optimization);
* **attention** covers the dynamic attention mask with row micro-tiles and
  computes only covered score tiles;
* **MoE** uses the grouped kernel: per-expert tile counts with no padding
  and no reorganization pass.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core.cover import SampleStack
from ..core.detector import index_construction_time_us
from ..core.kernels import kernel_from_choice
from ..core.plan import Planner, PlanSpec, ResolvedPlan
from ..core.selection import PermutedChoice
from ..hw.costmodel import elementwise_time_us, layernorm_time_us
from ..hw.memory import stream_time_us
from ..hw.memtracker import MemoryTracker
from ..hw.timeline import ExecReport
from ..sparsity.activation import relu_activation_mask
from ..sparsity.attention import as_mask_stats
from .backends import AllocLog, ModelBackend


class PITBackend(ModelBackend):
    """PIT end-to-end backend (the paper's system)."""

    name = "PIT"

    #: Micro-tile width used for activation/attention covers (one 32B-plus
    #: transaction of fp32).
    MICRO_W = 32

    #: Like DeepSpeed's fused layers, PIT's generated kernels piggyback
    #: elementwise epilogues (bias, residual, norm) on SWrite's data
    #: movement, saving most of the separate-launch overheads.
    FUSION_LAUNCH_SAVING = 0.6

    def __init__(self, spec, dtype: str = "float32", *, plan_cache=None):
        super().__init__(spec, dtype)
        #: Resolves the training path's weight-sparse plans and memoizes the
        #: activation-cover workloads (``ffn-act`` :class:`PlanSpec`\\ s).
        #: Over a shared :class:`~repro.core.selection.PlanCache` (the
        #: serving engine constructs one backend per batch) both survive
        #: across backend instances *and* process restarts via
        #: ``PlanCache.save``/``load``; without one, the planner owns a
        #: private cache that memoizes within this backend's lifetime.
        self.planner = Planner(self.tiledb, plan_cache)
        self.plan_cache = self.planner.cache
        #: Sparse-structure kinds already detected this run: the token mask
        #: and the attention mask are each detected *once per batch* and the
        #: index is shared by every layer (the structures do not change
        #: within a forward pass).
        self._detected: set = set()
        self._run_facts = None
        #: Op constants of the current run (variable-length attention
        #: terms): later calls in the run look them up.
        self._run_consts: dict = {}

    def set_fusion(self, active: bool, lengths=None) -> None:
        super().set_fusion(active, lengths)
        self._detected.clear()  # engine calls this at run start/end
        self._run_consts.clear()
        # The run's token facts, read only for its own ``lengths`` object.
        self._run_facts = None
        if lengths is not None:
            self._run_facts = (lengths, self._token_facts(lengths))

    def _token_facts(self, lengths) -> tuple:
        """(real tokens, batch size, max length) of ``lengths``."""
        if self._run_facts is not None and self._run_facts[0] is lengths:
            return self._run_facts[1]
        # Python ints: a batch holds at most a few hundred sequences, and
        # the builtins reduce them without numpy's per-call overhead.
        values = np.asarray(lengths).tolist()
        if not values:
            return 0, 0, 0
        return int(sum(values)), len(values), int(max(values))

    # ------------------------------------------------------------------
    def padded_tokens(self, lengths) -> int:
        """PIT computes on exactly the real tokens."""
        return self._token_facts(lengths)[0]

    def _detector_us(self, rows: int, cols: int, num_microtiles: int) -> float:
        return index_construction_time_us(
            (rows, cols), self.dtype, self.spec, num_microtiles
        )

    def _detector_once_us(self, kind: str, rows: int, cols: int,
                          num_microtiles: int) -> float:
        """Charge a detector pass only on the first use of a structure."""
        if kind in self._detected:
            return 0.0
        self._detected.add(kind)
        return self._detector_us(rows, cols, num_microtiles)

    def layernorm(self, lengths, d_model: int) -> list:
        latency = layernorm_time_us(
            self._token_facts(lengths)[0], d_model, self.dtype, self.spec
        )
        return [ExecReport(
            op="layernorm", latency_us=latency * self.FUSION_LAUNCH_SAVING
        )]

    def pointwise(self, lengths, d_model: int, *, label: str = "residual") -> list:
        latency = elementwise_time_us(
            self._token_facts(lengths)[0] * d_model, self.dtype, self.spec,
            num_inputs=2,
        )
        return [ExecReport(
            op=label, latency_us=latency * self.FUSION_LAUNCH_SAVING
        )]

    # ------------------------------------------------------------------
    def linear(
        self, lengths, in_f: int, out_f: int,
        *, label: str = "linear", mem: Optional[MemoryTracker] = None,
    ) -> list:
        tokens, batch, max_len = self._token_facts(lengths)
        latency = self._matmul_us(tokens, in_f, out_f)
        # Detect real-token rows once per *batch*: one pass over the
        # token->row map (int32 per padded row).  The token structure does
        # not change across layers, so every subsequent op reuses the index
        # — the reason PIT Convert is 0.7-1.1% end to end (Figure 19).
        detector = (
            self._detector_once_us("tokens", batch * max_len, 1, tokens)
            if tokens
            else 0.0
        )
        self._alloc(mem, tokens * out_f, label)
        return [
            ExecReport(op=label, latency_us=latency + detector, convert_us=detector)
        ]

    # ------------------------------------------------------------------
    # Training path: weight-sparse / nm-sparse plans through the Planner
    # ------------------------------------------------------------------
    def weight_sparse_plan(
        self,
        mask_samples,
        m: int,
        k: int,
        n: int,
        *,
        pattern: tuple = (),
    ) -> ResolvedPlan:
        """Resolve the plan for a weight-masked matmul ``X[m,k] @ W[k,n]``.

        ``mask_samples`` are boolean ``[k, n]`` masks of W.  An empty
        ``pattern`` names the unstructured ``weight-sparse`` kind (iterative
        magnitude pruning); a ``(n, m)`` pattern names ``nm-sparse``, whose
        search composes channel permutations with the structured projection.
        The full Algorithm 1 search runs only on a miss — drifting masks
        with the same quantized signature replay the cached plan.
        """
        kind = "nm-sparse" if pattern else "weight-sparse"
        spec = self.planner.make_spec(
            kind, mask_samples, m, k, n,
            sparse_operand="B", pattern=pattern,
        )
        return self.planner.resolve(
            spec, lambda: [np.asarray(s, dtype=bool) for s in mask_samples]
        )

    def weight_sparse_matmul_us(
        self, resolved: ResolvedPlan, mask, m: int, *, cover=None
    ) -> float:
        """Price one weight-masked matmul under an already-resolved plan.

        A cold plan's estimate *is* the price — Algorithm 1 just scored this
        very mask, so re-estimating would duplicate the cover pass.  So is
        a dense fallback's, warm or cold: its cost depends only on the
        spec's (m, k, n).  A warm sparse plan replays the cached kernel
        (and, for nm-sparse, the cached channel permutation + N:M
        projection) against the current mask; pass ``cover`` (a one-sample
        :class:`SampleStack` of ``mask``) to reuse an existing pyramid on
        that path.
        """
        choice = resolved.choice
        if resolved.cold or choice.is_dense_fallback:
            return choice.est_cost_us
        operand = cover if cover is not None else mask
        if isinstance(choice, PermutedChoice):
            from ..sparsity.masks import nm_prune_mask

            # The replayed channel order and N:M projection make a new
            # mask; the caller's cover is of the unprojected one.
            projected = np.asarray(mask, dtype=bool)
            if choice.permutation:
                projected = projected[np.asarray(choice.permutation), :]
            operand = nm_prune_mask(projected, *choice.pattern, axis=0)
            choice = choice.choice
        kern = kernel_from_choice(
            choice, self.spec, self.dtype,
            sparse_operand="B", tensor_core=self.tensor_core,
        )
        return kern.estimate_us(operand, m)

    # ------------------------------------------------------------------
    def _act_sparse_workload(
        self, tokens: int, d_ff: int, sparsity: float, seed: int
    ) -> tuple:
        """(covered_fraction, num_microtiles) of a (1, 32)-micro-tile cover
        over a ReLU activation mask.  Sampled once per configuration — the
        cover fraction concentrates tightly for i.i.d.-ish masks."""
        if not tokens:
            return 0.0, 0  # an empty activation covers nothing
        sample_rows = min(tokens, 2048)

        def compute():
            mask = relu_activation_mask(sample_rows, d_ff, sparsity, seed=seed)
            stack = SampleStack([mask])
            micro = float(stack.num_microtiles((1, self.MICRO_W))[0])
            covered = micro / max(1, stack.grid_cells((1, self.MICRO_W)))
            return (covered, micro / max(1, sample_rows))

        spec = PlanSpec(
            kind="ffn-act",
            m=sample_rows,
            k=d_ff,
            n=self.MICRO_W,
            signature=("cover", round(sparsity, 4)),
            tiledb_key=self.tiledb.cache_key,
        )
        covered, micro_per_row = self.planner.memo(spec, compute)
        return covered, int(micro_per_row * tokens)

    def ffn(
        self, lengths, d_model: int, d_ff: int,
        *, activation: str = "gelu", act_sparsity: Optional[float] = None,
        seed: int = 0, mem: Optional[MemoryTracker] = None,
    ) -> list:
        reports = self.linear(lengths, d_model, d_ff, label="ffn.in", mem=mem)
        tokens = self._token_facts(lengths)[0]
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

        # ReLU activation sparsity: the second matmul's A operand
        # [tokens, d_ff] is sparse at (1, 32) micro-tile granularity.
        covered, num_micro = self._act_sparse_workload(
            tokens, d_ff, act_sparsity, seed
        )
        dense_us = self._matmul_us(tokens, d_ff, d_model)
        detector = self._detector_us(tokens, d_ff, num_micro)
        latency = dense_us * max(covered, 1e-4) + detector
        self._alloc(mem, tokens * d_model, "ffn.out")
        reports.append(
            ExecReport(
                op="ffn.out[sparse-act]",
                latency_us=latency,
                convert_us=detector,
                wasted_fraction=0.0,
                detail={"covered_fraction": covered},
            )
        )
        return reports

    # ------------------------------------------------------------------
    def attention(
        self, lengths, heads: int, head_dim: int,
        *, attn_mask: Optional[np.ndarray] = None, causal: bool = False,
        mem: Optional[MemoryTracker] = None,
    ) -> list:
        lengths = np.asarray(lengths)
        if attn_mask is None:
            return self._attention_varlen(lengths, heads, head_dim, causal, mem)
        return self._attention_masked(
            lengths, heads, head_dim, attn_mask, mem
        )

    def _attention_varlen(self, lengths, heads, head_dim, causal, mem) -> list:
        """Per-sequence exact-length attention (no padding waste)."""
        key = ("varlen", heads, head_dim, causal)
        in_run = self._run_facts is not None and self._run_facts[0] is lengths
        terms = self._run_consts.get(key) if in_run else None
        if terms is None:
            factor = 0.5 if causal else 1.0
            score_elems = float((lengths.astype(float) ** 2).sum()) * factor
            terms = (
                score_elems,
                int(lengths.sum()),
                self._scores_matmul_us(score_elems * heads, head_dim),
                # Softmax streams exactly the computed scores (no padding).
                self._stream_scores_us(score_elems * heads, passes=3),
            )
            if in_run:
                self._run_consts[key] = terms
        score_elems, bh_tokens, qk, sm = terms
        pv = qk  # the same score-tile matmul shape as QK^T
        detector = self._detector_once_us("attn-varlen", bh_tokens, 1, bh_tokens)
        self._alloc(mem, int(score_elems * heads), "attn.scores")
        self._alloc(mem, bh_tokens * heads * head_dim, "attn.out")
        return [
            ExecReport(op="attn.qk", latency_us=qk + detector, convert_us=detector),
            ExecReport(op="attn.softmax", latency_us=sm),
            ExecReport(op="attn.pv", latency_us=pv),
        ]

    def _attention_masked(self, lengths, heads, head_dim, attn_mask, mem) -> list:
        """Dynamic sparse attention: cover the [s, s] mask with (1, 32)
        micro-tiles; compute QK^T/softmax/PV only on covered positions."""
        batch = int(np.asarray(lengths).size)
        stats = as_mask_stats(attn_mask, micro_w=self.MICRO_W)
        # Micro-tile selection: the finest transaction-sized micro-tile
        # (1, 8) wins when the mask has scattered single columns (global /
        # summary tokens); (1, 32) wins on wide bands.
        covered_elems = float(stats.best_micro_cover_elems())
        num_micro = max(stats.covered_micro, stats.covered_micro_fine)
        bh = batch * heads
        qk = self._scores_matmul_us(covered_elems * bh, head_dim)
        sm = self._stream_scores_us(covered_elems * bh, passes=3)
        pv = self._scores_matmul_us(covered_elems * bh, head_dim)
        detector = self._detector_once_us(
            "attn-mask", stats.seq, stats.seq, num_micro
        )
        self._alloc(mem, int(covered_elems * bh), "attn.scores")
        s = stats.seq
        self._alloc(mem, batch * s * heads * head_dim, "attn.out")
        return [
            ExecReport(op="attn.qk", latency_us=qk + detector, convert_us=detector),
            ExecReport(op="attn.softmax", latency_us=sm),
            ExecReport(op="attn.pv", latency_us=pv),
        ]

    def _scores_matmul_us(self, score_elems: float, head_dim: int) -> float:
        """Score-tile matmul: total output elements x head_dim reduction,
        executed as merged 32x32-output tiles."""
        tile = self.tiledb.best_dense_tile(
            32, head_dim, 32
        ).tile
        out_tiles = math.ceil(score_elems / (tile.tm * tile.tn))
        steps = out_tiles * math.ceil(head_dim / tile.tk)
        return self._tiled_matmul_us(steps, out_tiles, tile)

    def _stream_scores_us(self, score_elems: float, *, passes: int) -> float:
        nbytes = int(score_elems) * self._dsize
        return passes * stream_time_us(nbytes, self.spec) + self.spec.kernel_launch_us

    # ------------------------------------------------------------------
    def moe_ffn(self, routing, d_model: int, d_ff: int) -> list:
        """Grouped sparse expert FFN: SRead tokens per expert, dense tiles,
        SWrite back — cost follows total tokens, not the busiest expert.

        Every layer of the table runs the same tile over the same token
        count, so the tile, its column and k-step factors, the detector and
        the activation are derived once, and every layer's row tiles are
        summed in one array op (exact integers)."""
        tokens, experts = routing.num_tokens, routing.num_experts
        tile = self.tiledb.best_dense_tile(
            max(32, tokens // max(1, experts)), d_model, d_ff,
        ).tile
        cols_up = math.ceil(d_ff / tile.tn)
        cols_down = math.ceil(d_model / tile.tn)
        k_up, k_down = math.ceil(d_model / tile.tk), math.ceil(d_ff / tile.tk)
        detector = self._detector_us(tokens, 1, tokens)
        act = elementwise_time_us(tokens * d_ff, self.dtype, self.spec)
        name = tile.describe()
        allocs = AllocLog()
        self._alloc(allocs, tokens * d_ff, "moe.hidden")
        self._alloc(allocs, tokens * d_model, "moe.out")
        allocs = tuple(allocs)
        # Every expert's row tiles times the same column tiles and k-steps;
        # layers with the same row-tile count share one priced row.
        m_tiles = ((routing.counts + (tile.tm - 1)) // tile.tm).sum(axis=1)
        layers, rows = [], {}
        for m in m_tiles.tolist():
            row = rows.get(m)
            if row is None:
                tiles_up, tiles_down = m * cols_up, m * cols_down
                up = self._tiled_matmul_us(tiles_up * k_up, tiles_up, tile)
                down = self._tiled_matmul_us(
                    tiles_down * k_down, tiles_down, tile
                )
                row = rows[m] = ((ExecReport(
                    op="moe.pit_grouped",
                    latency_us=up + act + down + detector,
                    convert_us=detector,
                    detail={"tile": name},
                ),), allocs)
            layers.append(row)
        return layers
