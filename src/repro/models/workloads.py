"""Inference/training workloads: one per evaluated model (Table 2).

A :class:`Workload` couples a model architecture with the dynamic-sparsity
structure of one batch: sequence lengths, activation sparsity, attention
mask statistics, and MoE routing.  The runtime engine walks the architecture
and prices every op against a backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..sparsity.attention import MaskStats, longformer_mask_stats, museformer_mask_stats
from ..sparsity.moe import Router, RoutingTable
from ..sparsity.seqlen import get_dataset
from .config import (
    ModelConfig,
    bert_base,
    longformer,
    museformer,
    opt,
    swin_moe,
    switch_transformer,
)


@dataclass
class Workload:
    """One batch's worth of dynamic sparsity for one model."""

    config: ModelConfig
    #: Per-sequence token counts.
    lengths: np.ndarray
    #: Post-ReLU FFN activation sparsity ratio (None = not exploited).
    act_sparsity: Optional[float] = None
    #: Attention mask statistics shared across layers (None = dense).
    attn_stats: Optional[MaskStats] = None
    #: The MoE layers' routing, one row per MoE layer (None = no MoE).
    routing: Optional[RoutingTable] = None
    seed: int = 0

    @property
    def batch_size(self) -> int:
        return int(self.lengths.size)

    # Python ints: a batch holds at most a few hundred sequences, and the
    # builtins reduce them without numpy's per-call overhead.
    @property
    def total_tokens(self) -> int:
        return int(sum(self.lengths.tolist()))

    @property
    def max_len(self) -> int:
        return int(max(self.lengths.tolist(), default=0))

def _route_moe_layers(
    config: ModelConfig, padded_tokens: int, seed: int
) -> Optional[RoutingTable]:
    """The routing table of every MoE layer of the stack (None if it has
    none).

    Routing is sampled over the *padded* token count (the canonical view a
    padding system sees); the engine rescales the table to each backend's
    effective token count via :meth:`RoutingTable.scaled`.
    """
    if config.moe is None:
        return None
    total_layers = config.n_layers + config.decoder_layers
    layers = tuple(
        layer for layer in range(total_layers)
        if (layer + 1) % config.moe.every == 0
    )
    if not layers:
        return None
    router = Router(
        config.moe.num_experts,
        concentration=config.moe.concentration,
        seed=seed,
    )
    return router.route(padded_tokens, layers, seed=seed)


def bert_workload(
    dataset: str = "mnli", batch_size: int = 32, *, seed: int = 0
) -> Workload:
    """Figure 11: BERT-base, varying sequence lengths per dataset."""
    config = bert_base()
    lengths = get_dataset(dataset).sample(batch_size, seed=seed)
    lengths = np.minimum(lengths, config.max_seq)
    return Workload(config=config, lengths=lengths, seed=seed)


def opt_inference_workload(
    size: str = "13b", batch_size: int = 32, *, act_sparsity: float = 0.99,
    seed: int = 0,
) -> Workload:
    """Figure 10: OPT on Alpaca with ReLU activation sparsity."""
    config = opt(size)
    lengths = get_dataset("alpaca").sample(batch_size, seed=seed)
    lengths = np.minimum(lengths, config.max_seq)
    return Workload(
        config=config, lengths=lengths, act_sparsity=act_sparsity, seed=seed
    )


def opt_training_workload(
    size: str = "125m", batch_size: int = 8, *, seed: int = 0
) -> Workload:
    """Figure 14: OPT fine-tuning on Alpaca (padding waste only; the paper's
    training runs do not exploit activation sparsity)."""
    config = opt(size)
    lengths = get_dataset("alpaca").sample(batch_size, seed=seed)
    lengths = np.minimum(lengths, config.max_seq)
    return Workload(config=config, lengths=lengths, seed=seed)


def switch_workload(
    num_experts: int = 64, batch_size: int = 32, *, seed: int = 0
) -> Workload:
    """Figure 8: Switch Transformer on MNLI with top-1 routing."""
    config = switch_transformer(num_experts)
    lengths = get_dataset("mnli").sample(batch_size, seed=seed)
    lengths = np.minimum(lengths, config.max_seq)
    padded = int(lengths.max()) * int(lengths.size)
    routing = _route_moe_layers(config, padded, seed)
    return Workload(
        config=config, lengths=lengths, routing=routing, seed=seed
    )


def swin_moe_workload(
    num_experts: int = 8, batch_size: int = 32, *, seed: int = 0
) -> Workload:
    """Figure 9: Swin-MoE; fixed-resolution images -> constant 196 tokens."""
    config = swin_moe(num_experts)
    lengths = np.full(batch_size, config.max_seq, dtype=int)
    routing = _route_moe_layers(config, int(lengths.sum()), seed)  # no padding: fixed lengths
    return Workload(
        config=config, lengths=lengths, routing=routing, seed=seed
    )


def longformer_workload(
    size: str = "base", seq_len: int = 2048, batch_size: int = 1, *, seed: int = 0
) -> Workload:
    """Figure 12: Longformer with window + dynamic global attention."""
    config = longformer(size)
    spec = config.attention
    stats = longformer_mask_stats(
        seq_len, spec.window, num_global=spec.num_global, seed=seed
    )
    lengths = np.full(batch_size, seq_len, dtype=int)
    return Workload(config=config, lengths=lengths, attn_stats=stats, seed=seed)


def museformer_workload(
    seq_len: int = 4096, batch_size: int = 1, *, seed: int = 0
) -> Workload:
    """Figure 13: Museformer's fine/coarse dynamic attention."""
    config = museformer()
    spec = config.attention
    stats = museformer_mask_stats(
        seq_len,
        bar_len=spec.bar_len,
        fine_bars=spec.fine_bars,
        summary_stride=spec.summary_stride,
        seed=seed,
    )
    lengths = np.full(batch_size, seq_len, dtype=int)
    return Workload(config=config, lengths=lengths, attn_stats=stats, seed=seed)
