"""Functional (numpy) transformer blocks — the numerical reference models.

These compute real values at small scale so the examples can check PIT's
model-level claims numerically:

* an MoE layer computed with the grouped PIT kernel equals the per-token
  expert loop;
* an encoder layer over a shuffled token order equals the in-order layer
  once un-shuffled (permutation invariance under a sparse attention mask).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tensor.ops import gelu, layernorm, masked_softmax, relu


@dataclass
class LayerWeights:
    """Weights of one pre-LN transformer encoder/decoder layer."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray

    @classmethod
    def random(cls, d_model: int, d_ff: int, *, seed: int = 0) -> "LayerWeights":
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(d_model)

        def w(shape):
            return rng.standard_normal(shape) * scale

        return cls(
            wq=w((d_model, d_model)), wk=w((d_model, d_model)),
            wv=w((d_model, d_model)), wo=w((d_model, d_model)),
            w1=w((d_model, d_ff)), w2=w((d_ff, d_model)),
            ln1_g=np.ones(d_model), ln1_b=np.zeros(d_model),
            ln2_g=np.ones(d_model), ln2_b=np.zeros(d_model),
        )


def attention_block(
    x: np.ndarray,
    w: LayerWeights,
    heads: int,
    *,
    attn_mask: np.ndarray = None,
) -> np.ndarray:
    """Multi-head self-attention over one sequence [s, d_model]."""
    s, d_model = x.shape
    head_dim = d_model // heads
    q = (x @ w.wq).reshape(s, heads, head_dim).transpose(1, 0, 2)
    k = (x @ w.wk).reshape(s, heads, head_dim).transpose(1, 0, 2)
    v = (x @ w.wv).reshape(s, heads, head_dim).transpose(1, 0, 2)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(head_dim)
    mask = np.ones((s, s), dtype=bool)
    if attn_mask is not None:
        mask &= attn_mask
    probs = masked_softmax(scores, np.broadcast_to(mask, scores.shape))
    out = (probs @ v).transpose(1, 0, 2).reshape(s, d_model)
    return out @ w.wo


def ffn_block(x: np.ndarray, w: LayerWeights) -> np.ndarray:
    return gelu(x @ w.w1) @ w.w2


def encoder_layer(
    x: np.ndarray,
    w: LayerWeights,
    heads: int,
    *,
    attn_mask: np.ndarray = None,
) -> np.ndarray:
    """One pre-LN transformer layer (GELU FFN) over a single sequence
    [s, d_model]."""
    h = x + attention_block(
        layernorm(x, w.ln1_g, w.ln1_b), w, heads, attn_mask=attn_mask
    )
    return h + ffn_block(layernorm(h, w.ln2_g, w.ln2_b), w)


def moe_layer_reference(
    tokens: np.ndarray,
    expert_w1: np.ndarray,
    expert_w2: np.ndarray,
    assignment: np.ndarray,
) -> np.ndarray:
    """Per-token ReLU expert FFN (the semantic ground truth of MoE
    dispatch)."""
    out = np.zeros((tokens.shape[0], expert_w2.shape[2]))
    for t in range(tokens.shape[0]):
        e = assignment[t]
        out[t] = relu(tokens[t] @ expert_w1[e]) @ expert_w2[e]
    return out


def moe_layer_grouped(
    tokens: np.ndarray,
    expert_w1: np.ndarray,
    expert_w2: np.ndarray,
    assignment: np.ndarray,
    *,
    seed: int = 0,
) -> np.ndarray:
    """PIT-style grouped execution: gather each expert's tokens (unordered),
    run the ReLU expert FFN per expert, scatter back."""
    rng = np.random.default_rng(seed)
    out = np.zeros((tokens.shape[0], expert_w2.shape[2]))
    for e in range(expert_w1.shape[0]):
        idx = np.flatnonzero(assignment == e)
        if idx.size == 0:
            continue
        idx = idx[rng.permutation(idx.size)]
        out[idx] = relu(tokens[idx] @ expert_w1[e]) @ expert_w2[e]
    return out
