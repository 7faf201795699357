"""Activation sparsity generators (ReLU FFN sparsity, Figure 2d / OPT eval).

Section 5.1: the activation outputs of OPT / Switch Transformer / T5 have a
sparsity ratio of 95-99.9% — after ReLU, almost every element of the FFN's
intermediate activation is exactly zero, and the second FFN matmul can skip
the zero columns.

The generators here produce masks with the *structure* such activations have:
per-row (token) sparsity levels drawn around a target ratio, with a set of
"hot" neurons that fire across many tokens (the head of the empirical neuron
firing distribution) and a long random tail.
"""

from __future__ import annotations

import numpy as np

#: Fraction of neurons that fire with high probability for every token.
_HOT_FRACTION = 0.02

#: Rows per block of the uniform draw into one reused buffer.  PCG64's
#: ``random()`` takes one 64-bit output per element: the same stream.
_DRAW_ROWS = 32


def relu_activation_mask(
    num_tokens: int,
    hidden: int,
    sparsity: float,
    *,
    seed: int = 0,
) -> np.ndarray:
    """A [num_tokens, hidden] boolean mask of non-zero post-ReLU activations.

    ``sparsity`` is the target zero fraction (e.g. 0.99 for OPT).  2% of
    neurons fire with high probability for every token (shared features),
    the rest fire independently so that each token's non-zero set differs —
    which is what makes the pattern *dynamic*.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError("sparsity must be in [0, 1)")
    rng = np.random.default_rng(seed)
    density = 1.0 - sparsity
    num_hot = int(hidden * _HOT_FRACTION)
    # Hot neurons fire for most tokens but must not exceed the density
    # budget; they take at most half of it.
    hot_budget = min(0.9, (density * hidden) / (2 * max(1, num_hot)))
    mask = np.zeros((num_tokens, hidden), dtype=bool)
    used = 0.0
    if num_hot:
        hot_ids = rng.choice(hidden, size=num_hot, replace=False)
        hot = rng.random((num_tokens, num_hot)) < hot_budget
        mask[:, hot_ids] = hot
        used = np.count_nonzero(hot) / max(1, mask.size)
    # Remaining budget spread uniformly over all neurons.
    remaining = max(0.0, density - used)
    draw = np.empty((min(num_tokens, _DRAW_ROWS), hidden))
    fired = np.empty(draw.shape, dtype=bool)
    for lo in range(0, num_tokens, _DRAW_ROWS):
        rows = slice(0, min(_DRAW_ROWS, num_tokens - lo))
        np.less(rng.random(out=draw[rows]), remaining, out=fired[rows])
        mask[lo:lo + _DRAW_ROWS] |= fired[rows]
    return mask
