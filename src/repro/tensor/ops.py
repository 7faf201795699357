"""Dense numpy operators.

They are the numerical engines of the model forward passes in
:mod:`repro.models`, whose dense results PIT's permuted execution must
equal.
"""

from __future__ import annotations

import numpy as np


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation, as in BERT/OPT)."""
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def masked_softmax(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis at positions where ``mask`` is True; 0
    elsewhere.

    Fully masked rows produce all-zero outputs (attention to nothing).
    """
    mask = np.asarray(mask, dtype=bool)
    row_has_any = mask.any(axis=-1, keepdims=True)
    raw_max = np.where(mask, x, -np.inf).max(axis=-1, keepdims=True)
    row_max = np.where(row_has_any, raw_max, 0.0)
    exp = np.where(mask, np.exp(np.where(mask, x, 0.0) - row_max), 0.0)
    denom = exp.sum(axis=-1, keepdims=True)
    return np.divide(exp, denom, out=np.zeros_like(exp), where=denom > 0)


#: Variance floor of :func:`layernorm`.
LAYERNORM_EPS = 1e-5


def layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Row-wise layer normalization over the last axis."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LAYERNORM_EPS) * gamma + beta
