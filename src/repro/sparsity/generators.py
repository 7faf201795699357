"""Sparsity-pattern streams and the repetition (hit-ratio) study of Figure 20.

Section 5.6 invalidates the "memoize compiled kernels per sparsity pattern"
alternative by measuring how often a batch's sparsity pattern has been seen
before: ~0.4% for sequence-length patterns and ~0.1% for ReLU patterns.
:class:`PatternHitCounter` reproduces that measurement over the workload
streams defined in this package.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .activation import relu_activation_mask
from .seqlen import LengthDistribution, get_dataset

#: Mask columns a ReLU pattern keeps for its fingerprint (memory economy).
_FINGERPRINT_COLS = 512


def pattern_fingerprint(pattern: np.ndarray) -> str:
    """A stable content hash identifying one sparsity pattern exactly."""
    arr = np.ascontiguousarray(np.asarray(pattern))
    digest = hashlib.sha256()
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()


@dataclass
class PatternHitCounter:
    """Counts how often a pattern recurs across a stream (Figure 20)."""

    seen: set = field(default_factory=set)
    hits: int = 0
    total: int = 0

    def observe(self, pattern: np.ndarray) -> bool:
        """Record a pattern; returns True when it was seen before."""
        fp = pattern_fingerprint(pattern)
        self.total += 1
        if fp in self.seen:
            self.hits += 1
            return True
        self.seen.add(fp)
        return False

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.total if self.total else 0.0


def seqlen_pattern_stream(
    dataset: str,
    batch_size: int,
    num_batches: int,
    *,
    seed: int = 0,
):
    """Yield the batch sequence-length tuples (sorted) — the pattern a
    length-specialized kernel would be compiled for.

    Sorting models the most generous memoization: two batches with the same
    multiset of lengths count as the same pattern.
    """
    dist: LengthDistribution = get_dataset(dataset)
    for i in range(num_batches):
        lengths = dist.sample(batch_size, seed=seed * 7919 + i)
        yield np.sort(lengths)


def relu_pattern_stream(
    batch_tokens: int,
    hidden: int,
    sparsity: float,
    num_batches: int,
    *,
    seed: int = 0,
):
    """Yield ReLU activation patterns batch by batch.

    Masks keep at most 512 columns for memory economy; the truncation only
    *raises* the measured hit ratio, so the Figure 20 conclusion (ratios
    near zero) is conservative.
    """
    for i in range(num_batches):
        mask = relu_activation_mask(
            batch_tokens, min(hidden, _FINGERPRINT_COLS), sparsity,
            seed=seed * 104729 + i,
        )
        yield mask
