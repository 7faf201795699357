"""Transformation policies: how a model maps its dynamic sparsity onto PIT.

A *policy* decides, per operator in a model, which tensors are sparse, what
granularity their sparsity has, and which PIT rule family applies.  The
model backends apply the evaluation's sequence-length, MoE, activation and
attention policies inline; the one kept as a class is the Section 6
observation that vLLM's Paged Attention is a special case of PIT:

* :class:`PagedAttentionPolicy` — KV-cache pages are micro-tiles gathered
  along the sequence axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PolicyDecision:
    """What a policy tells the engine about one operator invocation."""

    #: Which operand carries dynamic sparsity ("A", "B" or None for dense).
    sparse_operand: str
    #: The PIT-axis family to use.
    pit_axis: str
    #: Granularity of the sparsity as (rows, cols) of the natural unit
    #: (e.g. one token row).
    granularity: tuple
    #: Short label used in reports.
    label: str


class PagedAttentionPolicy:
    """vLLM's Paged Attention expressed as a PIT policy (Section 6).

    KV-cache *pages* (fixed-size token blocks at arbitrary physical
    addresses) are exactly micro-tiles of shape (page_size, head_dim); the
    per-request page table is the sparse index; attention gathers pages with
    SRead along the sequence axis — a PIT-axis of BatchMatMul.
    """

    label = "paged-attention"

    def __init__(self, page_size: int = 16):
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self.page_size = page_size

    def decision(self) -> PolicyDecision:
        return PolicyDecision(
            sparse_operand="B",
            pit_axis="k",
            granularity=(self.page_size, -1),
            label=self.label,
        )

    def gather_pages(self, kv_pool: np.ndarray, page_table) -> np.ndarray:
        """Materialize one request's K (or V) from the shared page pool.

        ``kv_pool``: [num_pages, page_size, head_dim]; ``page_table``: page
        ids in sequence order.  This *is* SRead at page granularity.
        """
        table = np.asarray(page_table, dtype=np.int64)
        if table.size and (table.min() < 0 or table.max() >= kv_pool.shape[0]):
            raise ValueError("page table references pages outside the pool")
        gathered = kv_pool[table]
        return gathered.reshape(-1, kv_pool.shape[2])
