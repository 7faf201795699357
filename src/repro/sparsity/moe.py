"""Mixture-of-Experts routing (Figure 2b).

A gating function assigns each token to expert(s); each expert computes only
its routed tokens, so every expert's matmul is dynamically sparse.  The key
workload property the Switch Transformer figures depend on is the *imbalance*
of the token distribution: padding-based systems (Tutel, DeepSpeed) must pad
every expert to the max (or a fixed capacity), so their cost follows the
busiest expert while PIT's follows the total token count.
"""

from __future__ import annotations

import functools

import numpy as np

from ..tensor.ops import softmax
from .attention import SIGNATURE_QUANTUM


class RoutingTable:
    """One MoE request's top-1 routing: the per-expert token loads of every
    MoE layer, one row per layer.

    Every MoE pricing path reads only these statistics; the numeric path
    draws per-token expert ids from :meth:`Router.assign` instead.  A table
    is the unit every stage works on: a backend prices all of its rows in
    one :meth:`~repro.baselines.backends.ModelBackend.moe_ffn` call, co-
    batched requests add their tables (:meth:`merged`), and the quantized
    :attr:`signature` is computed once per table.
    """

    def __init__(self, layers: tuple, counts: np.ndarray, num_tokens: int):
        #: The MoE layer indices, ascending: row ``i`` is layer ``layers[i]``.
        self.layers = layers
        #: ``[layers, experts]`` token count per MoE layer and expert.
        self.counts = counts
        #: Tokens routed at each layer, including any a capacity cap dropped
        #: (then ``num_tokens`` exceeds that row's sum).
        self.num_tokens = num_tokens

    @property
    def num_experts(self) -> int:
        return self.counts.shape[1]

    def scaled(self, num_tokens: int) -> "RoutingTable":
        """The same routing over ``num_tokens`` tokens, every row in one
        apportioning pass.

        Systems disagree on how many tokens reach the MoE layers: padding
        systems route every padded position, PIT routes only real tokens.
        Each row's counts are rescaled proportionally (largest experts
        absorb rounding) so all backends see the same load *shape*.  A
        capped row (one that dropped tokens) keeps dropping the same share:
        only its scaled *routed* total is apportioned.  A table of no tokens
        has no shape to keep: expert 0 takes them all.  A table that already
        has ``num_tokens`` tokens is returned as is.
        """
        if num_tokens < 0:
            raise ValueError("num_tokens must be non-negative")
        old = self.num_tokens
        if old == num_tokens:
            return self
        if old == 0:
            counts = np.zeros(self.counts.shape, dtype=int)
            counts[:, 0] = num_tokens
        else:
            counts = _apportion(
                self.counts, num_tokens / old,
                self.counts.sum(axis=1) * num_tokens // old,
            )
        return RoutingTable(self.layers, counts, num_tokens)

    @classmethod
    def merged(cls, tables) -> "RoutingTable":
        """Several requests' tables as one grouped dispatch.

        Tables drawn for separate batches combine meaningfully at the
        *grouped-kernel* level: per layer and expert the counts add, and so
        do the token counts, and the grouped FFN's cost still follows the
        total token count (the property padding systems lack).  This is
        what lets a serving engine co-batch MoE requests instead of refusing
        them.

        Raises ``ValueError`` on zero tables, or on tables over different
        MoE layers or expert counts: those describe different models and
        must never be silently combined.
        """
        tables = list(tables)
        if not tables:
            raise ValueError("cannot merge zero routing tables")
        base = tables[0]
        if len(tables) == 1:
            return base
        for table in tables[1:]:
            if table.layers != base.layers:
                raise ValueError(
                    "cannot merge MoE workloads routing different layer sets"
                )
            if table.num_experts != base.num_experts:
                raise ValueError(
                    f"cannot merge routing tables over {base.num_experts} "
                    f"and {table.num_experts} experts"
                )
        return cls(
            base.layers,
            np.add.reduce([table.counts for table in tables]),
            sum(table.num_tokens for table in tables),
        )

    @functools.cached_property
    def signature(self) -> tuple:
        """Quantized signature of the table (hashable), computed once.

        Captures the statistics a grouped-dispatch plan depends on, over the
        loads summed across layers: expert count, quantized load imbalance
        (max/mean) and quantized live-expert fraction.  Per-batch
        assignments vary draw to draw, but a trained router's load *shape*
        is stable — the same property the plan cache exploits for attention
        masks.
        """
        # The statistics of at most a few hundred experts, in Python ints:
        # the same quotients numpy's reductions give, without their
        # per-call cost.
        values = self.counts.sum(axis=0).tolist()
        total, experts = sum(values), len(values)
        mean = total / experts if experts else 0.0
        imbalance = max(values) / mean if mean > 0 else 0.0
        live = (len([v for v in values if v > 0]) / experts
                if total > 0 else 0.0)
        q = 1.0 / SIGNATURE_QUANTUM
        return (experts, int(round(imbalance * q)), int(round(live * q)))


def _apportion(counts: np.ndarray, scale: float, total) -> np.ndarray:
    """``floor(counts * scale)``, topped up to ``total`` along the last
    axis, one row per ``total``: every expert gets ``deficit // n`` more and
    the first ``deficit % n`` of its row's largest-first order one more (the
    largest experts absorb rounding)."""
    share = np.floor(counts * scale).astype(int)
    deficit = np.maximum(total - share.sum(axis=-1), 0)[..., None]
    n = counts.shape[-1]
    # Each expert's place in its row's largest-first order.
    rank = (-counts).argsort(axis=-1).argsort(axis=-1)
    return share + deficit // n + (rank < deficit % n)


def routing_sample_mask(counts, rows: int) -> np.ndarray:
    """Representative ``[rows, num_experts]`` assignment mask of a routing.

    Row ``i`` marks the expert it would dispatch to, with rows allocated to
    experts in proportion to the observed per-expert loads (largest experts
    absorb rounding) — the sparse-operand sample Algorithm 1 searches over
    for a ``moe-grouped`` plan.  Deterministic given the counts.
    """
    counts = np.asarray(counts)
    if rows < 1:
        raise ValueError("rows must be >= 1")
    total = int(counts.sum())
    if total == 0:
        share = np.zeros(counts.size, dtype=int)
        share[0] = rows
    else:
        share = _apportion(counts, rows / total, rows)
    mask = np.zeros((rows, counts.size), dtype=bool)
    row_expert = np.repeat(np.arange(counts.size), share)
    mask[np.arange(rows), row_expert] = True
    return mask


class Router:
    """A Switch-style top-1 router with controllable imbalance.

    ``concentration`` shapes the expert popularity distribution: 1.0 gives a
    uniform Dirichlet (mild natural imbalance); smaller values give the
    heavily skewed loads real routers exhibit before load-balancing losses
    kick in.
    """

    def __init__(self, num_experts: int, *, concentration: float = 0.5, seed: int = 0):
        if num_experts < 1:
            raise ValueError("num_experts must be >= 1")
        if concentration <= 0:
            raise ValueError("concentration must be positive")
        self.num_experts = num_experts
        self.concentration = concentration
        self._rng = np.random.default_rng(seed)
        #: Expert popularity prior (fixed per router instance; the paper's
        #: routers are trained, so popularity is stable across batches while
        #: individual token assignments vary).
        self.popularity = self._rng.dirichlet(
            np.full(num_experts, concentration)
        )

    def assign(self, num_tokens: int, *, seed: int = 0) -> np.ndarray:
        """The ``[num_tokens]`` expert id of each token (top-1)."""
        rng = np.random.default_rng(seed ^ 0x5EED)
        logits = rng.standard_normal((num_tokens, self.num_experts))
        logits += np.log(self.popularity + 1e-12)  # popularity bias
        return softmax(logits, axis=-1).argmax(axis=-1)

    def route(self, num_tokens: int, layers: tuple, *,
              seed: int = 0) -> RoutingTable:
        """Route ``num_tokens`` tokens (top-1) at each MoE layer of
        ``layers`` and keep their per-expert loads: layer ``l``'s row counts
        the :meth:`assign` draw seeded ``seed * 131 + l``."""
        counts = np.array([
            np.bincount(self.assign(num_tokens, seed=seed * 131 + layer),
                        minlength=self.num_experts)
            for layer in layers
        ])
        return RoutingTable(layers, counts, int(num_tokens))


def capacity_tokens(num_tokens: int, num_experts: int, capacity_factor: float) -> int:
    """Tutel/DeepSpeed-style expert capacity: every expert's buffer is padded
    to ``capacity_factor * num_tokens / num_experts`` tokens."""
    if capacity_factor <= 0:
        raise ValueError("capacity_factor must be positive")
    import math

    return max(1, math.ceil(capacity_factor * num_tokens / num_experts))
