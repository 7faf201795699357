"""Mixture-of-Experts routing (Figure 2b).

A gating function assigns each token to expert(s); each expert computes only
its routed tokens, so every expert's matmul is dynamically sparse.  The key
workload property the Switch Transformer figures depend on is the *imbalance*
of the token distribution: padding-based systems (Tutel, DeepSpeed) must pad
every expert to the max (or a fixed capacity), so their cost follows the
busiest expert while PIT's follows the total token count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tensor.ops import softmax
from .attention import SIGNATURE_QUANTUM


@dataclass
class RoutingResult:
    """Per-expert token loads of one batch's top-1 routing.

    Every MoE pricing path reads only these statistics; the numeric path
    draws per-token expert ids from :meth:`Router.assign` instead.
    """

    #: [num_experts] token count per expert.
    counts: np.ndarray
    #: Tokens routed, including any a capacity cap dropped (then
    #: ``num_tokens`` exceeds ``counts.sum()``).
    num_tokens: int

    @property
    def num_experts(self) -> int:
        return int(self.counts.size)

    @property
    def max_tokens_per_expert(self) -> int:
        return int(self.counts.max()) if self.counts.size else 0

    def imbalance(self) -> float:
        """Max/mean token load — 1.0 is perfectly even."""
        mean = self.counts.mean() if self.counts.size else 0.0
        return float(self.counts.max() / mean) if mean > 0 else 0.0

    def scaled_to(self, num_tokens: int) -> "RoutingResult":
        """The same routing distribution over a different token count.

        Systems disagree on how many tokens reach the MoE layer: padding
        systems route every padded position, PIT routes only real tokens.
        This rescales the per-expert counts proportionally (largest experts
        absorb rounding) so all backends see the same load *shape*.  A
        capped routing (one that dropped tokens) keeps dropping the same
        share: only the scaled *routed* total is apportioned.
        """
        return scale_routings([self], num_tokens)[0]


def scale_routings(routings, num_tokens: int) -> list:
    """Every routing :meth:`~RoutingResult.scaled_to` ``num_tokens``, in one
    apportioning pass over the stacked ``[layers, experts]`` counts (one
    at a time when expert counts differ).  A routing that already has
    ``num_tokens`` tokens is returned as is."""
    if num_tokens < 0:
        raise ValueError("num_tokens must be non-negative")
    routings = list(routings)
    if len({r.counts.size for r in routings}) > 1:
        return [r.scaled_to(num_tokens) for r in routings]
    rows = [i for i, r in enumerate(routings) if r.num_tokens != num_tokens]
    if not rows:
        return routings
    counts = np.array([routings[i].counts for i in rows])
    old = np.array([routings[i].num_tokens for i in rows])
    empty = old == 0
    old[empty] = 1
    scaled = _apportion(
        counts, num_tokens / old, counts.sum(axis=1) * num_tokens // old
    )
    # A routing of no tokens has no shape to keep: expert 0 takes them all.
    scaled[empty] = 0
    scaled[empty, 0] = num_tokens
    for i, row in zip(rows, scaled):
        routings[i] = RoutingResult(counts=row, num_tokens=num_tokens)
    return routings


def _apportion(counts: np.ndarray, scale, total) -> np.ndarray:
    """``floor(counts * scale)``, topped up to ``total`` along the last
    axis, one row per ``scale`` and ``total``: every expert gets
    ``deficit // n`` more and the first ``deficit % n`` of its row's
    largest-first order one more (the largest experts absorb rounding)."""
    share = np.floor(counts * np.asarray(scale)[..., None]).astype(int)
    deficit = np.maximum(total - share.sum(axis=-1), 0)[..., None]
    n = counts.shape[-1]
    # Each expert's place in its row's largest-first order.
    rank = (-counts).argsort(axis=-1).argsort(axis=-1)
    return share + deficit // n + (rank < deficit % n)


def merge_routing(results) -> RoutingResult:
    """Merge several batches' routing tables into one grouped dispatch.

    Routing tables drawn for separate batches combine meaningfully at the
    *grouped-kernel* level: the per-expert counts and the token counts add,
    and the grouped FFN's cost still follows the total token count (the
    property padding systems lack).  This is what lets a serving engine
    co-batch MoE requests instead of refusing them.

    Raises ``ValueError`` on zero inputs or mismatched expert counts —
    tables over different expert populations describe different layers and
    must never be silently combined.
    """
    results = list(results)
    if not results:
        raise ValueError("cannot merge zero routing tables")
    base = results[0]
    if len(results) == 1:
        return base
    num_experts = base.num_experts
    for r in results[1:]:
        if r.num_experts != num_experts:
            raise ValueError(
                f"cannot merge routing tables over {num_experts} and "
                f"{r.num_experts} experts"
            )
    return RoutingResult(
        counts=np.sum([r.counts for r in results], axis=0),
        num_tokens=sum(r.num_tokens for r in results),
    )


def routing_signature(routings) -> tuple:
    """Quantized signature of one or more routing tables (hashable).

    Captures the statistics a grouped-dispatch plan depends on: expert
    count, quantized load imbalance (max/mean) and quantized live-expert
    fraction.  Per-batch assignments vary draw to draw, but a trained
    router's load *shape* is stable — the same property the plan cache
    exploits for attention masks.
    """
    routings = list(routings)
    if not routings:
        raise ValueError("routing signature needs at least one routing table")
    counts = np.add.reduce([np.asarray(r.counts) for r in routings])
    # The statistics of at most a few hundred experts, in Python ints: the
    # same quotients numpy's reductions give, without their per-call cost.
    values = counts.tolist()
    total, experts = sum(values), len(values)
    mean = total / experts if experts else 0.0
    imbalance = max(values) / mean if mean > 0 else 0.0
    live = len([v for v in values if v > 0]) / experts if total > 0 else 0.0
    q = 1.0 / SIGNATURE_QUANTUM
    return (experts, int(round(imbalance * q)), int(round(live * q)))


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

    def route(self, num_tokens: int, *, seed: int = 0) -> RoutingResult:
        """Route ``num_tokens`` tokens (top-1) and keep their per-expert
        loads — the same draw as :meth:`assign` with the same seed."""
        assignment = self.assign(num_tokens, seed=seed)
        return RoutingResult(
            counts=np.bincount(assignment, minlength=self.num_experts),
            num_tokens=int(num_tokens),
        )


def capacity_tokens(num_tokens: int, num_experts: int, capacity_factor: float) -> int:
    """Tutel/DeepSpeed-style expert capacity: every expert's buffer is padded
    to ``capacity_factor * num_tokens / num_experts`` tokens."""
    if capacity_factor <= 0:
        raise ValueError("capacity_factor must be positive")
    import math

    return max(1, math.ceil(capacity_factor * num_tokens / num_experts))
