"""Seeded input traces for the serving benchmark.

Every workload of the benchmark serves a list of
:class:`repro.models.Workload` objects, one per request, built here from
``--seed`` alone: the same seed gives the same trace, bit for bit.  The
program under test only ever receives the generated workloads.

Both traces mix the same four families — BERT with variable sequence
lengths, OPT with ReLU activation sparsity, Switch-MoE routing, and
Longformer/Museformer dynamic attention — in the same shares.

* ``steady`` draws every request from a small fixed set of
  signature-defining parameters, so after one warm-up pass every plan is
  cached and timed passes are pure lookup + pricing traffic.
* ``drift`` draws the sparsity statistics from continuous ranges
  (activation sparsity, sequence length, global-token count, expert count),
  so most batches need a fresh Algorithm 1 search.

Shares are exact counts shuffled by the seed, and drift parameters are
stratified over their ranges, not independent draws, so every seed serves
the same mix and both clocks stay comparable across seeds.
"""

from __future__ import annotations

import numpy as np

from repro.models import Workload, bert_workload, switch_workload
from repro.models.config import longformer
from repro.models.workloads import museformer_workload, opt_inference_workload
from repro.sparsity.attention import longformer_mask_stats

DEFAULT_REQUESTS = 200

#: (variant, share of requests).  Steady variants fix every parameter that
#: names a plan; sequence lengths, routing draws and global-token positions
#: still vary per request.
STEADY_VARIANTS = (
    (("bert", "mnli", 8), 0.20),
    (("bert", "qqp", 8), 0.20),
    (("opt", "125m", 0.90), 0.12),
    (("opt", "125m", 0.99), 0.10),
    (("opt", "350m", 0.95), 0.03),
    (("switch", 16), 0.10),
    (("switch", 64), 0.10),
    (("longformer", 1024, 16), 0.10),
    (("museformer", 1024), 0.05),
)

#: Drift variants name a family (and model size); their sparsity
#: statistics are drawn from the ranges below, stratified per variant.
DRIFT_VARIANTS = (
    (("bert",), 0.40),
    (("opt", "125m"), 0.22),
    (("opt", "350m"), 0.03),
    (("switch",), 0.20),
    (("longformer",), 0.10),
    (("museformer",), 0.05),
)
DRIFT_DATASETS = ("mnli", "mrpc", "cola", "rte", "qqp", "sst2", "qnli", "stsb")
DRIFT_BATCH = (4, 12)
DRIFT_ACT_SPARSITY = (0.80, 0.995)
DRIFT_EXPERTS = (8, 128)
DRIFT_LONGFORMER_SEQ = (960, 1152)
DRIFT_MUSEFORMER_SEQ = (512, 1536)
DRIFT_GLOBALS = (4, 64)


def _variant_order(variants, rng: np.random.Generator, n: int) -> list:
    counts = [int(round(share * n)) for _, share in variants]
    counts[0] += n - sum(counts)
    order = [
        variant for (variant, _), count in zip(variants, counts)
        for _ in range(count)
    ]
    return [order[i] for i in rng.permutation(n)]


def _stratified(rng: np.random.Generator, count: int, lo, hi) -> np.ndarray:
    """``count`` draws from ``[lo, hi)``, one per equal-width stratum, in
    random order: every seed covers the whole range evenly."""
    return lo + (hi - lo) * (rng.permutation(count) + rng.random(count)) / count


def _stratified_ints(rng: np.random.Generator, count: int, lo: int,
                     hi: int) -> list:
    """Stratified integers in ``[lo, hi]``."""
    return [int(v) for v in np.floor(_stratified(rng, count, lo, hi + 1))]


def _drift_draws(variant, count: int, rng: np.random.Generator) -> list:
    """``count`` request parameter tuples of a drift variant."""
    family = variant[0]
    if family == "bert":
        datasets = [
            DRIFT_DATASETS[i % len(DRIFT_DATASETS)]
            for i in rng.permutation(count)
        ]
        batches = _stratified_ints(rng, count, *DRIFT_BATCH)
        return [("bert", d, b) for d, b in zip(datasets, batches)]
    if family == "opt":
        return [
            ("opt", variant[1], float(sparsity))
            for sparsity in _stratified(rng, count, *DRIFT_ACT_SPARSITY)
        ]
    if family == "switch":
        return [
            ("switch", experts)
            for experts in _stratified_ints(rng, count, *DRIFT_EXPERTS)
        ]
    seq_bounds = (
        DRIFT_LONGFORMER_SEQ if family == "longformer" else DRIFT_MUSEFORMER_SEQ
    )
    seqs = [
        64 * steps
        for steps in _stratified_ints(
            rng, count, seq_bounds[0] // 64, seq_bounds[1] // 64
        )
    ]
    if family == "longformer":
        num_globals = _stratified_ints(rng, count, *DRIFT_GLOBALS)
        return [("longformer", q, g) for q, g in zip(seqs, num_globals)]
    return [("museformer", q) for q in seqs]


def _build(params, seed: int) -> Workload:
    """The workload of one request's parameter tuple."""
    family = params[0]
    if family == "bert":
        return bert_workload(params[1], params[2], seed=seed)
    if family == "opt":
        return opt_inference_workload(
            params[1], 2, act_sparsity=params[2], seed=seed
        )
    if family == "switch":
        return switch_workload(params[1], 2, seed=seed)
    if family == "longformer":
        return _longformer(params[1], params[2], seed)
    return museformer_workload(seq_len=params[1], seed=seed)


def _longformer(seq: int, num_global: int, seed: int) -> Workload:
    """Longformer-base with a chosen number of dynamic global tokens."""
    config = longformer("base")
    stats = longformer_mask_stats(
        seq, config.attention.window, num_global=num_global, seed=seed
    )
    return Workload(
        config=config,
        lengths=np.full(1, seq, dtype=int),
        attn_stats=stats,
        seed=seed,
    )


def make_trace(kind: str, seed: int, n: int = DEFAULT_REQUESTS) -> list:
    """The ``n``-request trace of ``kind`` (``steady`` | ``drift``)."""
    if kind not in ("steady", "drift"):
        raise ValueError(f"unknown trace kind {kind!r}")
    rng = np.random.default_rng([seed, 0 if kind == "steady" else 1])
    variants = STEADY_VARIANTS if kind == "steady" else DRIFT_VARIANTS
    order = _variant_order(variants, rng, n)
    seeds = rng.integers(0, 2**31 - 1, size=n)
    if kind == "steady":
        params = order
    else:
        draws = {
            variant: iter(_drift_draws(variant, order.count(variant), rng))
            for variant, _ in DRIFT_VARIANTS
        }
        params = [next(draws[variant]) for variant in order]
    return [_build(p, int(s)) for p, s in zip(params, seeds)]
