"""Per-layer MoE pricing, the way every backend ran it before one
``moe_ffn`` call priced a whole routing table: the oracle for
``ModelBackend.moe_ffn`` and for the engine's per-layer reference loop.

``LayerRouting`` is the one-layer routing these bodies read: per-expert
counts and the routed token count.  ``scaled_to`` rescales one layer with
the token-at-a-time apportioning loop; ``moe_layer`` prices one layer
through the body of the backend's class, booking into ``mem``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.baselines import (
    DeepSpeedBackend,
    LongformerSBackend,
    MegaBlocksBackend,
    ModelBackend,
    PITBackend,
    PyTorchSBackend,
    TurboTransformerBackend,
    TutelBackend,
    UnsupportedModelError,
)
from repro.hw.costmodel import TileConfig, elementwise_time_us
from repro.hw.memory import stream_time_us
from repro.hw.spec import dtype_bytes
from repro.hw.timeline import ExecReport
from repro.sparsity import capacity_tokens


class LayerRouting(NamedTuple):
    """One MoE layer's routing: ``[experts]`` counts and the tokens routed
    (more than the counts' sum when a capacity cap dropped some)."""

    counts: np.ndarray
    num_tokens: int


def layer_routings(table) -> list:
    """A routing table's rows as per-layer routings, in layer order."""
    return [LayerRouting(row, table.num_tokens) for row in table.counts]


def deficit_loop(counts, scale, total):
    """``floor(counts * scale)`` topped up to ``total`` one token at a
    time, largest expert first: the apportioning loop before it was
    vectorized."""
    share = np.floor(counts * scale).astype(int)
    deficit = total - int(share.sum())
    order = np.argsort(-counts)
    for i in range(deficit):
        share[order[i % order.size]] += 1
    return share


def scaled_to(routing: LayerRouting, num_tokens: int) -> LayerRouting:
    """One layer's routing over ``num_tokens`` tokens: its routed total
    scaled in integers and apportioned by :func:`deficit_loop`; a routing
    of no tokens hands them all to expert 0."""
    if num_tokens == routing.num_tokens:
        return routing
    if routing.num_tokens == 0:
        counts = np.zeros_like(routing.counts)
        counts[0] = num_tokens
        return LayerRouting(counts, num_tokens)
    routed = int(routing.counts.sum()) * num_tokens // routing.num_tokens
    counts = deficit_loop(
        routing.counts, num_tokens / routing.num_tokens, routed
    )
    return LayerRouting(counts, num_tokens)


def _pytorch(backend, routing, d_model, d_ff, mem):
    total = 0.0
    for count in routing.counts:
        count = int(count)
        if count == 0:
            continue
        gather = elementwise_time_us(count * d_model, backend.dtype, backend.spec)
        up = backend._matmul_us(count, d_model, d_ff)
        act = elementwise_time_us(count * d_ff, backend.dtype, backend.spec)
        down = backend._matmul_us(count, d_ff, d_model)
        scatter = elementwise_time_us(count * d_model, backend.dtype, backend.spec)
        total += gather + up + act + down + scatter + backend.MOE_EXPERT_SYNC_US
    backend._alloc(mem, routing.num_tokens * d_ff, "moe.hidden")
    backend._alloc(mem, routing.num_tokens * d_model, "moe.out")
    return [ExecReport(op="moe.sequential", latency_us=total)]


def _pytorch_s(backend, routing, d_model, d_ff, mem):
    total = 0.0
    convert_total = 0.0
    for count in routing.counts:
        count = int(count)
        if count == 0:
            continue
        padded = math.ceil(count / backend.BLOCK) * backend.BLOCK
        gather = elementwise_time_us(count * d_model, backend.dtype, backend.spec)
        up = backend._matmul_us(padded, d_model, d_ff)
        act = elementwise_time_us(padded * d_ff, backend.dtype, backend.spec)
        down = backend._matmul_us(padded, d_ff, d_model)
        scatter = elementwise_time_us(count * d_model, backend.dtype, backend.spec)
        convert = backend._layout_convert_us(padded, d_model)
        total += (
            gather + up + act + down + scatter + convert
            + backend.MOE_EXPERT_SYNC_US
        )
        convert_total += convert
    backend._alloc(mem, routing.num_tokens * d_ff, "moe.hidden")
    backend._alloc(mem, routing.num_tokens * d_model, "moe.converted", "conversion")
    return [
        ExecReport(
            op="moe.sequential_sparse",
            latency_us=total,
            convert_us=convert_total,
        )
    ]


def _tutel(backend, routing, d_model, d_ff, mem):
    counts = routing.counts
    cap = int(counts.max()) if counts.size else 0
    e = int(counts.size)
    if cap == 0:
        return [ExecReport(op="moe.tutel", latency_us=backend.spec.kernel_launch_us)]
    dispatch = 2 * elementwise_time_us(
        routing.num_tokens * d_model, backend.dtype, backend.spec
    )
    up = backend._matmul_us(cap, d_model, d_ff, batch=e)
    act = elementwise_time_us(e * cap * d_ff, backend.dtype, backend.spec)
    down = backend._matmul_us(cap, d_ff, d_model, batch=e)
    combine = 2 * elementwise_time_us(
        routing.num_tokens * d_model, backend.dtype, backend.spec
    )
    retained = backend.WORKSPACE_RETENTION
    backend._alloc(mem, int(e * cap * d_model * retained), "moe.dispatch", "moe-workspace")
    backend._alloc(mem, int(e * cap * d_ff * retained), "moe.hidden", "moe-workspace")
    backend._alloc(mem, int(e * cap * d_model * retained), "moe.combine", "moe-workspace")
    waste = 1.0 - routing.num_tokens / max(1, e * cap)
    return [
        ExecReport(
            op="moe.tutel",
            latency_us=dispatch + up + act + down + combine,
            wasted_fraction=waste,
            detail={"capacity": cap, "experts": e},
        )
    ]


def _deepspeed(backend, routing, d_model, d_ff, mem):
    e = int(routing.counts.size)
    cap = capacity_tokens(routing.num_tokens, e, backend.CAPACITY_FACTOR)
    dispatch = 2 * elementwise_time_us(
        routing.num_tokens * d_model, backend.dtype, backend.spec
    )
    up = backend._matmul_us(cap, d_model, d_ff, batch=e)
    act = elementwise_time_us(e * cap * d_ff, backend.dtype, backend.spec)
    down = backend._matmul_us(cap, d_ff, d_model, batch=e)
    combine = 2 * elementwise_time_us(
        routing.num_tokens * d_model, backend.dtype, backend.spec
    )
    retained = backend.WORKSPACE_RETENTION
    backend._alloc(mem, int(e * cap * d_model * retained), "moe.dispatch", "moe-workspace")
    backend._alloc(mem, int(e * cap * d_ff * retained), "moe.hidden", "moe-workspace")
    dropped = int(np.maximum(routing.counts - cap, 0).sum())
    waste = 1.0 - routing.num_tokens / max(1, e * cap)
    return [
        ExecReport(
            op="moe.deepspeed",
            latency_us=dispatch + up + act + down + combine,
            wasted_fraction=max(0.0, waste),
            detail={"capacity": cap, "dropped_tokens": dropped},
        )
    ]


def _megablocks(backend, routing, d_model, d_ff, mem):
    tile = TileConfig(backend.BLOCK, backend.BLOCK, backend.BLOCK * 2)
    steps_up = steps_down = tiles_up = tiles_down = 0
    padded_tokens = 0
    for count in routing.counts:
        count = int(count)
        if count == 0:
            continue
        m_tiles = math.ceil(count / backend.BLOCK)
        padded_tokens += m_tiles * backend.BLOCK
        tiles_up += m_tiles * math.ceil(d_ff / tile.tn)
        steps_up += m_tiles * math.ceil(d_ff / tile.tn) * math.ceil(d_model / tile.tk)
        tiles_down += m_tiles * math.ceil(d_model / tile.tn)
        steps_down += m_tiles * math.ceil(d_model / tile.tn) * math.ceil(d_ff / tile.tk)
    up = backend._tiled_matmul_us(steps_up, tiles_up, tile)
    act = elementwise_time_us(padded_tokens * d_ff, backend.dtype, backend.spec)
    down = backend._tiled_matmul_us(steps_down, tiles_down, tile)
    token_bytes = routing.num_tokens * d_model * dtype_bytes(backend.dtype)
    reorg = 4 * stream_time_us(token_bytes, backend.spec) + 4 * backend.spec.kernel_launch_us
    backend._alloc(mem, padded_tokens * d_model, "moe.sorted", "conversion")
    backend._alloc(mem, padded_tokens * d_ff, "moe.hidden")
    waste = 1.0 - routing.num_tokens / max(1, padded_tokens)
    return [
        ExecReport(
            op="moe.megablocks",
            latency_us=up + act + down + reorg,
            convert_us=reorg,
            wasted_fraction=waste,
            detail={"padded_tokens": padded_tokens},
        )
    ]


def _pit(backend, routing, d_model, d_ff, mem):
    """The grouped expert FFN with one Python step per live expert (before
    its tile sums were vectorized)."""
    num_tokens, experts = routing.num_tokens, routing.counts.size
    tile = backend.tiledb.best_dense_tile(
        max(32, num_tokens // max(1, experts)), d_model, d_ff,
    ).tile
    steps_up = steps_down = tiles_up = tiles_down = 0
    for count in routing.counts:
        count = int(count)
        if count == 0:
            continue
        m_tiles = math.ceil(count / tile.tm)
        tiles_up += m_tiles * math.ceil(d_ff / tile.tn)
        steps_up += m_tiles * math.ceil(d_ff / tile.tn) * math.ceil(d_model / tile.tk)
        tiles_down += m_tiles * math.ceil(d_model / tile.tn)
        steps_down += m_tiles * math.ceil(d_model / tile.tn) * math.ceil(d_ff / tile.tk)
    detector = backend._detector_us(num_tokens, 1, num_tokens)
    up = backend._tiled_matmul_us(steps_up, tiles_up, tile)
    act = elementwise_time_us(num_tokens * d_ff, backend.dtype, backend.spec)
    down = backend._tiled_matmul_us(steps_down, tiles_down, tile)
    backend._alloc(mem, num_tokens * d_ff, "moe.hidden")
    backend._alloc(mem, num_tokens * d_model, "moe.out")
    return [
        ExecReport(
            op="moe.pit_grouped",
            latency_us=up + act + down + detector,
            convert_us=detector,
            detail={"tile": tile.describe()},
        )
    ]


def _turbo(backend, routing, d_model, d_ff, mem):
    raise UnsupportedModelError("TurboTransformers has no MoE operators")


def _longformer_s(backend, routing, d_model, d_ff, mem):
    raise UnsupportedModelError(
        "Longformer-S is attention-specific; it has no MoE operators"
    )


#: The per-layer body of each backend class; a class not listed (TVM)
#: uses its nearest listed base's.
BODIES = {
    ModelBackend: _pytorch,
    PyTorchSBackend: _pytorch_s,
    TutelBackend: _tutel,
    DeepSpeedBackend: _deepspeed,
    MegaBlocksBackend: _megablocks,
    PITBackend: _pit,
    TurboTransformerBackend: _turbo,
    LongformerSBackend: _longformer_s,
}


def moe_layer(backend, routing: LayerRouting, d_model: int, d_ff: int,
              mem=None) -> list:
    """One MoE layer's reports, priced by ``backend``'s per-layer body,
    booking its allocations into ``mem``."""
    for cls in type(backend).__mro__:
        if cls in BODIES:
            return BODIES[cls](backend, routing, d_model, d_ff, mem)
    raise TypeError(f"no MoE body for {type(backend).__name__}")
