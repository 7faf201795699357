"""The execution engine: walk a transformer workload against one backend.

For every layer the engine prices the standard pre-LN transformer op
sequence (LN, QKV projections, attention, output projection, residual, LN,
FFN-or-MoE, residual) through the backend's primitives, books memory into a
:class:`~repro.hw.MemoryTracker`, and collects a
:class:`~repro.hw.Timeline`.  Structurally identical layers are priced once
per run and replayed (see :func:`run_transformer`).  OOM and
unsupported-model events become structured results instead of exceptions,
matching how the paper reports baseline crashes ("OOM" bars, missing
lines).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple, Optional

from ..baselines.backends import AllocLog, ModelBackend, UnsupportedModelError
from ..hw.costmodel import elementwise_time_us
from ..hw.memtracker import MemoryTracker, OutOfMemoryError
from ..hw.spec import dtype_bytes
from ..hw.timeline import ExecReport, Timeline
from ..models.workloads import Workload


@dataclass
class RunReport:
    """Outcome of one simulated end-to-end run."""

    model: str
    backend: str
    mode: str  # "inference" | "training"
    latency_ms: float = 0.0
    convert_ms: float = 0.0
    peak_mem_gib: float = 0.0
    oom: bool = False
    unsupported: bool = False
    error: Optional[str] = None
    timeline: Timeline = field(default_factory=Timeline)

    @property
    def ok(self) -> bool:
        return not (self.oom or self.unsupported)


#: Optimizer-state multiplier for training: gradients + Adam m/v, all at the
#: weight dtype (the paper fine-tunes without ZeRO sharding on one GPU).
TRAINING_STATE_MULTIPLIER = 3


#: Effective per-direction NVLink bandwidth for tensor-parallel allreduce.
NVLINK_GBS = 130.0


class _AllocRecorder(AllocLog):
    """Books a run's allocations into a tracker and records them, in call
    order."""

    def __init__(self, mem: MemoryTracker):
        super().__init__()
        self._mem = mem

    def alloc(self, num_bytes: int, label: str, category: str) -> None:
        self._mem.alloc(num_bytes, label, category)
        self.append((num_bytes, label, category))


def _book(mem: MemoryTracker, allocs) -> None:
    """Book recorded allocations into ``mem``, in their order."""
    for num_bytes, label, category in allocs:
        mem.alloc(num_bytes, label, category)


class _Block(NamedTuple):
    """One priced block of a layer: its reports (tensor-parallel division
    already applied) and the allocations it made, in op order; and both
    per op."""

    reports: tuple
    allocs: tuple
    ops: tuple  # ((reports, allocs), ...)


def _attention_ops(backend: ModelBackend, workload: Workload,
                   recorder: _AllocRecorder) -> list:
    """The attention block as ``[(op, sharded)]``, where ``op()`` prices one
    backend op: LN, q/k/v, attention, output projection, residual and LN.
    The sharded ops are the ones that allocate, through ``recorder``."""
    cfg, lengths = workload.config, workload.lengths
    d = cfg.d_model
    linear = partial(backend.linear, lengths, d, d, mem=recorder)
    attention = partial(
        backend.attention, lengths, cfg.heads, cfg.head_dim,
        attn_mask=workload.attn_stats, causal=cfg.causal, mem=recorder,
    )
    layernorm = (partial(backend.layernorm, lengths, d), False)
    return [
        layernorm,
        (partial(linear, label="attn.q"), True),
        (partial(linear, label="attn.k"), True),
        (partial(linear, label="attn.v"), True),
        (attention, True),
        (partial(linear, label="attn.proj"), True),
        (partial(backend.pointwise, lengths, d), False),
        layernorm,
    ]


def _ffn_ops(backend: ModelBackend, workload: Workload, layer: int,
             recorder: _AllocRecorder) -> list:
    """The dense FFN block as ``[(op, sharded)]``: the FFN, then the
    residual."""
    cfg, lengths = workload.config, workload.lengths
    d = cfg.d_model
    ffn = partial(
        backend.ffn, lengths, d, cfg.d_ff, activation=cfg.activation,
        act_sparsity=workload.act_sparsity,
        seed=workload.seed * 31 + layer, mem=recorder,
    )
    return [(ffn, True), (partial(backend.pointwise, lengths, d), False)]


def _moe_blocks(backend: ModelBackend, workload: Workload, routing,
                devices: int) -> list:
    """Every MoE layer's FFN block as ``(reports, allocs)``, one per row of
    ``routing`` (already rescaled to the backend's token count): the
    experts of every layer priced in one ``moe_ffn`` call, then the
    residual, which allocates nothing."""
    cfg = workload.config
    layers = backend.moe_ffn(routing, cfg.d_model, cfg.d_ff)
    residual = tuple(backend.pointwise(workload.lengths, cfg.d_model))
    if devices > 1:
        return [(_shard(reports, devices) + residual, allocs)
                for reports, allocs in layers]
    return [(reports + residual, allocs) for reports, allocs in layers]


def _shard(reports, devices: int) -> tuple:
    """``reports`` of a weight-bearing op on each of ``devices`` ranks.

    Megatron-style TP shards only the weight-bearing matmuls (column/row-
    parallel projections, per-head attention, the FFN or MoE experts);
    layernorm, residual adds and other pointwise ops run replicated at full
    size on every rank.  The division happens once per priced op.
    """
    return tuple(
        replace(r, latency_us=r.latency_us / devices,
                convert_us=r.convert_us / devices)
        for r in reports
    )


def _price(op, sharded: bool, recorder: _AllocRecorder,
           devices: int) -> tuple:
    """``(reports, allocs)`` of one op, whose allocations ``recorder``
    books and records; a ``sharded`` op's reports are divided by
    :func:`_shard`."""
    start = len(recorder)
    reports = op()
    if sharded and devices > 1:
        reports = _shard(reports, devices)
    return tuple(reports), tuple(recorder[start:])


def _source(blocks: dict, key: str, ops: list, mem: MemoryTracker,
            recorder: _AllocRecorder, devices: int, layer: int) -> _Block:
    """This layer's ``key`` block of ``ops``, booked into ``mem`` and
    recorded by ``recorder`` (the one the ops allocate through).

    The block priced at a layer >= 1 is final: every later layer replays
    it.  It is priced from the block layer 0 priced, if any: only the ops
    whose reports there carry Convert time (the first-use charges) are
    priced again, and every other op replays its reports and books its
    allocations again.
    """
    source, final = blocks.get(key, (None, False))
    if final:
        _book(mem, source.allocs)
        return source
    start = len(recorder)
    priced, reports = [], []
    for (op, sharded), old in zip(ops, source.ops if source else repeat(None)):
        if old and not any(map(attrgetter("convert_us"), old[0])):
            _book(mem, old[1])  # and record them again
            recorder += old[1]
        else:
            old = _price(op, sharded, recorder, devices)
        priced.append(old)
        reports += old[0]
    block = _Block(tuple(reports), tuple(recorder[start:]), tuple(priced))
    blocks[key] = (block, layer > 0)
    return block


def run_transformer(
    workload: Workload,
    backend: ModelBackend,
    *,
    mode: str = "inference",
    enforce_memory: bool = True,
    devices: int = 1,
) -> RunReport:
    """Price one forward (or forward+backward) pass of ``workload``.

    ``devices > 1`` models tensor parallelism the way the paper runs
    OPT-13B/30B on eight V100s: weights and optimizer state shard evenly,
    the weight-bearing matmuls (projections, attention, FFN / MoE experts)
    divide by the device count while layernorm and pointwise ops — and the
    token activations they produce — stay replicated at full size, and
    every layer pays two ring-allreduces over the token activations.

    Each layer is an attention block and an FFN block, and each backend op
    is called once per distinct op per run (the contract is in the
    :class:`~repro.baselines.backends.ModelBackend` docstring).  Layer 0's
    blocks are the replay sources.  At the first layer >= 1, only the ops
    whose layer-0 reports carry Convert time are priced again; the block
    that results is replayed by every later layer.  The first MoE layer
    prices the experts of every MoE layer in one ``moe_ffn`` call over the
    run's routing table.  At inference, a layer that would book what the
    last layer of its kind booked, from the same bytes, only extends the
    timeline.
    """
    if mode not in ("inference", "training"):
        raise ValueError(f"mode must be inference|training, got {mode!r}")
    if devices < 1:
        raise ValueError("devices must be >= 1")
    cfg = workload.config
    report = RunReport(model=cfg.name, backend=backend.name, mode=mode)
    mem = MemoryTracker(backend.spec, enforce_capacity=enforce_memory)
    timeline = Timeline()
    backend.set_fusion(mode == "inference", workload.lengths)

    try:
        if hasattr(backend, "check_model"):
            backend.check_model(cfg.family, workload.max_len)

        dsize = dtype_bytes(backend.dtype)
        weight_bytes = cfg.param_count() * dsize // devices
        mem.alloc(weight_bytes, "weights", category="weights")
        if mode == "training":
            mem.alloc(
                weight_bytes * TRAINING_STATE_MULTIPLIER,
                "optimizer",
                category="optimizer",
            )

        d = cfg.d_model
        total_layers = cfg.n_layers + cfg.decoder_layers

        # Embedding lookup (bandwidth-bound; identical across backends).
        tokens = backend.padded_tokens(workload.lengths)
        timeline.record(
            "embedding",
            elementwise_time_us(tokens * d, backend.dtype, backend.spec),
        )
        mem.alloc(tokens * d * dsize, "embedding.out", category="activations")

        tail = ()  # the reports every layer ends with
        if devices > 1:
            # Two allreduces per layer move the token activations around
            # the ring.  A ring allreduce sends 2*(devices-1)/devices of
            # the payload per link (reduce-scatter + all-gather), so wider
            # rings cost strictly more per allreduce.
            comm_bytes = tokens * d * dsize
            ring_factor = 2.0 * (devices - 1) / devices
            comm_us = 2 * (ring_factor * comm_bytes / (NVLINK_GBS * 1e3))
            tail = (ExecReport(op="tp.allreduce", latency_us=comm_us),)

        # Padding systems route every padded position; PIT routes only real
        # tokens.  The request's routing table is rescaled to this backend's
        # token count once; ``rows`` maps each MoE layer to its row.
        routing, rows = workload.routing, {}
        if routing is not None:
            routing = routing.scaled(tokens)
            rows = dict(zip(routing.layers, range(len(routing.layers))))
        recorder = _AllocRecorder(mem)  # every priced op allocates through it
        attn_ops = _attention_ops(backend, workload, recorder)
        blocks = {}  # see _source
        moe = None  # per MoE layer, its FFN block (see _moe_blocks)
        # Inference only: per layer kind, the start bytes and FFN-or-MoE
        # allocations of the last layer >= 1 that booked in full.  A later
        # layer of that kind booking the same from the same bytes reaches
        # the same peak (nothing is freed mid-layer) and ends where it
        # started (the start bytes only repeat when no allocation outlives
        # its layer), so it only extends the timeline; a run of dense
        # layers takes one step.  Training frees nothing: no collapse.
        booked = {}
        layer = 0
        while layer < total_layers:
            row = rows.get(layer)
            start = mem.current_bytes
            # This layer's FFN block, ``(reports, allocs)``, if priced.
            if row is None:
                kind, ffn = "ffn", blocks.get("ffn", (None,))[0]
            else:
                kind, ffn = "moe", moe and moe[row]
            if booked.get(kind) == (start, ffn and ffn[1]):
                end = layer + 1
                if row is None:  # the whole run of dense layers
                    while end < total_layers and end not in rows:
                        end += 1
                attn = blocks["attn"][0]
                timeline.reports.extend(
                    (attn.reports + ffn[0] + tail) * (end - layer)
                )
                layer = end
                continue

            attn = _source(blocks, "attn", attn_ops, mem, recorder, devices,
                           layer)
            if row is None:
                ffn_ops = _ffn_ops(backend, workload, layer, recorder)
                ffn = _source(blocks, kind, ffn_ops, mem, recorder, devices,
                              layer)
            else:
                if moe is None:  # the first MoE layer prices them all
                    moe = _moe_blocks(backend, workload, routing, devices)
                ffn = moe[row]
                _book(mem, ffn[1])
            timeline.reports.extend(attn.reports + ffn[0] + tail)

            if mode == "inference":
                if layer:
                    booked[kind] = (start, ffn[1])
                # Intra-layer activations die once the layer output exists.
                mem.free_category("activations")
                mem.free_category("conversion")
                mem.free_category("padding")
                mem.alloc(tokens * d * dsize, f"layer{layer}.out", "activations")
            layer += 1

        if mode == "training":
            # Backward costs ~2x forward compute (two matmuls per forward
            # matmul) and rebuilds sparse indexes for the gradient masks.
            backward = timeline.scaled(2.0)
            timeline.extend(backward)

        report.latency_ms = timeline.total_ms
        report.convert_ms = timeline.convert_ms
        report.peak_mem_gib = mem.peak_gib
        report.timeline = timeline
    except OutOfMemoryError as exc:
        report.oom = True
        report.error = str(exc)
        report.peak_mem_gib = mem.spec.mem_capacity_gib
    except UnsupportedModelError as exc:
        report.unsupported = True
        report.error = str(exc)
    finally:
        backend.set_fusion(False)
    return report
