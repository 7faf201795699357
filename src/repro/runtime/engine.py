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
from typing import Optional

from ..baselines.backends import ModelBackend, UnsupportedModelError
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

    def describe(self) -> str:
        if self.oom:
            return f"{self.backend:18s} OOM ({self.error})"
        if self.unsupported:
            return f"{self.backend:18s} unsupported ({self.error})"
        return (
            f"{self.backend:18s} {self.latency_ms:10.2f} ms "
            f"(convert {self.convert_ms:8.2f} ms)  mem {self.peak_mem_gib:6.2f} GiB"
        )


#: Optimizer-state multiplier for training: gradients + Adam m/v, all at the
#: weight dtype (the paper fine-tunes without ZeRO sharding on one GPU).
TRAINING_STATE_MULTIPLIER = 3


#: Effective per-direction NVLink bandwidth for tensor-parallel allreduce.
NVLINK_GBS = 130.0


class _AllocRecorder:
    """Books allocations into a tracker and records them for replay."""

    def __init__(self, mem: MemoryTracker):
        self._mem = mem
        self.allocs: list = []

    def alloc(self, num_bytes: int, label: str = "", category: str = "other") -> int:
        handle = self._mem.alloc(num_bytes, label, category=category)
        self.allocs.append((num_bytes, label, category))
        return handle


@dataclass(frozen=True)
class _Block:
    """One priced block of a layer: its reports (tensor-parallel division
    already applied) and the allocations it booked, both in op order."""

    reports: tuple
    allocs: tuple

    def add_to(
        self, timeline: Timeline, mem: Optional[MemoryTracker] = None
    ) -> None:
        """Append the reports to ``timeline``; book the allocations again
        into ``mem`` if one is given."""
        if mem is not None:
            for num_bytes, label, category in self.allocs:
                mem.alloc(num_bytes, label, category=category)
        timeline.reports.extend(self.reports)


def _attention_ops(backend: ModelBackend, workload: Workload, mem) -> list:
    """The attention block as ``[(reports, sharded)]``: LN, q/k/v,
    attention, output projection, residual and LN."""
    cfg, lengths = workload.config, workload.lengths
    d = cfg.d_model
    ops = [(backend.layernorm(lengths, d), False)]
    for name in ("attn.q", "attn.k", "attn.v"):
        ops.append((backend.linear(lengths, d, d, label=name, mem=mem), True))
    ops.append((
        backend.attention(
            lengths,
            cfg.heads,
            cfg.head_dim,
            attn_mask=workload.attn_stats,
            causal=cfg.causal,
            mem=mem,
        ),
        True,
    ))
    ops.append((backend.linear(lengths, d, d, label="attn.proj", mem=mem), True))
    ops.append((backend.pointwise(lengths, d), False))
    ops.append((backend.layernorm(lengths, d), False))
    return ops


def _ffn_ops(backend: ModelBackend, workload: Workload, layer: int, routing,
             mem) -> list:
    """The FFN block as ``[(reports, sharded)]``: the dense FFN or the MoE
    experts, then the residual."""
    cfg, lengths = workload.config, workload.lengths
    d = cfg.d_model
    if routing is not None:
        # Padding systems route every padded position; PIT routes only
        # real tokens.  Rescale the canonical routing to this backend's
        # effective token count.
        routing = routing.scaled_to(backend.padded_tokens(lengths))
        ffn = backend.moe_ffn(routing, d, cfg.d_ff, mem=mem)
    else:
        ffn = backend.ffn(
            lengths,
            d,
            cfg.d_ff,
            activation=cfg.activation,
            act_sparsity=workload.act_sparsity,
            seed=workload.seed * 31 + layer,
            mem=mem,
        )
    return [(ffn, True), (backend.pointwise(lengths, d), False)]


def _price_block(ops, mem: MemoryTracker, devices: int) -> _Block:
    """Price one block: ``ops(mem)`` calls the backend and returns
    ``[(reports, sharded)]``.

    Megatron-style TP shards only the weight-bearing matmuls (column/row-
    parallel projections, per-head attention, the FFN or MoE experts);
    layernorm, residual adds and other pointwise ops run replicated at full
    size on every rank.  The division happens here, once per priced block.
    """
    recorder = _AllocRecorder(mem)
    reports = []
    for execs, sharded in ops(recorder):
        for r in execs:
            if sharded and devices > 1:
                r = replace(
                    r,
                    latency_us=r.latency_us / devices,
                    convert_us=r.convert_us / devices,
                )
            reports.append(r)
    return _Block(tuple(reports), tuple(recorder.allocs))


def run_transformer(
    workload: Workload,
    backend: ModelBackend,
    *,
    mode: str = "inference",
    enforce_memory: bool = True,
    model_family_check: bool = True,
    devices: int = 1,
) -> RunReport:
    """Price one forward (or forward+backward) pass of ``workload``.

    ``devices > 1`` models tensor parallelism the way the paper runs
    OPT-13B/30B on eight V100s: weights and optimizer state shard evenly,
    the weight-bearing matmuls (projections, attention, FFN / MoE experts)
    divide by the device count while layernorm and pointwise ops — and the
    token activations they produce — stay replicated at full size, and
    every layer pays two ring-allreduces over the token activations.

    Each layer is an attention block and an FFN block, and each distinct
    block is priced once per run.  The first attention block and the first
    dense FFN block at layer >= 1 are priced; every later layer replays
    their reports and allocations.  Layer 0 is never a replay source: it
    pays the backend's once-per-batch first-use charges.  MoE blocks are
    always priced, because routing differs per layer.  At inference, a run
    of replayed dense layers that books nothing is handled in one step.
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
        if model_family_check and hasattr(backend, "check_model"):
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
        from ..hw.costmodel import elementwise_time_us

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

        attn_src = ffn_src = None  # replay sources, priced at layer >= 1
        # Inference only: current_bytes at the start of the last dense layer
        # >= 1, which booked both of its blocks in full.  A run of later
        # dense layers that starts from the same bytes replays both blocks,
        # reaches the same in-layer peak (nothing is freed mid-layer) and
        # leaves the tracker as it found it, so the whole run takes one
        # step: its reports, one free and its last layer's output.
        # Training never frees activations, so it never collapses.
        booked_start = None
        layer = 0
        while layer < total_layers:
            routing = workload.routing_for(layer)
            start_bytes = mem.current_bytes
            if routing is None and start_bytes == booked_start:
                end = layer + 1
                while end < total_layers and workload.routing_for(end) is None:
                    end += 1
                replay = attn_src.reports + ffn_src.reports + tail
                timeline.reports.extend(replay * (end - layer))
                layer = end - 1
            else:
                if attn_src is None:
                    block = _price_block(
                        lambda m: _attention_ops(backend, workload, m),
                        mem, devices,
                    )
                    block.add_to(timeline)
                    if layer:
                        attn_src = block
                else:
                    attn_src.add_to(timeline, mem)

                if routing is not None or ffn_src is None:
                    block = _price_block(
                        lambda m: _ffn_ops(backend, workload, layer, routing, m),
                        mem,
                        devices,
                    )
                    block.add_to(timeline)
                    if layer and routing is None:
                        ffn_src = block
                else:
                    ffn_src.add_to(timeline, mem)
                timeline.reports.extend(tail)

            if mode == "inference":
                if layer and routing is None:
                    booked_start = start_bytes
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


def speedup_table(reports: list, *, reference: str = "PIT") -> dict:
    """Speedups of ``reference`` over every other (successful) backend."""
    by_name = {r.backend: r for r in reports}
    if reference not in by_name or not by_name[reference].ok:
        raise KeyError(f"no successful {reference!r} run among the reports")
    ref_latency = by_name[reference].latency_ms
    table = {}
    for name, rep in by_name.items():
        if name == reference or not rep.ok:
            continue
        table[name] = rep.latency_ms / ref_latency
    return table
