"""Block replay in ``run_transformer`` against the per-layer reference loop.

``run_transformer`` prices each distinct attention / dense-FFN block once
per run and replays it for every later layer.  ``reference_run_transformer``
below is the engine's previous loop, which prices every op of every layer;
the only edit is that tensor parallelism builds divided copies with
``dataclasses.replace``, because :class:`ExecReport` is frozen.  Every
observable field of the two runs must be bit-identical.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.baselines import (
    MegaBlocksBackend,
    PITBackend,
    TutelBackend,
    UnsupportedModelError,
)
from repro.core.selection import PlanCache
from repro.hw import V100
from repro.hw.costmodel import elementwise_time_us
from repro.hw.memtracker import MemoryTracker, OutOfMemoryError
from repro.hw.spec import dtype_bytes
from repro.hw.timeline import ExecReport, Timeline
from repro.models import (
    bert_workload,
    longformer_workload,
    museformer_workload,
    opt_inference_workload,
    opt_training_workload,
    swin_moe_workload,
    switch_workload,
)
from repro.runtime import BACKENDS_BY_NAME, RunReport, run_transformer
from repro.runtime.engine import NVLINK_GBS, TRAINING_STATE_MULTIPLIER


def reference_run_transformer(
    workload, backend, *, mode="inference", enforce_memory=True,
    model_family_check=True, devices=1,
):
    """The per-layer pricing loop: every op of every layer, priced."""
    cfg = workload.config
    report = RunReport(model=cfg.name, backend=backend.name, mode=mode)
    mem = MemoryTracker(backend.spec, enforce_capacity=enforce_memory)
    timeline = Timeline()
    backend.set_fusion(mode == "inference")

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

        lengths = workload.lengths
        d, heads, d_ff = cfg.d_model, cfg.heads, cfg.d_ff
        total_layers = cfg.n_layers + cfg.decoder_layers

        tokens = backend.padded_tokens(lengths)
        timeline.record(
            "embedding",
            elementwise_time_us(tokens * d, backend.dtype, backend.spec),
        )
        mem.alloc(tokens * d * dsize, "embedding.out", category="activations")

        for layer in range(total_layers):
            reports = []  # (ExecReport, sharded) in op order

            def _add(execs, *, sharded):
                reports.extend((r, sharded) for r in execs)

            _add(backend.layernorm(lengths, d), sharded=False)
            for name in ("attn.q", "attn.k", "attn.v"):
                _add(backend.linear(lengths, d, d, label=name, mem=mem),
                     sharded=True)
            _add(
                backend.attention(
                    lengths,
                    heads,
                    cfg.head_dim,
                    attn_mask=workload.attn_stats,
                    causal=cfg.causal,
                    mem=mem,
                ),
                sharded=True,
            )
            _add(backend.linear(lengths, d, d, label="attn.proj", mem=mem),
                 sharded=True)
            _add(backend.pointwise(lengths, d), sharded=False)
            _add(backend.layernorm(lengths, d), sharded=False)
            routing = workload.routing_for(layer)
            if routing is not None:
                routing = routing.scaled_to(backend.padded_tokens(lengths))
                _add(backend.moe_ffn(routing, d, d_ff, mem=mem), sharded=True)
            else:
                _add(
                    backend.ffn(
                        lengths,
                        d,
                        d_ff,
                        activation=cfg.activation,
                        act_sparsity=workload.act_sparsity,
                        seed=workload.seed * 31 + layer,
                        mem=mem,
                    ),
                    sharded=True,
                )
            _add(backend.pointwise(lengths, d), sharded=False)
            if devices > 1:
                reports = [
                    (
                        dataclasses.replace(
                            r,
                            latency_us=r.latency_us / devices,
                            convert_us=r.convert_us / devices,
                        )
                        if sharded
                        else r,
                        sharded,
                    )
                    for r, sharded in reports
                ]
                comm_bytes = tokens * d * dsize
                ring_factor = 2.0 * (devices - 1) / devices
                comm_us = 2 * (ring_factor * comm_bytes / (NVLINK_GBS * 1e3))
                reports.append(
                    (ExecReport(op="tp.allreduce", latency_us=comm_us), False)
                )
            for r, _ in reports:
                timeline.add(r)

            if mode == "inference":
                mem.free_category("activations")
                mem.free_category("conversion")
                mem.free_category("padding")
                mem.alloc(tokens * d * dsize, f"layer{layer}.out", "activations")

        if mode == "training":
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


def fingerprint(report: RunReport) -> tuple:
    """Every observable field of a run, compared with ``==`` (floats too)."""
    return (
        report.latency_ms,
        report.convert_ms,
        report.peak_mem_gib,
        report.oom,
        report.unsupported,
        report.error,
        [
            (r.op, r.latency_us, r.convert_us, r.wasted_fraction, r.detail)
            for r in report.timeline.reports
        ],
    )


# Batch sizes are shrunk so the whole matrix stays quick; every axis stays.
WORKLOADS = {
    "bert": lambda: bert_workload("mnli", batch_size=2, seed=1),
    "opt-act": lambda: opt_inference_workload("125m", batch_size=1, seed=1),
    "opt-train": lambda: opt_training_workload("125m", batch_size=8, seed=1),
    "switch": lambda: switch_workload(64, batch_size=2, seed=1),
    "swin-moe": lambda: swin_moe_workload(8, batch_size=2, seed=1),
    "longformer": lambda: longformer_workload("base", 2048, seed=1),
    "museformer": lambda: museformer_workload(2048, seed=1),
}

#: Backend label -> (factory, dtype).  MegaBlocks ships fp16 kernels only.
BACKENDS = {
    name: (cls, "float16" if cls is MegaBlocksBackend else "float32")
    for name, cls in BACKENDS_BY_NAME.items()
}
BACKENDS["PIT+PlanCache"] = (
    lambda spec, dtype: PITBackend(spec, dtype, plan_cache=PlanCache()),
    "float32",
)

RUN_AXES = [
    dict(mode=mode, devices=devices, enforce_memory=enforce)
    for mode in ("inference", "training")
    for devices in (1, 8)
    for enforce in (True, False)
]


@pytest.fixture(scope="module")
def workloads():
    return {name: build() for name, build in WORKLOADS.items()}


def _pair(factory, dtype, workload, **kwargs):
    """(reference, replayed) reports, each from a fresh backend."""
    reference = reference_run_transformer(
        workload, factory(V100, dtype), **kwargs
    )
    replayed = run_transformer(workload, factory(V100, dtype), **kwargs)
    return reference, replayed


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_replay_matches_reference(backend_name, workload_name, workloads):
    factory, dtype = BACKENDS[backend_name]
    for kwargs in RUN_AXES:
        reference, replayed = _pair(
            factory, dtype, workloads[workload_name], **kwargs
        )
        assert fingerprint(replayed) == fingerprint(reference), kwargs


class TestReplayEdgeCases:
    def test_oom_inside_a_replayed_layer(self):
        """Training books every replayed allocation, so an OOM deep in the
        stack names the same request, usage and label as the reference."""
        workload = opt_training_workload("350m", batch_size=128, seed=1)
        reference_backend = PITBackend(V100)
        calls = _count_calls(reference_backend, "ffn")
        reference = reference_run_transformer(
            workload, reference_backend, mode="training"
        )
        replayed = run_transformer(workload, PITBackend(V100), mode="training")
        assert reference.oom and calls["ffn"] > 2  # failed in a replayed layer
        assert fingerprint(replayed) == fingerprint(reference)

    @pytest.mark.parametrize(
        "workload",
        [switch_workload(64, batch_size=4, seed=1),
         swin_moe_workload(8, batch_size=4, seed=1)],
        ids=["switch", "swin-moe"],
    )
    def test_megablocks_fp16_moe_inference_peak(self, workload):
        """A MoE layer books its attention allocations even though the
        attention block is a replay: skipping them under-counts the peak
        the MoE block reaches on top of them (by 0.94 MiB on Switch-64 and
        0.16 MiB on Swin-MoE here)."""
        reference, replayed = _pair(MegaBlocksBackend, "float16", workload)
        assert reference.ok
        assert replayed.peak_mem_gib == reference.peak_mem_gib

    def test_layers_after_a_lone_moe_layer_book_again(self, workloads):
        """Tutel's MoE workspace outlives its layer, so the dense layers
        after it start higher than the layer their blocks were priced in
        and must book their replayed allocations to reach the true peak."""
        switch = workloads["switch"]
        workload = dataclasses.replace(
            switch, routing_by_layer={3: switch.routing_for(3)}
        )
        reference, replayed = _pair(TutelBackend, "float32", workload)
        assert reference.ok
        assert fingerprint(replayed) == fingerprint(reference)

    def test_pit_plan_cache_shared_across_runs(self, workloads):
        """A PlanCache shared by consecutive runs (the serving case): the
        second run hits the ffn-act memo from its first layer on."""
        cache_ref, cache_new = PlanCache(), PlanCache()
        for _ in range(2):
            reference = reference_run_transformer(
                workloads["opt-act"], PITBackend(V100, plan_cache=cache_ref),
                devices=8,
            )
            replayed = run_transformer(
                workloads["opt-act"], PITBackend(V100, plan_cache=cache_new),
                devices=8,
            )
            assert fingerprint(replayed) == fingerprint(reference)


def _count_calls(backend, *names) -> Counter:
    calls = Counter()
    for name in names:
        method = getattr(backend, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        setattr(backend, name, counted)
    return calls


class TestPricedOncePerRun:
    def test_bert_base_prices_attention_twice(self, workloads):
        backend = PITBackend(V100)
        calls = _count_calls(backend, "attention", "ffn")
        run_transformer(workloads["bert"], backend)
        assert workloads["bert"].config.n_layers == 12
        assert calls == {"attention": 2, "ffn": 2}

    def test_switch_prices_every_moe_layer(self, workloads):
        backend = PITBackend(V100)
        calls = _count_calls(backend, "attention", "ffn", "moe_ffn")
        run_transformer(workloads["switch"], backend)
        cfg = workloads["switch"].config
        assert cfg.n_layers + cfg.decoder_layers == 24
        assert calls == {"attention": 2, "ffn": 2, "moe_ffn": 12}


def test_exec_report_is_frozen():
    report = ExecReport(op="attn.qk", latency_us=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.latency_us = 2.0
