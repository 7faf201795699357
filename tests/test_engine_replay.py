"""Block replay in ``run_transformer`` against the per-layer reference loop.

``run_transformer`` prices layer 0's blocks, prices again at layer 1 only
the ops that paid Convert time there, and replays the result for every
later layer; the first MoE layer prices every MoE layer's experts in one
``moe_ffn`` call over the run's routing table.
``reference_run_transformer`` below is the engine's original loop, which
prices every op of every layer, each MoE layer through its backend's
per-layer body in ``moe_oracle`` with its routing rescaled one layer at a
time; the only other edit is that tensor parallelism builds divided copies
with ``dataclasses.replace``, because :class:`ExecReport` is frozen.
Every observable field of the two runs must be bit-identical.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from repro.sparsity import RoutingTable, capacity_tokens, get_dataset
from repro.models import (
    bert_workload,
    longformer_workload,
    museformer_workload,
    opt_inference_workload,
    opt_training_workload,
    swin_moe_workload,
    switch_workload,
)
from repro.models.config import switch_transformer
from repro.models.workloads import Workload, _route_moe_layers
from repro.runtime import BACKENDS_BY_NAME, RunReport, run_transformer
from repro.runtime.engine import NVLINK_GBS, TRAINING_STATE_MULTIPLIER

from moe_oracle import layer_routings, moe_layer, scaled_to


def reference_run_transformer(
    workload, backend, *, mode="inference", enforce_memory=True, devices=1,
):
    """The per-layer pricing loop: every op of every layer, priced."""
    cfg = workload.config
    report = RunReport(model=cfg.name, backend=backend.name, mode=mode)
    mem = MemoryTracker(backend.spec, enforce_capacity=enforce_memory)
    timeline = Timeline()
    backend.set_fusion(mode == "inference")

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

        lengths = workload.lengths
        d, heads, d_ff = cfg.d_model, cfg.heads, cfg.d_ff
        total_layers = cfg.n_layers + cfg.decoder_layers

        tokens = backend.padded_tokens(lengths)
        timeline.record(
            "embedding",
            elementwise_time_us(tokens * d, backend.dtype, backend.spec),
        )
        mem.alloc(tokens * d * dsize, "embedding.out", category="activations")
        routings = {}
        if workload.routing is not None:
            routings = dict(zip(workload.routing.layers,
                                layer_routings(workload.routing)))

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
            routing = routings.get(layer)
            if routing is not None:
                routing = scaled_to(routing, backend.padded_tokens(lengths))
                _add(moe_layer(backend, routing, d, d_ff, mem=mem),
                     sharded=True)
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

    @pytest.mark.parametrize("moe_layer", [1, 3, 23], ids=lambda n: f"moe@{n}")
    @pytest.mark.parametrize(
        "factory, dtype",
        [(TutelBackend, "float32"), (MegaBlocksBackend, "float16")],
        ids=["tutel", "megablocks-fp16"],
    )
    def test_layers_after_a_lone_moe_layer_book_again(
        self, workloads, factory, dtype, moe_layer
    ):
        """Tutel's MoE workspace outlives its layer, so the dense layers
        after it start higher than the layer their blocks were priced in
        and must book their replayed allocations to reach the true peak.
        The lone MoE layer comes before the dense FFN source is priced
        (layer 1), after it (3), or last, with no dense layer behind it."""
        switch = workloads["switch"]
        assert switch.config.n_layers + switch.config.decoder_layers == 24
        workload = dataclasses.replace(
            switch, routing=_lone_layer(switch.routing, moe_layer)
        )
        reference, replayed = _pair(factory, dtype, workload)
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


def _lone_layer(table, layer) -> RoutingTable:
    """``table``'s routing of one MoE layer, as a one-row table."""
    row = table.layers.index(layer)
    return RoutingTable((layer,), table.counts[row:row + 1], table.num_tokens)


def _count_calls(backend, *names) -> Counter:
    calls = Counter()
    for name in names:
        method = getattr(backend, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        setattr(backend, name, counted)
    return calls


#: Every backend op ``run_transformer`` prices a layer through.
PRICED_OPS = ("linear", "attention", "ffn", "moe_ffn", "layernorm", "pointwise")


class TestPricedOncePerRun:
    def test_bert_base_prices_attention_twice(self, workloads):
        backend = PITBackend(V100)
        calls = _count_calls(backend, "attention", "ffn")
        run_transformer(workloads["bert"], backend)
        assert workloads["bert"].config.n_layers == 12
        assert calls == {"attention": 2, "ffn": 1}

    def test_switch_prices_every_moe_layer_in_one_call(self, workloads):
        """One ``moe_ffn`` call per run prices all 12 MoE layers: one
        report each, each MoE layer's timeline entry is its own row's."""
        backend = PITBackend(V100)
        calls = _count_calls(backend, "attention", "ffn", "moe_ffn")
        report = run_transformer(workloads["switch"], backend)
        cfg = workloads["switch"].config
        assert cfg.n_layers + cfg.decoder_layers == 24
        assert calls == {"attention": 2, "ffn": 1, "moe_ffn": 1}
        moe = [r for r in report.timeline.reports if r.op == "moe.pit_grouped"]
        routing = workloads["switch"].routing.scaled(
            backend.padded_tokens(workloads["switch"].lengths)
        )
        expected = [
            moe_layer(PITBackend(V100), row, cfg.d_model, cfg.d_ff)[0]
            for row in layer_routings(routing)
        ]
        assert len(moe) == len(routing.layers) == 12
        assert [(r.latency_us, r.convert_us, r.detail) for r in moe] == [
            (r.latency_us, r.convert_us, r.detail) for r in expected
        ]

    @pytest.mark.parametrize("workload_name", ["bert", "opt-act"])
    def test_pricing_work_does_not_grow_with_depth(
        self, workloads, workload_name, monkeypatch
    ):
        """Doubling the encoder stack adds timeline entries only: the same
        backend ops, tracker allocations and category frees price it."""
        for name in ("alloc", "free_category"):  # undone after the test
            monkeypatch.setattr(MemoryTracker, name, getattr(MemoryTracker, name))
        tracker = _count_calls(MemoryTracker, "alloc", "free_category")
        workload = workloads[workload_name]
        n_layers = workload.config.n_layers
        work, report_counts = [], []
        for depth in (n_layers, 2 * n_layers):
            stacked = dataclasses.replace(
                workload,
                config=dataclasses.replace(workload.config, n_layers=depth),
            )
            backend = PITBackend(V100)
            ops = _count_calls(backend, *PRICED_OPS)
            tracker.clear()
            report = run_transformer(stacked, backend)
            assert report.ok
            work.append((ops, Counter(tracker)))
            report_counts.append(len(report.timeline.reports))
        assert work[0] == work[1]
        shallow, deep = report_counts
        per_layer, rest = divmod(shallow - 1, n_layers)  # 1: the embedding
        assert rest == 0 and per_layer == 14
        assert deep - shallow == per_layer * n_layers

    def test_moe_pricing_work_grows_only_by_routed_rows(
        self, workloads, monkeypatch
    ):
        """Doubling a Switch-64 stack to 48 layers doubles the routing
        table's rows and adds timeline entries only: the same backend op
        calls (one ``moe_ffn`` per run), tracker allocations and category
        frees price it."""
        for name in ("alloc", "free_category"):  # undone after the test
            monkeypatch.setattr(MemoryTracker, name, getattr(MemoryTracker, name))
        tracker = _count_calls(MemoryTracker, "alloc", "free_category")
        switch = workloads["switch"]
        work, report_counts, rows = [], [], []
        for scale in (1, 2):
            cfg = dataclasses.replace(
                switch.config,
                n_layers=switch.config.n_layers * scale,
                decoder_layers=switch.config.decoder_layers * scale,
            )
            padded = int(switch.lengths.max()) * switch.batch_size
            stacked = dataclasses.replace(
                switch, config=cfg,
                routing=_route_moe_layers(cfg, padded, switch.seed),
            )
            backend = PITBackend(V100)
            ops = _count_calls(backend, *PRICED_OPS)
            priced_rows = []
            moe_ffn = backend.moe_ffn
            backend.moe_ffn = lambda routing, *args: (
                priced_rows.append(len(routing.counts))
                or moe_ffn(routing, *args)
            )
            tracker.clear()
            report = run_transformer(stacked, backend)
            assert report.ok
            work.append((ops, Counter(tracker)))
            report_counts.append(len(report.timeline.reports))
            rows.append(priced_rows)
        (shallow_ops, shallow_mem), (deep_ops, deep_mem) = work
        assert deep_mem == shallow_mem
        assert deep_ops == shallow_ops and shallow_ops["moe_ffn"] == 1
        assert rows == [[12], [24]]
        # An attention block is 10 reports, a dense FFN block 4 and an MoE
        # block 2; the added layers alternate dense and MoE.
        assert report_counts[1] - report_counts[0] == (14 + 12) * 12


class TestMoEReplayProperty:
    """``run_transformer`` against the per-layer reference on random MoE
    workloads: the booking rule per layer kind, the MoE layers that price
    only their routed op, and the rescale of every routing at once."""

    BACKENDS = ("PIT", "Tutel", "DeepSpeed", "MegaBlocks", "PyTorch")

    @staticmethod
    def workload(experts, batch, every, seed, capacity_factor, lone):
        config = switch_transformer(experts)
        config = dataclasses.replace(
            config, moe=dataclasses.replace(config.moe, every=every)
        )
        lengths = np.minimum(
            get_dataset("mnli").sample(batch, seed=seed), config.max_seq
        )
        padded = int(lengths.max()) * batch
        routing = _route_moe_layers(config, padded, seed)
        if capacity_factor is not None:
            capacity = capacity_tokens(padded, experts, capacity_factor)
            routing = RoutingTable(routing.layers,
                                   np.minimum(routing.counts, capacity),
                                   routing.num_tokens)
        if lone is not None:
            routing = RoutingTable((lone,), routing.counts[-1:],
                                   routing.num_tokens)
        return Workload(config=config, lengths=lengths, routing=routing,
                        seed=seed)

    @settings(max_examples=25, deadline=None)
    @given(
        experts=st.integers(1, 128),
        batch=st.integers(1, 16),
        every=st.integers(1, 3),
        seed=st.integers(0, 1000),
        capacity_factor=st.none() | st.floats(0.5, 2.0),
        lone=st.none() | st.integers(0, 23),
    )
    # Tutel runs out of memory inside an MoE layer here, at inference.
    @example(experts=128, batch=16, every=2, seed=1, capacity_factor=None,
             lone=None)
    def test_moe_runs_match_reference(self, **params):
        workload = self.workload(**params)
        for name in self.BACKENDS:
            factory, dtype = BACKENDS[name]
            for kwargs in RUN_AXES:
                reference, replayed = _pair(factory, dtype, workload, **kwargs)
                assert fingerprint(replayed) == fingerprint(reference), (
                    name, kwargs,
                )

    def test_oom_inside_an_moe_layer(self):
        """The explicit example above does run out of memory in an MoE op,
        past the layers that collapse."""
        workload = self.workload(128, 16, 2, 1, None, None)
        reference, replayed = _pair(TutelBackend, "float32", workload)
        assert reference.oom and "'moe." in reference.error
        assert fingerprint(replayed) == fingerprint(reference)


class TestPerRunFacts:
    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 512), min_size=1, max_size=16),
        run_lengths=st.lists(st.integers(0, 512), min_size=1, max_size=16),
        counts=st.lists(st.integers(0, 3000), min_size=1, max_size=128),
        causal=st.booleans(),
    )
    def test_ops_price_from_their_arguments(
        self, lengths, run_lengths, counts, causal
    ):
        """PIT keeps its variable-length attention terms for the rest of a
        run.  Inside the run, an op given another ``lengths`` object or
        another routing table than one it priced, and after the run ends,
        any op, prices as a backend that never ran does."""
        lengths, run_lengths = np.array(lengths), np.array(run_lengths)
        counts = np.array([counts])
        routing = RoutingTable((1,), counts, int(counts.sum()))
        backend = PITBackend(V100)
        backend.set_fusion(True, run_lengths)
        backend.attention(run_lengths, 12, 64, causal=causal)
        other = RoutingTable((1,), counts[:, ::-1] + 1,
                             int(counts.sum()) + counts.size)
        backend.moe_ffn(other, 768, 3072)
        for _ in ("in the run", "after it"):
            fresh = PITBackend(V100)
            fresh.attention(run_lengths, 12, 64, causal=causal)  # detected
            mem, fresh_mem = MemoryTracker(V100), MemoryTracker(V100)
            assert backend.attention(
                lengths, 12, 64, causal=causal, mem=mem
            )[1:] == fresh.attention(
                lengths, 12, 64, causal=causal, mem=fresh_mem
            )[1:]
            assert vars(mem) == vars(fresh_mem)
            assert backend.moe_ffn(routing, 768, 3072) == fresh.moe_ffn(
                routing, 768, 3072
            )
            backend.set_fusion(False)


def test_exec_report_is_frozen():
    report = ExecReport(op="attn.qk", latency_us=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.latency_us = 2.0
