"""Tests for the model-level backends (padding/conversion/fusion semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    DeepSpeedBackend,
    LongformerSBackend,
    MegaBlocksBackend,
    PITBackend,
    PyTorchBackend,
    PyTorchSBackend,
    TurboTransformerBackend,
    TutelBackend,
    UnsupportedModelError,
    length_buckets,
)
from repro.baselines.backends import AllocLog
from repro.baselines.turbo import TURBO_BUCKETS
from repro.hw import A100, V100, MemoryTracker
from repro.sparsity import Router, RoutingTable, longformer_mask_stats

from moe_oracle import layer_routings, moe_layer


LENGTHS = np.array([16, 40, 100, 128])


def total_us(reports):
    return sum(r.latency_us for r in reports)


def convert_us(reports):
    return sum(r.convert_us for r in reports)


class TestPaddingSemantics:
    def test_pytorch_pads_to_max(self):
        assert PyTorchBackend(V100).padded_tokens(LENGTHS) == 4 * 128

    def test_pytorch_s_pads_to_block32(self):
        assert PyTorchSBackend(V100).padded_tokens(LENGTHS) == 32 + 64 + 128 + 128

    def test_pit_exact_tokens(self):
        assert PITBackend(V100).padded_tokens(LENGTHS) == int(LENGTHS.sum())

    def test_turbo_buckets(self):
        lengths = np.array([9, 3, 7, 1, 10, 5, 2, 8, 4, 6])
        buckets = length_buckets(lengths)
        assert len(buckets) == TURBO_BUCKETS
        assert np.concatenate(buckets).tolist() == sorted(lengths.tolist())
        assert len(length_buckets(LENGTHS[:2])) == 2
        assert TurboTransformerBackend(V100).padded_tokens(LENGTHS) < 4 * 128


class TestLinear:
    def test_pit_faster_than_pytorch(self):
        pt = total_us(PyTorchBackend(V100).linear(LENGTHS, 768, 768))
        pit = total_us(PITBackend(V100).linear(LENGTHS, 768, 768))
        assert pit < pt

    def test_pytorch_s_charges_conversion(self):
        reports = PyTorchSBackend(V100).linear(LENGTHS, 768, 768)
        assert convert_us(reports) > 0

    def test_memory_booked(self):
        mem = MemoryTracker(V100)
        PyTorchBackend(V100).linear(LENGTHS, 768, 768, mem=mem)
        assert mem.current_bytes == 4 * 128 * 768 * 4


class TestFFN:
    def test_pit_exploits_relu_sparsity(self):
        pit = PITBackend(V100)
        dense = total_us(pit.ffn(LENGTHS, 768, 3072, activation="relu"))
        sparse = total_us(
            pit.ffn(LENGTHS, 768, 3072, activation="relu", act_sparsity=0.99)
        )
        assert sparse < dense

    def test_gelu_ignores_act_sparsity(self):
        # Fresh backends: the once-per-batch detector state must not leak
        # between the two comparisons.
        a = total_us(
            PITBackend(V100).ffn(LENGTHS, 768, 3072, activation="gelu")
        )
        b = total_us(
            PITBackend(V100).ffn(
                LENGTHS, 768, 3072, activation="gelu", act_sparsity=0.99
            )
        )
        assert a == pytest.approx(b)

    def test_pytorch_cannot_exploit(self):
        pt = PyTorchBackend(V100)
        a = total_us(pt.ffn(LENGTHS, 768, 3072, activation="relu"))
        b = total_us(
            pt.ffn(LENGTHS, 768, 3072, activation="relu", act_sparsity=0.99)
        )
        assert a == pytest.approx(b)


class TestAttention:
    def test_pit_varlen_beats_padded(self):
        skewed = np.array([8, 8, 8, 256])
        pt = total_us(PyTorchBackend(V100).attention(skewed, 12, 64))
        pit = total_us(PITBackend(V100).attention(skewed, 12, 64))
        assert pit < pt

    def test_sparse_attention_with_stats(self):
        stats = longformer_mask_stats(1024, 128, num_global=8, seed=0)
        lengths = np.array([1024])
        dense = total_us(PyTorchBackend(V100).attention(lengths, 12, 64))
        pit = total_us(
            PITBackend(V100).attention(lengths, 12, 64, attn_mask=stats)
        )
        assert pit < dense

    def test_pytorch_s_block_cover_between(self):
        stats = longformer_mask_stats(1024, 128, num_global=8, seed=0)
        lengths = np.array([1024])
        pit = total_us(PITBackend(V100).attention(lengths, 12, 64, attn_mask=stats))
        pts = total_us(
            PyTorchSBackend(V100).attention(lengths, 12, 64, attn_mask=stats)
        )
        assert pts > pit

    def test_longformer_s_no_waste_but_rearranges(self):
        lengths = np.array([2048])
        lf = LongformerSBackend(V100)
        reports = lf.attention(lengths, 12, 64)
        assert convert_us(reports) > 0  # the rearrangement cost


def one_layer(backend, routing, d_model, d_ff) -> list:
    """The reports of a one-row table's only MoE layer."""
    ((reports, _),) = backend.moe_ffn(routing, d_model, d_ff)
    return reports


class TestMoE:
    @pytest.fixture()
    def routing(self):
        return Router(64, concentration=0.4, seed=0).route(4096, (1,), seed=0)

    def test_ordering_matches_figure8(self, routing):
        """PIT < MegaBlocks < DeepSpeed < Tutel; PyTorch worst or near."""
        d, f = 768, 3072
        pit = total_us(one_layer(PITBackend(A100, "float16"), routing, d, f))
        mb = total_us(one_layer(MegaBlocksBackend(A100, "float16"), routing, d, f))
        ds = total_us(one_layer(DeepSpeedBackend(A100, "float16"), routing, d, f))
        tu = total_us(one_layer(TutelBackend(A100, "float16"), routing, d, f))
        pt = total_us(one_layer(PyTorchBackend(A100, "float16"), routing, d, f))
        assert pit < mb < tu
        assert pit < ds < tu
        assert pit < pt

    def test_tutel_memory_scales_with_imbalance(self, routing):
        ((_, allocs),) = TutelBackend(A100, "float16").moe_ffn(routing, 768, 3072)
        padded = routing.num_experts * int(routing.counts.max())
        assert sum(b for b, _, _ in allocs) >= padded * 3072 * 2  # fp16 hidden

    def test_megablocks_fp32_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            MegaBlocksBackend(A100, "float32")

    def test_pit_cost_tracks_total_tokens_not_max(self):
        even = Router(8, concentration=100.0, seed=0).route(4096, (1,), seed=0)
        skew = Router(8, concentration=0.05, seed=4).route(4096, (1,), seed=0)
        pit = PITBackend(A100, "float16")
        t_even = total_us(one_layer(pit, even, 768, 3072))
        t_skew = total_us(one_layer(pit, skew, 768, 3072))
        assert t_skew < 2.0 * t_even
        tutel = TutelBackend(A100, "float16")
        assert total_us(one_layer(tutel, skew, 768, 3072)) > 2.0 * total_us(
            one_layer(tutel, even, 768, 3072)
        )


@st.composite
def routing_tables(draw):
    """Routing tables of 1-12 MoE layers over 8-256 experts: idle experts,
    rows nothing reached, tied loads, and token counts above every row's
    sum (a capacity cap dropped tokens)."""
    layers = draw(st.integers(1, 12))
    experts = draw(st.integers(8, 256))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, draw(st.sampled_from([3, 3000])),
                          size=(layers, experts))
    counts[rng.random(counts.shape) < draw(st.sampled_from([0.0, 0.5, 0.95]))] = 0
    if draw(st.booleans()):
        counts[rng.integers(layers)] = 0
    dropped = draw(st.sampled_from([0, 0, 1, 500]))
    num_tokens = int(counts.sum(axis=1).max()) + dropped
    return RoutingTable(tuple(range(1, 2 * layers, 2)), counts, num_tokens)


class TestMoEOneCall:
    """``moe_ffn`` prices every row of a routing table in one call; each
    row's reports and allocation records are its layer's under the
    backend's per-layer body (``moe_oracle``), fused or not."""

    BACKENDS = (
        PITBackend(V100), PITBackend(A100, "float16"), PITBackend(A100),
        PyTorchBackend(V100), PyTorchSBackend(V100), TutelBackend(V100),
        DeepSpeedBackend(V100), MegaBlocksBackend(A100, "float16"),
    )

    @settings(max_examples=80, deadline=None)
    @given(
        routing_tables(),
        st.sampled_from(BACKENDS),
        st.sampled_from([(768, 3072), (1024, 4096), (96, 200), (512, 1000)]),
        st.booleans(),
    )
    def test_one_call_matches_the_per_layer_bodies(
        self, table, backend, dims, fused
    ):
        backend.set_fusion(fused)
        try:
            layers = backend.moe_ffn(table, *dims)
            assert len(layers) == len(table.layers)
            for (reports, allocs), routing in zip(layers, layer_routings(table)):
                log = AllocLog()
                assert list(reports) == moe_layer(backend, routing, *dims, mem=log)
                assert allocs == tuple(log)
        finally:
            backend.set_fusion(False)

    @pytest.mark.parametrize(
        "cls", [TurboTransformerBackend, LongformerSBackend]
    )
    def test_systems_without_moe_operators_refuse(self, cls):
        table = Router(8, seed=0).route(64, (1, 3), seed=0)
        with pytest.raises(UnsupportedModelError, match="MoE"):
            cls(V100).moe_ffn(table, 64, 128)


class TestFusionMemory:
    def test_fused_backend_skips_intermediates(self):
        ds = DeepSpeedBackend(V100)
        mem_plain = MemoryTracker(V100)
        ds.set_fusion(False)
        ds.ffn(LENGTHS, 768, 3072, mem=mem_plain)
        mem_fused = MemoryTracker(V100)
        ds.set_fusion(True)
        ds.ffn(LENGTHS, 768, 3072, mem=mem_fused)
        ds.set_fusion(False)
        assert mem_fused.current_bytes < mem_plain.current_bytes

    def test_non_fusing_backend_unaffected(self):
        pt = PyTorchBackend(V100)
        pt.set_fusion(True)  # PyTorch doesn't fuse; flag must not stick
        assert not pt._fusion_active


class TestTurbo:
    def test_rejects_non_bert(self):
        t = TurboTransformerBackend(V100)
        with pytest.raises(UnsupportedModelError, match="missing"):
            t.check_model("opt", 128)

    def test_rejects_long_sequences(self):
        t = TurboTransformerBackend(V100)
        with pytest.raises(UnsupportedModelError, match="crash"):
            t.check_model("bert", 4096)

    def test_no_moe(self):
        t = TurboTransformerBackend(V100)
        routing = Router(4, seed=0).route(64, (1,), seed=0)
        with pytest.raises(UnsupportedModelError):
            t.moe_ffn(routing, 64, 128)
