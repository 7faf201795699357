"""Tests for the model-level backends (padding/conversion/fusion semantics)."""

import math

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
from repro.baselines.turbo import TURBO_BUCKETS
from repro.hw import A100, V100, MemoryTracker
from repro.hw.costmodel import elementwise_time_us
from repro.sparsity import Router, RoutingResult, longformer_mask_stats


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


class TestMoE:
    @pytest.fixture()
    def routing(self):
        return Router(64, concentration=0.4, seed=0).route(4096, seed=1)

    def test_ordering_matches_figure8(self, routing):
        """PIT < MegaBlocks < DeepSpeed < Tutel; PyTorch worst or near."""
        d, f = 768, 3072
        pit = total_us(PITBackend(A100, "float16").moe_ffn(routing, d, f))
        mb = total_us(MegaBlocksBackend(A100, "float16").moe_ffn(routing, d, f))
        ds = total_us(DeepSpeedBackend(A100, "float16").moe_ffn(routing, d, f))
        tu = total_us(TutelBackend(A100, "float16").moe_ffn(routing, d, f))
        pt = total_us(PyTorchBackend(A100, "float16").moe_ffn(routing, d, f))
        assert pit < mb < tu
        assert pit < ds < tu
        assert pit < pt

    def test_tutel_memory_scales_with_imbalance(self, routing):
        mem = MemoryTracker(A100)
        TutelBackend(A100, "float16").moe_ffn(routing, 768, 3072, mem=mem)
        padded = routing.num_experts * routing.max_tokens_per_expert
        assert mem.current_bytes >= padded * 3072 * 2  # fp16 hidden buffer

    def test_megablocks_fp32_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            MegaBlocksBackend(A100, "float32")

    def test_pit_cost_tracks_total_tokens_not_max(self):
        even = Router(8, concentration=100.0, seed=0).route(4096, seed=0)
        skew = Router(8, concentration=0.05, seed=4).route(4096, seed=0)
        pit = PITBackend(A100, "float16")
        t_even = total_us(pit.moe_ffn(even, 768, 3072))
        t_skew = total_us(pit.moe_ffn(skew, 768, 3072))
        assert t_skew < 2.0 * t_even
        tutel = TutelBackend(A100, "float16")
        assert total_us(tutel.moe_ffn(skew, 768, 3072)) > 2.0 * total_us(
            tutel.moe_ffn(even, 768, 3072)
        )


def pit_moe_ffn_oracle(backend, routing, d_model, d_ff):
    """``PITBackend.moe_ffn``'s latency, convert time and tile before its
    tile sums were vectorized: one Python step per live expert."""
    tile = backend.tiledb.best_dense_tile(
        max(32, routing.num_tokens // max(1, routing.num_experts)),
        d_model, d_ff,
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
    detector = backend._detector_us(routing.num_tokens, 1, routing.num_tokens)
    up = backend._tiled_matmul_us(steps_up, tiles_up, tile)
    act = elementwise_time_us(
        routing.num_tokens * d_ff, backend.dtype, backend.spec
    )
    down = backend._tiled_matmul_us(steps_down, tiles_down, tile)
    return up + act + down + detector, detector, tile.describe()


class TestPITMoEOracle:
    #: Devices and precisions with different profiled tile sets.
    BACKENDS = (PITBackend(V100), PITBackend(A100, "float16"), PITBackend(A100))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(0, 3000), min_size=1, max_size=128),
        st.integers(0, 500),
        st.sampled_from(BACKENDS),
        st.sampled_from([(768, 3072), (1024, 4096), (96, 200), (512, 1000)]),
    )
    def test_moe_ffn_matches_the_per_expert_loop(
        self, counts, dropped, backend, dims
    ):
        """Zero and single-expert routings, capped routings (tokens that
        reached the layer but no expert) and assorted tile shapes."""
        counts = np.array(counts)
        routing = RoutingResult(counts, int(counts.sum()) + dropped)
        (report,) = backend.moe_ffn(routing, *dims)
        latency, convert, tile = pit_moe_ffn_oracle(backend, routing, *dims)
        assert report.latency_us == latency
        assert report.convert_us == convert
        assert report.detail == {"tile": tile}


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
        routing = Router(4, seed=0).route(64, seed=0)
        with pytest.raises(UnsupportedModelError):
            t.moe_ffn(routing, 64, 128)
