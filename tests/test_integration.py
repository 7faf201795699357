"""Integration tests: the full pipeline, end to end, plus cross-layer
invariants the unit tests cannot see.

These exercise compile -> detect -> execute -> verify for each dynamic
sparsity family, multi-device runs, and hypothesis properties of the
selection/cover machinery.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import PITBackend, PyTorchBackend
from repro.core import (
    PITCompiler,
    SampleStack,
    SparseMatmulKernel,
    TileDB,
    kernel_selection,
)
from repro.core.selection import dense_candidate
from repro.hw import A100, V100, TileConfig
from repro.models import (
    bert_workload,
    opt_inference_workload,
    switch_workload,
)
from repro.runtime import run_transformer
from repro.sparsity import granular_mask
from selection_oracle import naive_dense_workload


@pytest.fixture(scope="module")
def tiledb():
    return TileDB(V100, "float32")


class TestFullPipeline:
    """Compile -> online detect -> SRead/SWrite execute -> verify."""

    def test_activation_sparsity_pipeline(self):
        """OPT-style ReLU activations through the whole compiler."""
        rng = np.random.default_rng(0)
        from repro.sparsity import relu_activation_mask

        tokens, d_ff, d_model = 512, 1024, 256
        act_mask = relu_activation_mask(tokens, d_ff, 0.97, seed=1)
        act = np.abs(rng.standard_normal((tokens, d_ff))) * act_mask
        w2 = rng.standard_normal((d_ff, d_model))

        compiler = PITCompiler(V100)
        spec = compiler.plan_spec([act_mask], tokens, d_ff, d_model)
        compiled = compiler.compile(spec, [act_mask])
        result = compiled.run(act, w2, mask=act_mask)
        np.testing.assert_allclose(result.output, act @ w2, atol=1e-8)
        assert not compiled.choice.is_dense_fallback

    def test_padding_sparsity_pipeline(self):
        """Sequence padding: zero rows vanish from the computation."""
        rng = np.random.default_rng(1)
        lengths = [50, 120, 8, 77]
        max_len, d = 128, 64
        token_mask = np.concatenate([np.arange(max_len) < n for n in lengths])
        x = rng.standard_normal((len(lengths) * max_len, d)) * token_mask[:, None]
        w = rng.standard_normal((d, d))
        mask2d = np.repeat(token_mask[:, None], d, axis=1)

        compiler = PITCompiler(V100)
        spec = compiler.plan_spec([mask2d], len(lengths) * max_len, d, d)
        compiled = compiler.compile(spec, [mask2d])
        result = compiled.run(x, w, mask=mask2d)
        np.testing.assert_allclose(result.output, x @ w, atol=1e-8)

    def test_repeated_batches_recompile_free(self):
        """The kernel is reused across batches with fresh patterns; only
        the online index changes (Figure 20's lesson applied)."""
        compiler = PITCompiler(V100)
        shape = (512, 512)
        first = granular_mask(shape, (8, 1), 0.97, seed=0)
        spec = compiler.plan_spec([first], 512, 512, 512)
        compiled = compiler.compile(spec, [first])
        rng = np.random.default_rng(2)
        for seed in range(3):
            mask = granular_mask(shape, (8, 1), 0.97, seed=seed + 10)
            a = rng.standard_normal(shape) * mask
            b = rng.standard_normal((512, 256))
            out = compiled.run(a, b[:, :512] if False else b, mask=mask)
            np.testing.assert_allclose(out.output, a @ b, atol=1e-8)
        assert compiler.compile(spec) is compiled  # one kernel served all


class TestMultiDevice:
    def test_tensor_parallel_shards_weights(self):
        wl = opt_inference_workload("1.3b", 8, seed=0)
        single = run_transformer(wl, PITBackend(A100), devices=1)
        sharded = run_transformer(wl, PITBackend(A100), devices=8)
        assert sharded.peak_mem_gib < single.peak_mem_gib
        assert sharded.latency_ms < single.latency_ms

    def test_allreduce_cost_present(self):
        wl = bert_workload("mnli", 8, seed=0)
        rep = run_transformer(wl, PyTorchBackend(V100), devices=4)
        assert rep.timeline.by_op().get("tp.allreduce", 0) > 0

    def test_devices_validated(self):
        wl = bert_workload("mnli", 8, seed=0)
        with pytest.raises(ValueError):
            run_transformer(wl, PyTorchBackend(V100), devices=0)


class TestEngineDeterminism:
    def test_same_seed_same_report(self):
        a = run_transformer(switch_workload(64, 8, seed=3), PITBackend(A100))
        b = run_transformer(switch_workload(64, 8, seed=3), PITBackend(A100))
        assert a.latency_ms == pytest.approx(b.latency_ms)
        assert a.peak_mem_gib == pytest.approx(b.peak_mem_gib)

    def test_different_seed_different_lengths(self):
        a = run_transformer(bert_workload("mnli", 8, seed=1), PITBackend(V100))
        b = run_transformer(bert_workload("mnli", 8, seed=2), PITBackend(V100))
        assert a.latency_ms != pytest.approx(b.latency_ms)


class TestCoverProperties:
    """Hypothesis invariants of the cover/selection machinery."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        density=st.floats(0.01, 0.9),
        tm=st.sampled_from([8, 16, 32]),
        tk=st.sampled_from([8, 16, 32]),
    )
    def test_sparse_workload_never_exceeds_dense(self, seed, density, tm, tk):
        """CoverAlgo can only remove work, never add it."""
        rng = np.random.default_rng(seed)
        mask = rng.random((128, 128)) < density
        tile = TileConfig(tm, tk, 32)
        dense_steps, dense_tiles = naive_dense_workload(128, 128, 64, tile)
        a, b = np.ones((128, 128)), np.ones((128, 64))
        for axis in ("m", "k"):
            kernel = SparseMatmulKernel(tile, axis, V100)
            detail = kernel.run(a, b, mask=mask).report.detail
            assert detail["k_steps"] <= dense_steps
            assert detail["output_tiles"] <= dense_tiles

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), density=st.floats(0.005, 0.3))
    def test_selection_estimate_bounded_by_dense(self, seed, density, tiledb):
        """Algorithm 1 (with fallback) never chooses worse than dense."""
        rng = np.random.default_rng(seed)
        mask = rng.random((256, 256)) < density
        choice = kernel_selection([mask], 256, 256, 256, tiledb)
        _, dense_cost = dense_candidate(256, 256, 256, tiledb)
        assert choice.est_cost_us <= dense_cost * 1.0001

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_stacked_workload_matches_one_sample_stacks(self, seed):
        """A sample's workload does not depend on what it is stacked with,
        nor on which grids its pyramid already holds."""
        rng = np.random.default_rng(seed)
        masks = [rng.random((96, 96)) < p for p in (0.2, 0.05)]
        tile = TileConfig(16, 16, 16)
        stack = SampleStack(masks)
        for axis in ("m", "k"):
            table = SparseMatmulKernel(tile, axis, V100)._table
            stacked = table.count(stack)
            for s, mask in enumerate(masks):
                alone = table.count(SampleStack([mask]))
                for got, want in zip(stacked[:3], alone[:3]):
                    assert got[0, s] == want[0, 0]

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        sparsity=st.floats(0.5, 0.99),
    )
    def test_covered_sparsity_decreases_with_microtile_size(self, seed, sparsity):
        """Bigger covers can only look denser (fewer all-zero cells)."""
        from repro.core import covered_sparsity

        mask = granular_mask((256, 256), (2, 1), sparsity, seed=seed)
        small = covered_sparsity(mask, (4, 1))
        large = covered_sparsity(mask, (32, 1))
        assert large <= small + 1e-12
