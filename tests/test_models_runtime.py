"""Tests for the model zoo, functional references, and the runtime engine."""

import numpy as np
import pytest

from repro.baselines import (
    PITBackend,
    PyTorchBackend,
    TurboTransformerBackend,
    TutelBackend,
)
from repro.hw import A100, V100
from repro.models import (
    TABLE2,
    LayerWeights,
    attention_block,
    bert_base,
    encoder_layer,
    ffn_block,
    bert_workload,
    longformer,
    longformer_workload,
    moe_layer_grouped,
    moe_layer_reference,
    museformer_workload,
    opt,
    opt_inference_workload,
    swin_moe_workload,
    switch_transformer,
    switch_workload,
)
from repro.runtime import (
    format_table,
    run_lineup,
    run_transformer,
    sparse_training_step,
)
from repro.sparsity import longformer_mask
from repro.tensor.ops import layernorm


class TestConfigs:
    def test_bert_base_shape(self):
        cfg = bert_base()
        assert (cfg.n_layers, cfg.d_model, cfg.heads, cfg.d_ff) == (12, 768, 12, 3072)
        assert cfg.head_dim == 64

    def test_opt_sizes(self):
        assert opt("13b").d_model == 5120
        assert opt("30b").n_layers == 48
        assert opt("125m").activation == "relu"
        with pytest.raises(KeyError):
            opt("7b")

    def test_switch_moe_layers(self):
        cfg = switch_transformer(64)
        assert cfg.num_moe_layers() == 12  # every other layer of 24
        assert cfg.moe.num_experts == 64

    def test_param_count_scales_with_experts(self):
        assert switch_transformer(128).param_count() > switch_transformer(
            64
        ).param_count()

    def test_longformer_attention_spec(self):
        assert longformer("base").attention.kind == "longformer"
        with pytest.raises(KeyError):
            longformer("xl")

    def test_table2_covers_all_models(self):
        assert len(TABLE2) == 6


class TestFunctionalEquivalence:
    """Permutation invariance at layer level: grouped PIT MoE execution ==
    per-token loop; a shuffled or padded token order == the in-order
    encoder layer."""

    def test_moe_grouped_equals_reference(self):
        rng = np.random.default_rng(2)
        tokens = rng.standard_normal((40, 8))
        w1 = rng.standard_normal((4, 8, 16))
        w2 = rng.standard_normal((4, 16, 8))
        assignment = rng.integers(0, 4, size=40)
        ref = moe_layer_reference(tokens, w1, w2, assignment)
        grouped = moe_layer_grouped(tokens, w1, w2, assignment, seed=11)
        np.testing.assert_allclose(ref, grouped, atol=1e-10)

    def test_moe_grouped_with_an_idle_expert(self):
        rng = np.random.default_rng(6)
        tokens = rng.standard_normal((30, 8))
        w1 = rng.standard_normal((5, 8, 16))
        w2 = rng.standard_normal((5, 16, 8))
        assignment = rng.integers(0, 4, size=30)  # expert 4 gets no token
        ref = moe_layer_reference(tokens, w1, w2, assignment)
        grouped = moe_layer_grouped(tokens, w1, w2, assignment, seed=3)
        np.testing.assert_allclose(ref, grouped, atol=1e-10)

    @pytest.mark.parametrize("mask_kind", ["none", "causal", "longformer", "random"])
    def test_encoder_layer_is_token_permutation_equivariant(self, mask_kind):
        """Shuffle the tokens, and the mask's rows and columns with them:
        the layer's output rows come out shuffled the same way."""
        rng = np.random.default_rng(3)
        s, d_model, heads = 24, 16, 4
        x = rng.standard_normal((s, d_model))
        w = LayerWeights.random(d_model, 32, seed=4)
        mask = {
            "none": None,
            "causal": np.tril(np.ones((s, s), dtype=bool)),
            "longformer": longformer_mask(s, 6, num_global=2, seed=5),
            "random": (rng.random((s, s)) < 0.3) | np.eye(s, dtype=bool),
        }[mask_kind]
        perm = rng.permutation(s)
        reference = encoder_layer(x, w, heads, attn_mask=mask)
        shuffled = encoder_layer(
            x[perm], w, heads,
            attn_mask=None if mask is None else mask[np.ix_(perm, perm)],
        )
        np.testing.assert_allclose(shuffled, reference[perm], atol=1e-10)

    @pytest.mark.parametrize("causal", [False, True], ids=["bidirectional", "causal"])
    def test_padding_to_the_batch_maximum_changes_no_real_row(self, causal):
        """Dynamic sequence length (Figure 2c): a sequence padded to the
        batch maximum, its padding keys masked out, computes exactly the
        unpadded sequence's rows — the padding is wasted work only."""
        rng = np.random.default_rng(0)
        d_model, heads, batch_max = 32, 4, 12
        w = LayerWeights.random(d_model, 64, seed=1)
        tril = np.tril(np.ones((batch_max, batch_max), dtype=bool))
        for s in (5, 9, 3, 12):
            x = rng.standard_normal((s, d_model))
            padded = np.vstack([x, rng.standard_normal((batch_max - s, d_model))])
            mask = np.zeros((batch_max, batch_max), dtype=bool)
            mask[:, :s] = True
            if causal:
                mask &= tril
            out = encoder_layer(padded, w, heads, attn_mask=mask)[:s]
            own = tril[:s, :s] if causal else None
            np.testing.assert_allclose(
                out, encoder_layer(x, w, heads, attn_mask=own), atol=1e-10
            )

    def test_all_true_mask_equals_no_mask(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((10, 16))
        w = LayerWeights.random(16, 32, seed=9)
        np.testing.assert_array_equal(
            attention_block(x, w, 4, attn_mask=np.ones((10, 10), dtype=bool)),
            attention_block(x, w, 4),
        )

    def test_self_only_mask_reduces_attention_to_its_projections(self):
        """Under an identity mask every softmax row is one-hot on the token
        itself, so attention is the value then the output projection."""
        rng = np.random.default_rng(10)
        x = rng.standard_normal((10, 16))
        w = LayerWeights.random(16, 32, seed=11)
        np.testing.assert_allclose(
            attention_block(x, w, 4, attn_mask=np.eye(10, dtype=bool)),
            x @ w.wv @ w.wo,
            atol=1e-12,
        )

    def test_a_token_that_attends_to_nothing_keeps_its_residual(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((10, 16))
        w = LayerWeights.random(16, 32, seed=13)
        mask = np.ones((10, 10), dtype=bool)
        mask[2] = False
        out = encoder_layer(x, w, 4, attn_mask=mask)
        row = x[2:3]
        np.testing.assert_allclose(
            out[2:3], row + ffn_block(layernorm(row, w.ln2_g, w.ln2_b), w), atol=1e-12
        )


class TestWorkloads:
    def test_bert_workload_lengths(self):
        wl = bert_workload("mnli", 32, seed=0)
        assert wl.batch_size == 32
        assert wl.max_len <= wl.config.max_seq

    def test_switch_workload_has_routing(self):
        wl = switch_workload(64, 8, seed=0)
        routing = wl.routing
        assert routing.layers == tuple(range(1, 24, 2))
        assert routing.counts.shape == (12, 64)
        padded = wl.batch_size * wl.max_len
        assert routing.num_tokens == padded
        assert (routing.counts.sum(axis=1) == padded).all()

    def test_opt_workload_act_sparsity(self):
        wl = opt_inference_workload("125m", 8, act_sparsity=0.99, seed=0)
        assert wl.act_sparsity == 0.99
        assert wl.config.causal

    def test_longformer_workload_stats(self):
        wl = longformer_workload("base", 2048, seed=0)
        assert wl.attn_stats.seq == 2048
        assert 0 < wl.attn_stats.density < 0.6

    def test_swin_fixed_lengths(self):
        wl = swin_moe_workload(8, 16, seed=0)
        assert (wl.lengths == 196).all()

    def test_museformer_workload(self):
        wl = museformer_workload(1024, seed=0)
        assert wl.attn_stats.seq == 1024


class TestEngine:
    def test_inference_report_fields(self):
        wl = bert_workload("sst2", 8, seed=0)
        rep = run_transformer(wl, PITBackend(V100))
        assert rep.ok and rep.latency_ms > 0
        assert rep.peak_mem_gib > 0
        assert rep.convert_ms < rep.latency_ms

    def test_pit_beats_pytorch_on_bert(self):
        wl = bert_workload("mnli", 32, seed=0)
        pt = run_transformer(wl, PyTorchBackend(V100))
        pit = run_transformer(wl, PITBackend(V100))
        assert pit.latency_ms < pt.latency_ms

    def test_training_costs_more_than_inference(self):
        wl = bert_workload("mnli", 8, seed=0)
        b = PyTorchBackend(V100)
        inf = run_transformer(wl, b, mode="inference")
        train = run_transformer(wl, b, mode="training")
        assert train.latency_ms > 2 * inf.latency_ms
        assert train.peak_mem_gib > inf.peak_mem_gib

    def test_tutel_oom_at_many_experts(self):
        """Figure 8: Tutel runs out of memory at large expert counts."""
        wl = switch_workload(256, 32, seed=0)
        rep = run_transformer(wl, TutelBackend(A100, "float32"))
        assert rep.oom

    def test_turbo_unsupported_on_switch(self):
        wl = switch_workload(64, 8, seed=0)
        rep = run_transformer(wl, TurboTransformerBackend(A100))
        assert rep.unsupported

    def test_run_lineup_handles_unsupported_dtype(self):
        wl = switch_workload(64, 8, seed=0)
        reports = run_lineup(wl, ["MegaBlocks", "PIT"], A100, "float32")
        by_name = {r.backend: r for r in reports}
        assert by_name["MegaBlocks"].unsupported
        assert by_name["PIT"].ok

    def test_bad_mode_rejected(self):
        wl = bert_workload("cola", 4, seed=0)
        with pytest.raises(ValueError):
            run_transformer(wl, PyTorchBackend(V100), mode="eval")


class TestTensorParallel:
    @staticmethod
    def _allreduce_us(devices):
        wl = bert_workload("mnli", 8, seed=0)
        rep = run_transformer(wl, PyTorchBackend(V100), devices=devices)
        return rep.timeline.by_op()["tp.allreduce"]

    def test_allreduce_cost_monotone_in_devices(self):
        """Ring allreduce moves 2*(d-1)/d of the payload per direction:
        wider tensor parallelism must pay strictly more communication."""
        costs = [self._allreduce_us(d) for d in (2, 4, 8)]
        assert costs[0] < costs[1] < costs[2]

    def test_allreduce_matches_ring_formula(self):
        c2, c8 = self._allreduce_us(2), self._allreduce_us(8)
        # 2-way moves 1.0x the payload per allreduce, 8-way moves 1.75x.
        assert c8 / c2 == pytest.approx(1.75, rel=1e-6)

    def test_replicated_ops_do_not_shard(self):
        """Megatron-style TP replicates layernorm/residual on every rank at
        full size; only the weight-bearing matmuls divide by the device
        count."""
        wl = bert_workload("mnli", 8, seed=0)
        one = run_transformer(wl, PyTorchBackend(V100), devices=1)
        four = run_transformer(wl, PyTorchBackend(V100), devices=4)
        ops1, ops4 = one.timeline.by_op(), four.timeline.by_op()
        for op in ("layernorm", "residual"):
            assert ops4[op] == pytest.approx(ops1[op])
        for op in ("attn.q", "attn.proj", "ffn.in", "ffn.out", "attn.qk"):
            assert ops4[op] == pytest.approx(ops1[op] / 4)


class TestLineupBackends:
    def test_unknown_backend_costs_one_report(self):
        """An unknown backend name must cost one failure report, not the
        whole lineup."""
        wl = bert_workload("cola", 4, seed=0)
        reports = run_lineup(wl, ["NoSuchBackend", "PIT"], V100)
        by_name = {r.backend: r for r in reports}
        assert by_name["NoSuchBackend"].unsupported
        assert "unknown backend" in by_name["NoSuchBackend"].error
        assert by_name["PIT"].ok

    def test_plan_cache_threads_to_accepting_backends(self):
        """A lineup-level plan cache reaches backends whose constructor
        accepts one (PIT) and is silently skipped for those that don't."""
        from repro.core import PlanCache

        wl = opt_inference_workload("125m", 2, seed=0)
        cache = PlanCache()
        reports = run_lineup(wl, ["PyTorch", "PIT"], V100, plan_cache=cache)
        assert all(r.ok for r in reports)
        assert cache.misses > 0  # PIT memoized its plans in the shared cache
        misses = cache.misses
        run_lineup(wl, ["PyTorch", "PIT"], V100, plan_cache=cache)
        assert cache.misses == misses  # second lineup fully warm
        assert cache.stats()["hits"] > 0


class TestSparseTraining:
    def test_pit_fastest_at_fine_granularity(self):
        """Figure 15's 32x1 panel: PIT > PyTorch > PyTorch-S."""
        kwargs = dict(block=(32, 1), sparsity=0.9, batch_tokens=1024, seed=0)
        pit = sparse_training_step("pit", V100, **kwargs)
        pt = sparse_training_step("pytorch", V100, **kwargs)
        pts = sparse_training_step("pytorch-s", V100, **kwargs)
        assert pit.latency_ms < pt.latency_ms < pts.latency_ms

    def test_pytorch_s_convert_heavy(self):
        r = sparse_training_step(
            "pytorch-s", V100, block=(32, 64), sparsity=0.9, batch_tokens=1024
        )
        assert r.convert_ms > 0.2 * r.latency_ms

    def test_pit_memory_drops_with_sparsity(self):
        lo = sparse_training_step("pit", V100, block=(32, 1), sparsity=0.5)
        hi = sparse_training_step("pit", V100, block=(32, 1), sparsity=0.98)
        assert hi.mem_gib < lo.mem_gib

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            sparse_training_step("jax", V100)


class TestReportFormatting:
    def test_format_table(self):
        out = format_table(
            ["name", "ms"], [["PIT", 1.5], ["PyTorch", 12.0]], title="t"
        )
        assert "PIT" in out and "12.0" in out and out.startswith("t")
