"""Tests for the TileDB, Algorithm 1 selection, rules, compiler and policies."""

import numpy as np
import pytest

from repro.core import (
    DenseMatmulKernel,
    PagedAttentionPolicy,
    PITCompiler,
    PlanCache,
    Planner,
    SparseMatmulKernel,
    TileDB,
    kernel_from_choice,
    kernel_selection,
    matmul_axes_for_operand,
    matmul_rules,
    sparsity_signature,
)
from repro.sparsity.attention import SIGNATURE_QUANTUM
from repro.core.cover import SampleStack, covered_sparsity
from repro.core.detector import index_construction_time_us
from repro.core.selection import _covered_sparsity, _rule_table
from repro.hw import A100, V100
from repro.hw.costmodel import sparse_matmul_time_us
from repro.hw.spec import dtype_bytes
from selection_oracle import NaiveCovers, naive_workload, oracle_kernel_selection


def granular_mask(shape, granularity, sparsity, seed=0):
    gh, gw = granularity
    rng = np.random.default_rng(seed)
    grid = rng.random((shape[0] // gh, shape[1] // gw)) >= sparsity
    return np.kron(grid, np.ones(granularity, dtype=bool))


@pytest.fixture(scope="module")
def tiledb():
    return TileDB(V100, "float32")


class TestTileDB:
    def test_nonempty(self, tiledb):
        assert len(tiledb.tiles()) >= 10

    def test_tile_cost_affine(self, tiledb):
        entry = tiledb.tiles()[0]
        c1 = entry.tile_cost_us(entry.tile.tk)
        c2 = entry.tile_cost_us(2 * entry.tile.tk)
        c3 = entry.tile_cost_us(3 * entry.tile.tk)
        assert c2 - c1 == pytest.approx(c3 - c2, rel=1e-6)

    def test_best_dense_tile_prefers_large(self, tiledb):
        best = tiledb.best_dense_tile(4096, 4096, 4096)
        assert best.tile.output_elems >= 32 * 32

class TestRules:
    def test_axes_for_operand(self):
        assert set(matmul_axes_for_operand("A")) == {"m", "k"}
        assert set(matmul_axes_for_operand("B")) == {"n", "k"}
        with pytest.raises(ValueError):
            matmul_axes_for_operand("C")

    def test_rules_cover_tiles_times_axes(self, tiledb):
        rules = matmul_rules(tiledb.tiles(), sparse_operand="A")
        assert len(rules) == 2 * len(tiledb.tiles())

    def test_rule_microtile_matches_axis(self, tiledb):
        for rule in matmul_rules(tiledb.tiles()[:4]):
            if rule.pit_axis == "m":
                assert rule.microtile.shape == (1, rule.tile.tk)
            else:
                assert rule.microtile.shape == (rule.tile.tm, 1)

class TestKernelSelection:
    def test_high_sparsity_picks_sparse(self, tiledb):
        mask = granular_mask((1024, 1024), (8, 1), 0.99, seed=0)
        choice = kernel_selection([mask], 1024, 1024, 1024, tiledb)
        assert not choice.is_dense_fallback
        assert choice.est_cost_us > 0
        assert choice.covered_sparsity > 0.5

    def test_dense_input_falls_back(self, tiledb):
        """Algorithm 1: at low sparsity PIT 'seamlessly falls back to the
        dense computation'."""
        mask = np.ones((512, 512), dtype=bool)
        choice = kernel_selection([mask], 512, 512, 512, tiledb)
        assert choice.is_dense_fallback

    def test_row_granular_prefers_m_axis(self, tiledb):
        """Whole zero rows (padding tokens) are best removed on the m-axis."""
        mask = np.zeros((1024, 1024), dtype=bool)
        rng = np.random.default_rng(1)
        rows = rng.choice(1024, size=100, replace=False)
        mask[rows] = True
        choice = kernel_selection([mask], 1024, 1024, 1024, tiledb)
        assert choice.pit_axis == "m"

    def test_column_granular_prefers_k_axis(self, tiledb):
        mask = np.zeros((1024, 1024), dtype=bool)
        rng = np.random.default_rng(2)
        cols = rng.choice(1024, size=100, replace=False)
        mask[:, cols] = True
        choice = kernel_selection([mask], 1024, 1024, 1024, tiledb)
        assert choice.pit_axis == "k"

    def test_multiple_samples_averaged(self, tiledb):
        masks = [granular_mask((512, 512), (8, 1), 0.95, seed=s) for s in range(3)]
        choice = kernel_selection(masks, 512, 512, 512, tiledb)
        assert choice.est_cost_us > 0

    def test_sample_shape_validated(self, tiledb):
        with pytest.raises(ValueError):
            kernel_selection([np.ones((4, 4), dtype=bool)], 512, 512, 512, tiledb)

    def test_needs_samples(self, tiledb):
        with pytest.raises(ValueError):
            kernel_selection([], 512, 512, 512, tiledb)

    def test_search_time_recorded(self, tiledb):
        mask = granular_mask((256, 256), (2, 1), 0.9, seed=3)
        choice = kernel_selection([mask], 256, 256, 256, tiledb)
        assert choice.search_time_us > 0


class TestFastpathEquivalence:
    """The pyramid/batched fast path must agree with the pre-pyramid
    per-sample loop (``tests/selection_oracle.py``) bit for bit: same
    winning rule, cost and covered sparsity — only the search time may
    differ."""

    def _assert_equivalent(self, fast, slow):
        assert fast.tile == slow.tile
        assert fast.pit_axis == slow.pit_axis
        assert fast.microtile == slow.microtile
        assert fast.est_cost_us == slow.est_cost_us
        assert fast.covered_sparsity == slow.covered_sparsity

    @pytest.mark.parametrize(
        "granularity,sparsity",
        [((1, 1), 0.99), ((8, 1), 0.95), ((1, 8), 0.9), ((4, 4), 0.8)],
    )
    def test_sparse_a(self, tiledb, granularity, sparsity):
        masks = [
            granular_mask((256, 512), granularity, sparsity, seed=s)
            for s in range(3)
        ]
        fast = kernel_selection(masks, 256, 512, 384, tiledb)
        slow = oracle_kernel_selection(masks, 256, 512, 384, tiledb)
        self._assert_equivalent(fast, slow)

    def test_sparse_b(self, tiledb):
        masks = [granular_mask((512, 256), (1, 4), 0.95, seed=s)
                 for s in range(2)]
        fast = kernel_selection(
            masks, 128, 512, 256, tiledb, sparse_operand="B"
        )
        slow = oracle_kernel_selection(
            masks, 128, 512, 256, tiledb, sparse_operand="B"
        )
        self._assert_equivalent(fast, slow)

    @pytest.mark.parametrize(
        "shape,granularity,sparsity",
        [((2048, 2048), (1, 64), 0.95), ((512, 256), (64, 1), 0.95),
         ((512, 256), (1, 4), 0.9), ((256, 384), (4, 4), 0.8)],
    )
    def test_sparse_b_covered_sparsity_is_the_raw_masks(
        self, tiledb, shape, granularity, sparsity
    ):
        """A sparse B's micro-tile is in B's own ``[k, n]`` coordinates:
        the choice's covered sparsity is that micro-tile's cover of the raw
        B masks, averaged over the samples."""
        k, n = shape
        masks = [granular_mask(shape, granularity, sparsity, seed=s)
                 for s in range(2)]
        choice = kernel_selection(
            masks, 128, k, n, tiledb, sparse_operand="B",
            include_dense_fallback=False,
        )
        expected = sum(
            covered_sparsity(mask, choice.microtile.shape) for mask in masks
        ) / len(masks)
        assert choice.covered_sparsity == pytest.approx(expected, abs=1e-12)

    def test_dense_fallback_agrees(self, tiledb):
        mask = np.ones((256, 256), dtype=bool)
        fast = kernel_selection([mask], 256, 256, 256, tiledb)
        slow = oracle_kernel_selection([mask], 256, 256, 256, tiledb)
        assert fast.is_dense_fallback and slow.is_dense_fallback
        assert fast.tile == slow.tile

    def test_profile_hook_reports_search_stages(self, tiledb):
        """All rules are scored in one array pass, so the profile reports
        the search's stages (cover, then score) and each rule's mean
        cost, not a per-rule timing."""
        mask = granular_mask((256, 256), (8, 1), 0.95)
        profile = {}
        choice = kernel_selection(
            [mask], 256, 256, 256, tiledb, profile=profile
        )
        assert profile["num_samples"] == 1
        assert profile["num_rules"] == len(profile["rules"]) == 2 * len(tiledb.tiles())
        assert profile["cover_us"] > 0 and profile["score_us"] > 0
        assert profile["total_us"] == choice.search_time_us
        assert profile["cover_us"] + profile["score_us"] == pytest.approx(
            profile["total_us"]
        )
        assert not any("eval_us" in r for r in profile["rules"])
        # The winning rule's mean cost is the reported estimate unless the
        # dense fallback won.
        best = min(profile["rules"], key=lambda r: r["mean_cost_us"])
        assert best["mean_cost_us"] > 0
        if not choice.is_dense_fallback:
            assert best["mean_cost_us"] == choice.est_cost_us
            assert best["microtile"] == str(choice.microtile)


class TestArrayEvaluator:
    """Algorithm 1 scores every (rule, sample) pair in one ``[R, S]`` array
    pass; each entry must equal the scalar cost model on the oracle's
    naive workload bit for bit, and its covered sparsity must be the
    rule's micro-tile cover of the raw mask."""

    @pytest.mark.parametrize("spec", [V100, A100], ids=lambda s: s.name)
    @pytest.mark.parametrize(
        "dtype,tensor_core", [("float32", False), ("float16", True)]
    )
    @pytest.mark.parametrize("operand", ["A", "B"])
    def test_equals_the_scalar_cost_model(self, spec, dtype, tensor_core,
                                          operand):
        db = TileDB(spec, dtype, tensor_core=tensor_core)
        rules, table = _rule_table(db, operand)
        assert len(rules) == 2 * len(db.tiles())
        rng = np.random.default_rng(31)
        shape, extent = (200, 300), 170
        masks = [rng.random(shape) < p for p in (0.02, 0.3)]
        masks.append(granular_mask(shape, (8, 1), 0.9, seed=5))
        counts = table.count(SampleStack(masks))
        covers = [NaiveCovers(mask) for mask in masks]
        contig_unit = dtype_bytes(dtype)
        for include_detector in (True, False):
            costs = table.price(
                counts, shape, extent, include_detector=include_detector
            )
            for r, rule in enumerate(rules):
                for s, cover in enumerate(covers):
                    steps, out_tiles, micro, _ = naive_workload(
                        cover, rule.tile, rule.pit_axis, extent, operand
                    )
                    detector = (
                        index_construction_time_us(shape, dtype, spec, micro)
                        if include_detector else 0.0
                    )
                    scalar = sparse_matmul_time_us(
                        steps, out_tiles, rule.tile, dtype, spec,
                        tensor_core=tensor_core,
                        sread_contig_bytes=(
                            max(rule.microtile.shape) * contig_unit
                        ),
                        detector_us=detector,
                    )
                    assert costs[r, s] == scalar, (rule, s, include_detector)
        covs = _covered_sparsity(counts)
        for r, rule in enumerate(rules):
            for s, mask in enumerate(masks):
                assert covs[r, s] == covered_sparsity(
                    mask, rule.microtile.shape
                ), (rule, s)

    def test_rule_tables_are_built_once_per_operand(self):
        db = TileDB(V100, "float32")
        mask = granular_mask((256, 256), (8, 1), 0.95)
        kernel_selection([mask], 256, 256, 256, db)
        table_a = _rule_table(db, "A")
        kernel_selection([mask], 256, 256, 256, db)
        kernel_selection([mask], 256, 256, 256, db, sparse_operand="B")
        assert _rule_table(db, "A") is table_a
        assert set(db._rule_tables) == {"A", "B"}


class TestSignatureSinglePass:
    def test_matches_three_pass_reference(self):
        """The fused per-sample reduction must reproduce the original
        three-scan statistics exactly — signatures key the PlanCache, so a
        drifting value would silently split cached plans."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            s = rng.random((63, 41)) < rng.uniform(0.0, 0.5)
            qinv = 1.0 / SIGNATURE_QUANTUM
            ref = (
                int(round(float(np.mean([s.mean()])) * qinv)),
                int(round(float(np.mean([s.any(axis=1).mean()])) * qinv)),
                int(round(float(np.mean([s.any(axis=0).mean()])) * qinv)),
            )
            assert sparsity_signature([s]) == ref


class _NoRulesTileDB:
    """A tile database whose rule enumeration comes up empty — the shape of
    the regression: ``best`` stayed None and ``best.pit_axis`` crashed."""

    def __init__(self, real):
        self._real = real
        self.spec = real.spec
        self.dtype = real.dtype
        self.tensor_core = real.tensor_core
        self.cache_key = ("no-rules",) + real.cache_key
        # Algorithm 1 memoizes its rule tables on the tile database.
        self._rule_tables = {}

    def tiles(self):
        return []

    def best_dense_tile(self, m, k, n):
        return self._real.best_dense_tile(m, k, n)


class TestSelectionNoCandidates:
    def test_no_candidates_without_fallback_raises(self, tiledb):
        mask = granular_mask((128, 128), (8, 1), 0.9)
        with pytest.raises(ValueError, match="no feasible PIT rule"):
            kernel_selection(
                [mask], 128, 128, 128, _NoRulesTileDB(tiledb),
                include_dense_fallback=False,
            )

    def test_no_candidates_forces_dense_fallback(self, tiledb):
        mask = granular_mask((128, 128), (8, 1), 0.9)
        choice = kernel_selection([mask], 128, 128, 128, _NoRulesTileDB(tiledb))
        assert choice.is_dense_fallback
        assert choice.tile is not None
        assert choice.est_cost_us < float("inf")


def planned(planner, masks, m, k, n, **spec_kwargs):
    """The plan ``planner`` resolves for ``masks`` of an ``[m,k,n]`` proj."""
    spec = planner.make_spec("proj", masks, m, k, n, **spec_kwargs)
    return planner.resolve(spec, lambda: masks).choice


class TestPlanCache:
    def test_hit_on_statistically_alike_masks(self, tiledb):
        """Two different masks with the same quantized signature share a
        plan: the second lookup must not re-run Algorithm 1."""
        cache = PlanCache()
        planner = Planner(tiledb, cache)
        m1 = granular_mask((512, 512), (8, 1), 0.95, seed=0)
        m2 = granular_mask((512, 512), (8, 1), 0.95, seed=7)
        assert not np.array_equal(m1, m2)
        assert sparsity_signature([m1]) == sparsity_signature([m2])
        c1 = planned(planner, [m1], 512, 512, 512)
        c2 = planned(planner, [m2], 512, 512, 512)
        assert c1 is c2
        assert cache.stats()["hits"] == 1 and cache.misses == 1

    def test_miss_on_sparsity_drift(self, tiledb):
        """Density drifting past the quantization threshold is a new plan."""
        cache = PlanCache()
        planner = Planner(tiledb, cache)
        sparse = granular_mask((512, 512), (8, 1), 0.95, seed=0)
        denser = granular_mask((512, 512), (8, 1), 0.60, seed=0)
        assert sparsity_signature([sparse]) != sparsity_signature([denser])
        planned(planner, [sparse], 512, 512, 512)
        planned(planner, [denser], 512, 512, 512)
        assert cache.misses == 2 and cache.stats()["hits"] == 0

    def test_miss_on_shape_or_operand_change(self, tiledb):
        cache = PlanCache()
        planner = Planner(tiledb, cache)
        mask = granular_mask((256, 256), (8, 1), 0.95)
        planned(planner, [mask], 256, 256, 256)
        planned(planner, [mask], 256, 256, 512)
        planned(planner, [mask], 256, 256, 256, sparse_operand="B")
        assert cache.misses == 3 and cache.stats()["hits"] == 0

    def test_lru_eviction_bound(self, tiledb):
        cache = PlanCache()
        planner = Planner(tiledb, cache)
        mask = granular_mask((256, 256), (8, 1), 0.95)
        planned(planner, [mask], 256, 256, 128)
        for i in range(PlanCache.CAPACITY):
            cache.put(("ad-hoc", i), i)
        assert len(cache) == PlanCache.CAPACITY
        assert cache.stats()["evictions"] == 1
        # The oldest entry (the plan) was evicted: resolving it misses again.
        misses = cache.misses
        planned(planner, [mask], 256, 256, 128)
        assert cache.misses == misses + 1

    def test_lru_refresh_on_hit(self, tiledb):
        cache = PlanCache()
        planner = Planner(tiledb, cache)
        mask = granular_mask((256, 256), (8, 1), 0.95)
        planned(planner, [mask], 256, 256, 128)
        for i in range(PlanCache.CAPACITY - 1):
            cache.put(("ad-hoc", i), i)
        planned(planner, [mask], 256, 256, 128)  # hit: now most recent
        cache.put(("ad-hoc", "one more"), 0)
        # ("ad-hoc", 0) was least recently used, so the plan stays cached.
        assert ("ad-hoc", 0) not in cache
        hits = cache.stats()["hits"]
        planned(planner, [mask], 256, 256, 128)
        assert cache.stats()["hits"] == hits + 1

    def test_stats_and_hit_rate(self, tiledb):
        cache = PlanCache()
        planner = Planner(tiledb, cache)
        mask = granular_mask((256, 256), (8, 1), 0.95)
        planned(planner, [mask], 256, 256, 256)
        planned(planner, [mask], 256, 256, 256)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_kernel_from_choice_matches_selection(self, tiledb):
        mask = granular_mask((512, 512), (8, 1), 0.99)
        choice = kernel_selection([mask], 512, 512, 512, tiledb)
        kernel = kernel_from_choice(choice, tiledb.spec, tiledb.dtype)
        if choice.is_dense_fallback:
            assert isinstance(kernel, DenseMatmulKernel)
        else:
            assert isinstance(kernel, SparseMatmulKernel)
            assert kernel.pit_axis == choice.pit_axis

    @pytest.mark.parametrize("operand", ["A", "B"])
    def test_chosen_kernel_prices_as_the_search_did(self, tiledb, operand):
        """Algorithm 1 and the kernel it names price one workload through
        one function: on the searched mask the estimates agree exactly."""
        mask = granular_mask((512, 512), (8, 1), 0.99, seed=4)
        m, k, n = (512, 512, 1024) if operand == "A" else (1024, 512, 512)
        extent = n if operand == "A" else m
        choice = kernel_selection(
            [mask], m, k, n, tiledb, sparse_operand=operand
        )
        assert not choice.is_dense_fallback
        kernel = kernel_from_choice(
            choice, tiledb.spec, tiledb.dtype, sparse_operand=operand
        )
        assert kernel.estimate_us(mask, extent) == choice.est_cost_us

    def test_compiler_resolves_through_its_planner(self):
        compiler = PITCompiler(V100)
        mask = granular_mask((256, 256), (8, 1), 0.99)
        spec = compiler.plan_spec([mask], 256, 256, 256)
        compiled = compiler.compile(spec, [mask])
        cache = compiler.planner.cache
        assert cache.misses == 1 and spec.cache_key() in cache
        assert compiler.compile(spec) is compiled


class TestSharedPlanCache:
    def test_shared_cache_warms_across_engines(self, tiledb):
        """Two planners handed the same cache reuse each other's Algorithm 1
        outcomes — the cross-engine analogue of the scheduler's
        cross-replica warming."""
        mask = granular_mask((512, 512), (8, 1), 0.95, seed=0)
        cache = PlanCache()
        planned(Planner(tiledb, cache), [mask], 512, 512, 512)
        assert cache.misses == 1
        planned(Planner(tiledb, cache), [mask], 512, 512, 512)
        assert cache.stats()["hits"] == 1 and cache.misses == 1


class TestCompiler:
    @staticmethod
    def _compile(compiler, samples, m, k, n, **kwargs):
        spec = compiler.plan_spec(samples, m, k, n)
        return compiler.compile(spec, samples, **kwargs)

    def test_compile_and_run_sparse(self):
        compiler = PITCompiler(V100)
        rng = np.random.default_rng(0)
        mask = np.zeros((1024, 1024), dtype=bool)
        mask[rng.choice(1024, size=16, replace=False)] = True  # 16 live rows
        a = rng.standard_normal((1024, 1024)) * mask
        b = rng.standard_normal((1024, 512))
        compiled = self._compile(compiler, [mask], 1024, 1024, 512)
        res = compiled.run(a, b, mask=mask)
        np.testing.assert_allclose(res.output, a @ b, atol=1e-10)
        assert isinstance(compiled.kernel, SparseMatmulKernel)

    def test_dense_fallback_runs(self):
        compiler = PITCompiler(V100)
        mask = np.ones((128, 128), dtype=bool)
        compiled = self._compile(compiler, [mask], 128, 128, 128)
        assert isinstance(compiled.kernel, DenseMatmulKernel)
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((128, 128)), rng.standard_normal((128, 128))
        np.testing.assert_allclose(compiled.run(a, b).output, a @ b, atol=1e-10)

    def test_cache_hits(self):
        compiler = PITCompiler(V100)
        mask = granular_mask((256, 256), (8, 1), 0.99)
        c1 = self._compile(compiler, [mask], 256, 256, 256)
        c2 = self._compile(compiler, [mask], 256, 256, 256)
        assert c1 is c2

    def test_compile_cache_is_sparsity_aware(self):
        """Two sparsity regimes of one shape keep separate kernels — the
        old shape-only cache silently served whichever compiled first."""
        compiler = PITCompiler(V100)
        sparse = granular_mask((1024, 1024), (8, 1), 0.99)
        dense = np.ones((1024, 1024), dtype=bool)
        c_sparse = self._compile(compiler, [sparse], 1024, 1024, 1024)
        c_dense = self._compile(compiler, [dense], 1024, 1024, 1024)
        assert c_sparse is not c_dense
        assert c_dense.choice.is_dense_fallback
        assert not c_sparse.choice.is_dense_fallback
        # Each regime keeps hitting its own compiled kernel.
        assert self._compile(compiler, [sparse], 1024, 1024, 1024) is c_sparse
        assert self._compile(compiler, [dense], 1024, 1024, 1024) is c_dense

    def test_legacy_compile_matmul_shim_removed(self):
        """The one-release deprecation shim is gone: the PlanSpec API
        (``plan_spec`` + ``compile``) is the only compile entry point."""
        assert not hasattr(PITCompiler, "compile_matmul")

    def test_cold_compile_without_samples_raises(self):
        compiler = PITCompiler(V100)
        mask = granular_mask((256, 256), (8, 1), 0.99)
        spec = compiler.plan_spec([mask], 256, 256, 256)
        with pytest.raises(ValueError, match="make_samples"):
            compiler.compile(spec)
        # Once the plan is cached, compiling without samples is fine.
        compiler.compile(spec, [mask])
        assert compiler.compile(spec).choice is not None

class TestPolicies:
    def test_paged_attention_gather(self):
        pool = np.arange(4 * 2 * 3, dtype=float).reshape(4, 2, 3)
        policy = PagedAttentionPolicy(page_size=2)
        k = policy.gather_pages(pool, [2, 0])
        np.testing.assert_array_equal(k[:2], pool[2])
        np.testing.assert_array_equal(k[2:], pool[0])

    def test_paged_attention_validates_table(self):
        policy = PagedAttentionPolicy(page_size=2)
        with pytest.raises(ValueError):
            policy.gather_pages(np.zeros((2, 2, 2)), [5])

    def test_decisions_labelled(self):
        assert PagedAttentionPolicy().decision().label == "paged-attention"
