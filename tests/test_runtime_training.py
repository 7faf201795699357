"""Tests for the unified training path (PR 10).

Training prices its weight-sparse matmuls through ``Planner.resolve`` —
the same spec/cache/persistence machinery the serving stack uses.  The
contract under test:

* the two new plan kinds (``weight-sparse``, ``nm-sparse``) validate,
  serialize, and key caches like the original four — spec -> json -> spec
  is an identity, cache keys are stable across interpreters and hash
  seeds, and nm-sparse plans (with their cached channel permutation)
  survive ``PlanCache.save``/``load`` and the cluster wire codec;
* the full-TileDB Algorithm 1 search strictly beats the old silent
  ``tiles()[:8]`` truncation on a known case (the regression that
  motivated the rewrite);
* warm-start works end to end: a shared cache across pruning steps pays
  each search once, drifting masks at equal sparsity replay plans through
  the quantized signature, and the report's hit/miss/search-us provenance
  reflects all of it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.pit_backend import PITBackend
from repro.core import (
    PermutedChoice,
    PlanCache,
    Planner,
    PlanSpec,
    TileDB,
    kernel_selection,
    nm_kernel_selection,
    nm_permutation_candidates,
)
from repro.core.kernels import SparseMatmulKernel
from repro.core.plan import decode_value, encode_value
from repro.hw import V100
from repro.hw.costmodel import dense_matmul_time_us
from repro.runtime import sparse_training_run, sparse_training_step
from repro.runtime.cluster.codec import decode_wire, encode_wire
from repro.runtime.training import _family_masks
from repro.sparsity import MagnitudePruner, nm_prune_mask


@pytest.fixture(scope="module")
def tiledb():
    return TileDB.shared(V100, "float32")


def weight_masks(shape=(768, 768), block=(32, 1), sparsity=0.9, seed=7):
    rng = np.random.default_rng(seed)
    pruner = MagnitudePruner(block)
    return [pruner.mask(rng.standard_normal(shape), sparsity)]


# ----------------------------------------------------------------------
# PlanSpec validation for the new kinds
# ----------------------------------------------------------------------
class TestTrainingPlanSpecs:
    def test_weight_sparse_requires_operand_b(self, tiledb):
        with pytest.raises(ValueError, match="sparse_operand must be 'B'"):
            PlanSpec(kind="weight-sparse", m=128, k=64, n=64,
                     sparse_operand="A", tiledb_key=tiledb.cache_key)

    def test_nm_pattern_shape_and_alignment(self, tiledb):
        kwargs = dict(m=128, k=64, n=64, sparse_operand="B",
                      tiledb_key=tiledb.cache_key)
        with pytest.raises(ValueError, match=r"\(n, m\) pattern"):
            PlanSpec(kind="nm-sparse", pattern=(2,), **kwargs)
        with pytest.raises(ValueError, match="invalid N:M"):
            PlanSpec(kind="nm-sparse", pattern=(4, 2), **kwargs)
        with pytest.raises(ValueError, match="not divisible"):
            PlanSpec(kind="nm-sparse", pattern=(2, 7), **kwargs)

    def test_nm_permutation_policy_shape(self, tiledb):
        kwargs = dict(m=128, k=64, n=64, sparse_operand="B",
                      pattern=(2, 4), tiledb_key=tiledb.cache_key)
        with pytest.raises(ValueError, match="permutation policy"):
            PlanSpec(kind="nm-sparse", permutation=(1, 0), **kwargs)
        spec = PlanSpec(kind="nm-sparse",
                        permutation=("learned", 2, 0), **kwargs)
        assert spec.permutation == ("learned", 2, 0)

    def test_legacy_kinds_reject_nm_fields(self, tiledb):
        with pytest.raises(ValueError, match="nm-sparse-only"):
            PlanSpec(kind="proj", m=128, k=64, n=64, pattern=(2, 4),
                     tiledb_key=tiledb.cache_key)

    def test_legacy_cache_key_layout_unchanged(self, tiledb):
        """Kinds without pattern/permutation keep the 9-tuple key, so old
        dumps and the shard router keep working; nm-sparse grows to 11
        with the tiledb key still last."""
        legacy = PlanSpec(kind="proj", m=128, k=64, n=64,
                          signature=(7, 20, 20), tiledb_key=tiledb.cache_key)
        assert len(legacy.cache_key()) == 9
        nm = PlanSpec(kind="nm-sparse", m=128, k=64, n=64,
                      sparse_operand="B", pattern=(2, 4),
                      signature=(7, 20, 20), tiledb_key=tiledb.cache_key)
        key = nm.cache_key()
        assert len(key) == 11
        assert key[-1] == tiledb.cache_key
        assert key[8] == (2, 4)


# ----------------------------------------------------------------------
# Serialization: JSON codec, wire codec, persistence, hash-seed stability
# ----------------------------------------------------------------------
class TestTrainingSerialization:
    def nm_spec(self, tiledb):
        return PlanSpec(kind="nm-sparse", m=512, k=768, n=768,
                        sparse_operand="B", pattern=(2, 4),
                        permutation=("learned", 2, 11),
                        signature=(7, 18, 18), tiledb_key=tiledb.cache_key)

    def test_spec_json_round_trip_identity(self, tiledb):
        ws = PlanSpec(kind="weight-sparse", m=512, k=768, n=768,
                      sparse_operand="B", signature=(7, 18, 18),
                      tiledb_key=tiledb.cache_key)
        for spec in (ws, self.nm_spec(tiledb)):
            revived = PlanSpec.from_json(
                json.loads(json.dumps(spec.to_json()))
            )
            assert revived == spec
            assert revived.cache_key() == spec.cache_key()

    def test_permuted_choice_json_round_trip(self, tiledb):
        choice = nm_kernel_selection(
            weight_masks(), 512, 768, 768, tiledb, pattern=(2, 4)
        )
        assert isinstance(choice, PermutedChoice)
        revived = decode_value(json.loads(json.dumps(encode_value(choice))))
        assert revived == choice

    def test_permuted_choice_rides_the_wire_codec(self, tiledb):
        choice = nm_kernel_selection(
            weight_masks(), 512, 768, 768, tiledb, pattern=(2, 4)
        )
        assert decode_wire(json.loads(json.dumps(encode_wire(choice)))) == choice

    def test_nm_plan_survives_cache_save_load(self, tiledb, tmp_path):
        cache = PlanCache()
        planner = Planner(tiledb, cache)
        spec = planner.make_spec(
            "nm-sparse", weight_masks(), 512, 768, 768,
            sparse_operand="B", pattern=(2, 4),
        )
        cold = planner.resolve(spec, lambda: weight_masks())
        assert cold.cold
        path = tmp_path / "plans.json"
        cache.save(path, tiledb_key=tiledb.cache_key)

        revived = PlanCache.load(path, expected_tiledb_key=tiledb.cache_key)
        warm = Planner(tiledb, revived).resolve(spec)
        assert warm.cache_hit
        assert warm.choice == cold.choice
        assert warm.choice.pattern == (2, 4)

    def test_nm_cache_key_stable_across_hash_seeds(self, tiledb):
        """The persistence property under adversarial hashing: the same
        nm-sparse spec built in interpreters with different
        PYTHONHASHSEEDs encodes to the identical cache key."""
        src_dir = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        code = (
            "import json\n"
            "from repro.core import PlanSpec, TileDB\n"
            "from repro.hw import V100\n"
            "from repro.core.plan import encode_value\n"
            "db = TileDB.shared(V100, 'float32')\n"
            "spec = PlanSpec(kind='nm-sparse', m=512, k=768, n=768,\n"
            "                sparse_operand='B', pattern=(2, 4),\n"
            "                permutation=('learned', 2, 11),\n"
            "                signature=(7, 18, 18), tiledb_key=db.cache_key)\n"
            "print(json.dumps(encode_value(spec.cache_key())))\n"
        )
        outs = []
        for hashseed in ("0", "42"):
            env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED=hashseed)
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env=env, timeout=120,
            )
            assert out.returncode == 0, out.stderr
            outs.append(out.stdout.strip())
        mine = json.dumps(encode_value(self.nm_spec(tiledb).cache_key()))
        assert outs[0] == outs[1] == mine


# ----------------------------------------------------------------------
# The search itself
# ----------------------------------------------------------------------
class TestFullTileDBSearch:
    def test_truncated_search_was_worse(self, tiledb):
        """The regression the rewrite fixes: the old training path searched
        only ``tiledb.tiles()[:8]`` and could silently pick a worse tile.
        On this known case the full Algorithm 1 search is strictly
        cheaper than the truncated one."""
        mask = weight_masks(sparsity=0.98, seed=7)[0]
        m = 512

        truncated = float("inf")
        for entry in tiledb.tiles()[:8]:
            for axis in ("n", "k"):
                kern = SparseMatmulKernel(
                    entry.tile, axis, V100, "float32", sparse_operand="B"
                )
                truncated = min(truncated, kern.estimate_us(mask, m))
        truncated = min(
            truncated,
            dense_matmul_time_us(
                m, mask.shape[0], mask.shape[1],
                tiledb.best_dense_tile(m, *mask.shape).tile, "float32", V100,
            ),
        )

        full = kernel_selection(
            [mask], m, mask.shape[0], mask.shape[1], tiledb,
            sparse_operand="B",
        )
        assert full.est_cost_us < truncated

    def test_nm_projection_properties(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal((64, 32))
        scores[5, :] = 0.0
        kept = nm_prune_mask(scores, 2, 4, axis=0)
        # Per aligned 4-group along axis 0: at most 2 survivors.
        groups = kept.reshape(16, 4, 32)
        assert int(groups.sum(axis=1).max()) <= 2
        # Exact zeros never survive, whatever their group looks like.
        assert not kept[5].any()

    def test_permutation_candidates(self):
        samples = weight_masks(shape=(64, 64), block=(1, 1), sparsity=0.5)
        cands = nm_permutation_candidates(samples, (), 64)
        assert cands[0] is None  # identity always competes
        assert len(cands) == 3
        assert all(sorted(c) == list(range(64)) for c in cands[1:])
        learned = nm_permutation_candidates(samples, ("learned", 2, 0), 64)
        assert len(learned) == 5
        with pytest.raises(ValueError):
            nm_permutation_candidates(samples, ("genetic", 1), 64)

    def test_nm_selection_caches_concrete_permutation(self, tiledb):
        choice = nm_kernel_selection(
            weight_masks(), 512, 768, 768, tiledb,
            pattern=(2, 4), permutation=("learned", 2, 11),
        )
        assert choice.pattern == (2, 4)
        # The winning order is concrete: identity or a full k-permutation,
        # never the search policy.
        assert choice.permutation == () or sorted(choice.permutation) == list(
            range(768)
        )


# ----------------------------------------------------------------------
# Warm-start through the training entry points
# ----------------------------------------------------------------------
class TestTrainingWarmStart:
    def test_no_direct_search_in_training_module(self):
        """The unification invariant: training owns no TileDB walk or
        kernel-search code — every resolution flows through the Planner."""
        import repro.runtime.training as training

        src = Path(training.__file__).read_text()
        for needle in ("tiles()", "kernel_selection", "SparseMatmulKernel",
                       "shared_tiledb", "from ..core.tiledb",
                       "dense_matmul_time_us"):
            assert needle not in src, f"training.py still references {needle}"

    def test_shared_cache_pays_each_search_once(self):
        cache = PlanCache()
        first = sparse_training_step(
            "pit", V100, block=(32, 1), sparsity=0.9, plan_cache=cache
        )
        assert first.plan_misses == 3 and first.plan_hits == 0
        assert first.search_us > 0
        second = sparse_training_step(
            "pit", V100, block=(32, 1), sparsity=0.9, plan_cache=cache
        )
        assert second.plan_misses == 0 and second.plan_hits == 3
        assert second.latency_ms == first.latency_ms  # warm pricing identical

    def test_baselines_report_zero_plan_traffic(self):
        for backend in ("pytorch", "pytorch-s"):
            r = sparse_training_step(backend, V100, block=(32, 1), sparsity=0.9)
            assert r.plan_hits == 0 and r.plan_misses == 0
            assert r.search_us == 0.0

    def test_drifting_masks_share_plans(self):
        """seed_stride regenerates the weights each step; equal-sparsity
        steps still hit through the quantized signature."""
        reports = sparse_training_run(
            "pit", V100, sparsities=(0.9, 0.9, 0.9), block=(32, 1),
            seed=0, seed_stride=1,
        )
        assert reports[0].plan_misses == 3
        assert sum(r.plan_hits for r in reports[1:]) > 0

    def test_nm_step_resolves_through_same_cache(self):
        cache = PlanCache()
        cold = sparse_training_step(
            "pit", V100, block=(32, 1), sparsity=0.9, plan_cache=cache,
            pattern=(2, 4), permutation=("learned", 2, 11),
        )
        assert cold.plan_misses == 3
        warm = sparse_training_step(
            "pit", V100, block=(32, 1), sparsity=0.9, plan_cache=cache,
            pattern=(2, 4), permutation=("learned", 2, 11),
        )
        assert warm.plan_misses == 0 and warm.plan_hits == 3
        assert warm.latency_ms == cold.latency_ms

    def test_family_masks_memoized(self):
        from repro.models.config import bert_base

        a = _family_masks(bert_base(), (32, 1), 0.9, 0)
        b = _family_masks(bert_base(), (32, 1), 0.9, 0)
        assert a is b  # the cover pyramid is built once and reused

    def test_backend_exposes_planner_provenance(self):
        cache = PlanCache()
        pit = PITBackend(V100, "float32", plan_cache=cache)
        mask = weight_masks(sparsity=0.9)[0]
        resolved = pit.weight_sparse_plan([mask], 512, *mask.shape)
        assert resolved.spec.kind == "weight-sparse"
        assert resolved.spec.sparse_operand == "B"
        assert resolved.cold and resolved.search_us > 0
        again = pit.weight_sparse_plan([mask], 512, *mask.shape)
        assert again.cache_hit
        assert again.choice == resolved.choice
