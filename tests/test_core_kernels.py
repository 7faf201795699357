"""Tests for detector, SRead/SWrite, and the generated sparse kernels.

The central correctness property — permutation invariance — is exercised
here both with fixed seeds and with hypothesis-driven random masks and
index orders.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DenseMatmulKernel,
    GroupedMatmulKernel,
    MicroTile,
    SampleStack,
    SparseMatmulKernel,
    build_index,
    index_construction_time_us,
    sread_cols,
    sread_rows,
    swrite_cols,
    swrite_rows,
)
from repro.hw import V100, TileConfig


class TestDetector:
    def test_index_covers_all_nonzeros(self):
        rng = np.random.default_rng(0)
        mask = rng.random((64, 64)) < 0.1
        idx = build_index(mask, MicroTile((1, 8)), V100)
        covered = np.zeros_like(mask)
        for br, bc in idx.positions:
            covered[br : br + 1, bc * 8 : (bc + 1) * 8] = True
        assert (covered | ~mask).all()

    def test_index_is_shuffled_but_complete(self):
        mask = np.ones((32, 32), dtype=bool)
        idx = build_index(mask, MicroTile((1, 8)), V100, seed=1)
        assert idx.num_microtiles == 32 * 4
        ordered = idx.ordered()
        assert not np.array_equal(idx.positions, ordered.positions)
        assert set(map(tuple, idx.positions)) == set(map(tuple, ordered.positions))

    def test_construction_cost_single_pass(self):
        """PIT's detector streams the tensor once — far below cuSPARSE's
        multi-pass conversion (Figure 18's premise)."""
        from repro.hw import stream_time_us, tensor_bytes

        t = index_construction_time_us((4096, 4096), "float32", V100, 1000)
        one_pass = stream_time_us(tensor_bytes((4096, 4096), "float32"), V100)
        assert t < 1.5 * one_pass + 2 * V100.kernel_launch_us

class TestSReadSWrite:
    def test_row_roundtrip_any_order(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((16, 8))
        order = rng.permutation(16)
        gathered = sread_rows(data, order)
        restored = swrite_rows((16, 8), order, gathered)
        np.testing.assert_array_equal(restored, data)

    def test_col_roundtrip(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((8, 16))
        order = rng.permutation(16)
        restored = swrite_cols((8, 16), order, sread_cols(data, order))
        np.testing.assert_array_equal(restored, data)

    def test_swrite_length_mismatch(self):
        with pytest.raises(ValueError):
            swrite_rows((4, 4), np.array([0, 1]), np.zeros((3, 4)))

    def test_swrite_cols_length_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            swrite_cols((4, 4), np.array([0, 1, 2]), np.zeros((4, 2)))

    def test_swrite_leaves_unindexed_rows_zero(self):
        """Rows no micro-tile covered were all-zero inputs; SWrite leaves
        their outputs zero and keeps the rows' dtype."""
        rows = np.ones((2, 3), dtype=np.float32)
        out = swrite_rows((5, 3), np.array([4, 1]), rows)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.sum(axis=1), [0, 3, 0, 0, 3])

class TestSparseMatmulKernel:
    @pytest.fixture()
    def problem(self):
        rng = np.random.default_rng(4)
        mask = rng.random((128, 96)) < 0.08
        a = rng.standard_normal((128, 96)) * mask
        b = rng.standard_normal((96, 64))
        return a, b, mask

    @pytest.mark.parametrize("axis", ["m", "k"])
    def test_matches_dense(self, problem, axis):
        a, b, mask = problem
        kern = SparseMatmulKernel(TileConfig(32, 32, 32), axis, V100)
        res = kern.run(a, b, mask=mask)
        np.testing.assert_allclose(res.output, a @ b, atol=1e-10)

    def test_sparse_b_axes(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((64, 96))
        mask = rng.random((96, 80)) < 0.1
        b = rng.standard_normal((96, 80)) * mask
        for axis in ("n", "k"):
            kern = SparseMatmulKernel(
                TileConfig(32, 32, 32), axis, V100, sparse_operand="B"
            )
            res = kern.run(a, b, mask=mask)
            np.testing.assert_allclose(res.output, a @ b, atol=1e-10)

    def test_seed_invariance(self, problem):
        """The PIT property: any index order gives the same result."""
        a, b, mask = problem
        kern = SparseMatmulKernel(TileConfig(32, 32, 32), "m", V100)
        out1 = kern.run(a, b, mask=mask, seed=0).output
        out2 = kern.run(a, b, mask=mask, seed=999).output
        np.testing.assert_allclose(out1, out2, atol=1e-10)

    def test_mask_none_uses_values(self, problem):
        a, b, mask = problem
        kern = SparseMatmulKernel(TileConfig(32, 32, 32), "m", V100)
        np.testing.assert_allclose(kern.run(a, b).output, a @ b, atol=1e-10)

    def test_report_fields(self, problem):
        a, b, mask = problem
        kern = SparseMatmulKernel(TileConfig(32, 32, 32), "m", V100)
        rep = kern.run(a, b, mask=mask).report
        assert rep.latency_us > 0
        assert 0 < rep.convert_us < rep.latency_us
        assert rep.detail["k_steps"] > 0

    def test_estimate_accepts_a_one_sample_stack(self, problem):
        """A prebuilt one-sample stack prices exactly like its mask, and
        the functional face reports the cost face's estimate."""
        a, b, mask = problem
        for axis in ("m", "k"):
            kern = SparseMatmulKernel(TileConfig(32, 32, 32), axis, V100)
            est = kern.estimate_us(mask, 64)
            assert kern.estimate_us(SampleStack([mask]), 64) == est
            assert kern.run(a, b, mask=mask).report.latency_us == est

    def test_estimate_beats_dense_at_high_sparsity(self):
        rng = np.random.default_rng(6)
        mask = rng.random((4096, 4096)) < 0.01
        tile = TileConfig(32, 32, 64)
        sparse = SparseMatmulKernel(tile, "m", V100).estimate_us(mask, 4096)
        dense = DenseMatmulKernel(tile, V100).estimate_us(4096, 4096, 4096)
        assert sparse < dense

    def test_bad_axis_operand(self):
        with pytest.raises(ValueError):
            SparseMatmulKernel(TileConfig(8, 8, 8), "n", V100, sparse_operand="A")

    def test_bad_shapes(self):
        kern = SparseMatmulKernel(TileConfig(8, 8, 8), "m", V100)
        with pytest.raises(ValueError):
            kern.run(np.zeros((4, 5)), np.zeros((6, 4)))

    def test_wrong_mask_shape(self, problem):
        a, b, _ = problem
        kern = SparseMatmulKernel(TileConfig(8, 8, 8), "m", V100)
        with pytest.raises(ValueError):
            kern.run(a, b, mask=np.ones((2, 2), dtype=bool))


class TestGroupedMatmulKernel:
    def test_matches_per_expert_dense(self):
        rng = np.random.default_rng(7)
        tokens = rng.standard_normal((64, 16))
        weights = rng.standard_normal((4, 16, 24))
        assignment = rng.integers(0, 4, size=64)
        kern = GroupedMatmulKernel(TileConfig(16, 16, 16), V100)
        res = kern.run(tokens, weights, assignment)
        ref = np.zeros((64, 24))
        for t in range(64):
            ref[t] = tokens[t] @ weights[assignment[t]]
        np.testing.assert_allclose(res.output, ref, atol=1e-10)

    def test_empty_expert_ok(self):
        rng = np.random.default_rng(8)
        tokens = rng.standard_normal((8, 4))
        weights = rng.standard_normal((3, 4, 4))
        assignment = np.zeros(8, dtype=int)  # experts 1,2 unused
        kern = GroupedMatmulKernel(TileConfig(8, 8, 8), V100)
        res = kern.run(tokens, weights, assignment)
        assert res.report.detail["tokens_per_expert"] == [8, 0, 0]

    def test_rejects_bad_assignment(self):
        kern = GroupedMatmulKernel(TileConfig(8, 8, 8), V100)
        with pytest.raises(ValueError):
            kern.run(np.zeros((4, 4)), np.zeros((2, 4, 4)), np.array([0, 1, 2, 0]))

    def test_bucketing_matches_flatnonzero_reference(self):
        """The argsort bucketing replaced a per-expert flatnonzero sweep;
        bucket order, rng stream and outputs must match it bit-for-bit
        (empty experts included — they must not consume a permutation)."""
        rng = np.random.default_rng(21)
        tokens = rng.standard_normal((97, 8))
        weights = rng.standard_normal((6, 8, 10))
        assignment = rng.integers(0, 6, size=97)
        assignment[assignment == 3] = 0  # expert 3 goes empty
        kern = GroupedMatmulKernel(TileConfig(16, 16, 16), V100)
        res = kern.run(tokens, weights, assignment, seed=5)

        ref_rng = np.random.default_rng(5)
        ref = np.zeros((97, 10))
        counts = []
        for e in range(6):
            idx = np.flatnonzero(assignment == e)
            counts.append(idx.size)
            if idx.size == 0:
                continue
            idx = idx[ref_rng.permutation(idx.size)]
            ref[idx] = tokens[idx] @ weights[e]
        np.testing.assert_array_equal(res.output, ref)
        assert res.report.detail["tokens_per_expert"] == counts

    def test_uneven_distribution_costs_by_tiles(self):
        """Cost follows ceil(tokens/tm) per expert — the padding-free claim."""
        kern = GroupedMatmulKernel(TileConfig(32, 32, 32), V100)
        even = kern.estimate_us([32, 32], 64, 64, total_tokens=64)
        uneven = kern.estimate_us([63, 1], 64, 64, total_tokens=64)
        assert uneven == pytest.approx(even, rel=0.05)


class TestPermutationInvarianceProperty:
    """Hypothesis: for random masks and seeds, PIT's rearranged execution
    equals the dense reference — Theorem 1, checked empirically."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        density=st.floats(0.01, 0.5),
        axis=st.sampled_from(["m", "k"]),
    )
    def test_sparse_a(self, seed, density, axis):
        rng = np.random.default_rng(seed)
        m, k, n = rng.integers(8, 96), rng.integers(8, 96), rng.integers(8, 64)
        mask = rng.random((m, k)) < density
        a = rng.standard_normal((m, k)) * mask
        b = rng.standard_normal((k, n))
        kern = SparseMatmulKernel(TileConfig(16, 16, 16), axis, V100)
        res = kern.run(a, b, mask=mask, seed=seed // 2)
        np.testing.assert_allclose(res.output, a @ b, atol=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_grouped_moe(self, seed):
        rng = np.random.default_rng(seed)
        tokens = rng.standard_normal((32, 8))
        weights = rng.standard_normal((5, 8, 12))
        assignment = rng.integers(0, 5, size=32)
        kern = GroupedMatmulKernel(TileConfig(8, 8, 8), V100)
        res = kern.run(tokens, weights, assignment, seed=seed % 97)
        ref = np.stack([tokens[i] @ weights[assignment[i]] for i in range(32)])
        np.testing.assert_allclose(res.output, ref, atol=1e-8)
