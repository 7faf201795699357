"""Tests for micro-tiles and CoverAlgo, including Table 3's cover math."""

import numpy as np
import pytest

from repro.core import (
    MicroTile,
    SampleStack,
    SparseMatmulKernel,
    TileDB,
    cover_grid,
    coverage_waste,
    covered_sparsity,
    derive_microtile,
    gcd_microtile_shape,
    index_construction_time_us,
    matmul_rules,
)
from repro.core.selection import dense_candidate
from repro.hw import V100, TileConfig, sparse_matmul_time_us
from selection_oracle import NaiveCovers, naive_dense_workload, naive_workload


def granular_mask(shape, granularity, sparsity, seed=0):
    """Random mask whose non-zeros come in `granularity`-shaped blocks."""
    gh, gw = granularity
    rng = np.random.default_rng(seed)
    grid = rng.random((shape[0] // gh, shape[1] // gw)) >= sparsity
    return np.kron(grid, np.ones(granularity, dtype=bool))


def one_sample_workload(mask, tile, axis, extent, sparse_operand="A",
                        dtype="float32", tensor_core=False):
    """``(k_steps, output_tiles, convert_us, wasted_fraction)`` that one run
    of a one-rule kernel reports on ``mask``, the sparse operand's mask,
    against a dense operand of extent ``extent``."""
    kernel = SparseMatmulKernel(tile, axis, V100, dtype,
                                sparse_operand=sparse_operand,
                                tensor_core=tensor_core)
    rows, cols = mask.shape
    if sparse_operand == "A":
        a, b = np.ones(mask.shape), np.ones((cols, extent))
    else:
        a, b = np.ones((extent, rows)), np.ones(mask.shape)
    report = kernel.run(a, b, mask=mask).report
    return (report.detail["k_steps"], report.detail["output_tiles"],
            report.convert_us, report.wasted_fraction)


def naive_sample_workload(mask, tile, axis, extent, sparse_operand="A",
                          dtype="float32"):
    """The same four numbers, counted by the selection oracle's naive
    scans; Convert is the detector's cost for its micro-tile count."""
    steps, tiles, micro, waste = naive_workload(
        NaiveCovers(mask), tile, axis, extent, sparse_operand
    )
    convert = index_construction_time_us(mask.shape, dtype, V100, micro)
    return steps, tiles, convert, waste


class TestMicroTile:
    def test_str(self):
        assert str(MicroTile((1, 32))) == "1x32"

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            MicroTile((0, 4))
        with pytest.raises(ValueError):
            MicroTile((1, 2, 3))

class TestDeriveMicrotile:
    def test_m_axis_row_microtile(self):
        # Paper: "If M is the PIT-axis, the micro-tile size will be [1, K]".
        tile = TileConfig(32, 64, 16)
        assert derive_microtile(tile, "m", operand="A").shape == (1, 64)

    def test_k_axis_column_microtile(self):
        tile = TileConfig(32, 64, 16)
        assert derive_microtile(tile, "k", operand="A").shape == (32, 1)
        assert derive_microtile(tile, "k", operand="B").shape == (1, 16)

    def test_n_axis_on_b(self):
        tile = TileConfig(32, 64, 16)
        assert derive_microtile(tile, "n", operand="B").shape == (64, 1)

    def test_axis_not_touching_operand(self):
        with pytest.raises(ValueError):
            derive_microtile(TileConfig(32, 32, 32), "n", operand="A")


class TestCoverGrid:
    def test_exact_cover(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, 0] = True
        mask[5, 7] = True
        grid = cover_grid(mask, (4, 4))
        assert grid.shape == (2, 2)
        assert grid[0, 0] and grid[1, 1]
        assert not grid[0, 1] and not grid[1, 0]

    def test_padding_of_partial_tiles(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[4, 4] = True
        grid = cover_grid(mask, (4, 4))
        assert grid.shape == (2, 2)
        assert grid[1, 1]

    def test_rejects_non2d(self):
        with pytest.raises(ValueError):
            cover_grid(np.zeros((2, 2, 2), dtype=bool), (1, 1))

    def test_count(self):
        mask = np.eye(16, dtype=bool)
        assert int(cover_grid(mask, (4, 4)).sum()) == 4


class TestTable3CoverMath:
    """The 'Sparsity Ratio After Cover' column of Table 3 is pure cover math;
    these reproduce the paper's numbers from seeded random masks."""

    @pytest.mark.parametrize(
        "granularity,sparsity,microtile,expected_after",
        [
            ((2, 1), 0.95, (16, 1), 0.6639),
            ((4, 1), 0.95, (16, 1), 0.8145),
            ((8, 1), 0.95, (8, 1), 0.95),
            ((8, 1), 0.99, (32, 1), 0.9606),
            ((32, 1), 0.95, (32, 1), 0.95),
            ((32, 1), 0.99, (32, 1), 0.99),
        ],
    )
    def test_covered_sparsity_matches_paper(
        self, granularity, sparsity, microtile, expected_after
    ):
        mask = granular_mask((4096, 4096), granularity, sparsity, seed=11)
        after = covered_sparsity(mask, microtile)
        assert after == pytest.approx(expected_after, abs=0.01)

    def test_coverage_waste_increases_with_cover_size(self):
        mask = granular_mask((1024, 1024), (1, 1), 0.99, seed=2)
        w8 = coverage_waste(mask, (8, 8))
        w32 = coverage_waste(mask, (32, 32))
        assert w32 > w8

    def test_zero_mask_no_waste(self):
        assert coverage_waste(np.zeros((64, 64), dtype=bool), (8, 8)) == 0.0


class TestCoverPyramid:
    """The pyramid-derived grids must equal naive cover_grid bit-for-bit —
    including non-divisible extents (partial trailing tiles) and the
    transposed-orientation reuse."""

    def test_property_random_masks_and_shapes(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            rows = int(rng.integers(1, 180))
            cols = int(rng.integers(1, 180))
            mask = rng.random((rows, cols)) < rng.uniform(0.02, 0.4)
            stack = SampleStack([mask])
            shapes = [
                (int(rng.integers(1, 50)), int(rng.integers(1, 50)))
                for _ in range(8)
            ]
            for shape in shapes:
                np.testing.assert_array_equal(
                    stack.grids(shape)[0], cover_grid(mask, shape),
                    err_msg=f"trial {trial} shape {shape} mask {mask.shape}",
                )
                np.testing.assert_array_equal(
                    stack.grids(shape, transposed=True)[0],
                    cover_grid(mask.T, shape),
                    err_msg=f"trial {trial} shape {shape} transposed",
                )

    def test_chained_derivation_through_intermediate_levels(self):
        """(1, 8) then (1, 16) then (1, 48): the coarser grids derive from
        the finer ones (including across a non-power-of-two jump) and must
        still match the from-scratch scan."""
        rng = np.random.default_rng(3)
        mask = rng.random((100, 200)) < 0.1
        stack = SampleStack([mask])
        for shape in [(1, 8), (1, 16), (1, 48), (4, 16), (8, 48)]:
            np.testing.assert_array_equal(
                stack.grids(shape)[0], cover_grid(mask, shape)
            )

    def test_transposed_grid_is_a_view_not_a_copy(self):
        """The transposition identity serves the other orientation as a
        numpy view of the canonical grid — never a second materialization."""
        mask = np.random.default_rng(5).random((64, 96)) < 0.2
        stack = SampleStack([mask])
        canonical = stack.grids((16, 8))
        flipped = stack.grids((8, 16), transposed=True)
        assert np.shares_memory(canonical, flipped)

    def test_counts_match_grid_marginals(self):
        mask = np.random.default_rng(6).random((70, 90)) < 0.15
        stack = SampleStack([mask])
        for shape in [(1, 8), (16, 1), (5, 7)]:
            grid = cover_grid(mask, shape)
            np.testing.assert_array_equal(
                stack.col_counts(shape)[0], grid.sum(axis=0)
            )
            np.testing.assert_array_equal(
                stack.row_counts(shape)[0], grid.sum(axis=1)
            )
            assert stack.live_rows(shape)[0] == int(grid.any(axis=1).sum())
            assert stack.num_microtiles(shape)[0] == int(grid.sum())
            assert stack.grid_cells(shape) == grid.size

    def test_pyramid_disabled_matches_naive(self):
        """The pyramid agrees with the pre-pyramid naive scan (one padded
        :func:`cover_grid` pass per shape) on a non-divisible mask."""
        mask = np.random.default_rng(7).random((33, 61)) < 0.2
        fast = SampleStack([mask])
        for shape in [(1, 4), (4, 1), (3, 3)]:
            np.testing.assert_array_equal(
                cover_grid(mask, shape), fast.grids(shape)[0]
            )

    def test_gcd_microtile_shape(self):
        assert gcd_microtile_shape([(1, 8), (1, 12)]) == (1, 4)
        assert gcd_microtile_shape([(8, 1), (1, 8)]) == (1, 1)
        assert gcd_microtile_shape([(16, 4)]) == (16, 4)
        with pytest.raises(ValueError):
            gcd_microtile_shape([])
        with pytest.raises(ValueError):
            gcd_microtile_shape([(0, 4)])


class TestSampleStack:
    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            SampleStack([])
        with pytest.raises(ValueError):
            SampleStack([np.ones((4, 4), dtype=bool),
                         np.ones((4, 5), dtype=bool)])

    def test_grids_match_per_sample_cover(self):
        rng = np.random.default_rng(11)
        samples = [rng.random((50, 70)) < 0.2 for _ in range(3)]
        stack = SampleStack(samples)
        stack.prime([(1, 8), (16, 1), (3, 5)])
        for shape in [(1, 8), (16, 1), (3, 5)]:
            grids = stack.grids(shape)
            tgrids = stack.grids(shape, transposed=True)
            for s, sample in enumerate(samples):
                np.testing.assert_array_equal(
                    grids[s], cover_grid(sample, shape)
                )
                np.testing.assert_array_equal(
                    tgrids[s], cover_grid(sample.T, shape)
                )

    def test_batched_workload_equals_naive_per_sample(self):
        """A kernel's stacked [S, G] counts must reproduce the selection
        oracle's naive per-sample micro-tiles, and its run report every
        other field (the waste fraction included, and an all-zero sample
        that computes nothing), in both orientations; each sample's counts
        must not depend on the samples stacked with it."""
        rng = np.random.default_rng(13)
        samples = [rng.random((96, 130)) < p for p in (0.05, 0.2, 0.6)]
        samples.append(np.zeros((96, 130), dtype=bool))
        stack = SampleStack(samples)
        cases = [
            (TileConfig(32, 16, 32), "m", "A"),
            (TileConfig(16, 32, 8), "k", "A"),
            (TileConfig(32, 16, 32), "n", "B"),
            (TileConfig(8, 16, 32), "k", "B"),
        ]
        for tile, axis, operand in cases:
            kernel = SparseMatmulKernel(tile, axis, V100,
                                        sparse_operand=operand)
            stacked = kernel._table.count(stack)
            for s, sample in enumerate(samples):
                naive = naive_workload(
                    NaiveCovers(sample), tile, axis, 64, operand
                )
                assert stacked[2][0, s] == naive[2], (tile, axis, operand, s)
                assert one_sample_workload(
                    sample, tile, axis, 64, sparse_operand=operand
                ) == naive_sample_workload(
                    sample, tile, axis, 64, sparse_operand=operand
                ), (tile, axis, operand, s)
                alone = kernel._table.count(SampleStack([sample]))
                for got, want in zip(stacked[:3], alone[:3]):
                    assert got[0, s] == want[0, 0], (tile, axis, operand, s)

    def test_nnz_per_sample(self):
        samples = [np.eye(8, dtype=bool), np.ones((8, 8), dtype=bool)]
        stack = SampleStack(samples)
        assert stack.nnz.tolist() == [8, 64]
        assert stack.num_samples == 2
        assert stack.sample_shape == (8, 8)

    def test_nnz_is_counted_on_first_use(self):
        """Cover-only callers never pay for the non-zero count; the waste
        fraction of a workload is what reads it."""
        mask = np.eye(64, dtype=bool)
        stack = SampleStack([mask])
        assert stack.num_microtiles((1, 8))[0] == 64
        SparseMatmulKernel(TileConfig(8, 8, 8), "m", V100).estimate_us(stack, 8)
        assert "nnz" not in vars(stack)
        *_, waste = one_sample_workload(mask, TileConfig(8, 8, 8), "m", 8)
        assert waste == 1.0 - 64 / (8 * 8 * 8)


class TestKernelWorkload:
    def test_dense_workload(self):
        """The dense candidate prices every output tile and K-step,
        partial tiles included (on enough tiles that a lost K-step shows
        through the wave quantization)."""
        tile = TileConfig(32, 32, 32)
        assert naive_dense_workload(128, 256, 64, tile) == (8 * 8, 4 * 2)
        assert naive_dense_workload(100, 250, 70, tile) == (4 * 3 * 8, 4 * 3)
        tiledb = TileDB.shared(V100, "float32")
        tile, cost = dense_candidate(4000, 250, 1000, tiledb)
        assert cost == sparse_matmul_time_us(
            *naive_dense_workload(4000, 250, 1000, tile), tile, "float32",
            V100,
        )

    def test_row_sparse_m_axis(self):
        """Half the rows zero -> half the K-steps of dense."""
        tile = TileConfig(32, 32, 32)
        mask = np.zeros((256, 256), dtype=bool)
        mask[:128, :] = True
        steps, tiles, _, waste = one_sample_workload(mask, tile, "m", 256)
        dense_steps, dense_tiles = naive_dense_workload(256, 256, 256, tile)
        assert steps == dense_steps // 2
        assert tiles == dense_tiles // 2
        assert waste == pytest.approx(0.0)

    def test_unaligned_rows_merge_across_tiles(self):
        """PIT's point: 32 scattered non-zero rows still fill one 32-row tile."""
        tile = TileConfig(32, 32, 32)
        mask = np.zeros((1024, 32), dtype=bool)
        mask[::32, :] = True  # 32 rows, one per 32-row band
        steps, tiles, _, _ = one_sample_workload(mask, tile, "m", 32)
        assert steps == 1  # merged into a single tile
        assert tiles == 1

    def test_k_axis_skips_zero_columns(self):
        tile = TileConfig(32, 32, 32)
        mask = np.zeros((256, 256), dtype=bool)
        mask[:, :64] = True  # only 64 of 256 k-columns alive
        steps, _, _, _ = one_sample_workload(mask, tile, "k", 128)
        dense_steps, _ = naive_dense_workload(256, 256, 128, tile)
        assert steps == dense_steps // 4

    def test_sparse_b_n_axis(self):
        tile = TileConfig(32, 32, 32)
        mask = np.zeros((256, 256), dtype=bool)  # B[k, n]
        mask[:, :128] = True  # half the output columns alive
        steps, _, _, _ = one_sample_workload(
            mask, tile, "n", 256, sparse_operand="B"
        )
        dense_steps, _ = naive_dense_workload(256, 256, 256, tile)
        assert steps == dense_steps // 2

    def test_empty_mask(self):
        steps, tiles, _, _ = one_sample_workload(
            np.zeros((64, 64), dtype=bool), TileConfig(32, 32, 32), "m", 64
        )
        assert steps == 0
        assert tiles == 0

    def test_bad_axis_operand_combo(self):
        with pytest.raises(ValueError):
            one_sample_workload(
                np.zeros((8, 8), dtype=bool), TileConfig(8, 8, 8), "n", 8
            )

    @pytest.mark.parametrize("sparse_operand", ["A", "B"])
    @pytest.mark.parametrize("dtype,tensor_core",
                             [("float32", False), ("float16", True)])
    def test_every_rule_reports_the_naive_workload(self, dtype, tensor_core,
                                                   sparse_operand):
        """Every rule of a V100 TileDB reports, from one run, the K-steps,
        output tiles, Convert and waste the naive oracle counts, on masks
        whose extents leave partial tiles, and on an all-zero mask."""
        rng = np.random.default_rng(17)
        shape = (150, 200) if sparse_operand == "A" else (200, 130)
        masks = [rng.random(shape) < 0.03, rng.random(shape) < 0.3,
                 np.zeros(shape, dtype=bool)]
        tiledb = TileDB.shared(V100, dtype, tensor_core=tensor_core)
        rules = matmul_rules(tiledb.tiles(), sparse_operand=sparse_operand)
        assert rules
        for rule in rules:
            for i, mask in enumerate(masks):
                args = (mask, rule.tile, rule.pit_axis, 72, sparse_operand,
                        dtype)
                assert one_sample_workload(
                    *args, tensor_core=tensor_core
                ) == naive_sample_workload(*args), (rule, i)
