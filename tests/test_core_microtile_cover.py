"""Tests for micro-tiles and CoverAlgo, including Table 3's cover math."""

import numpy as np
import pytest

from repro.core import (
    CoverCache,
    MicroTile,
    SampleStack,
    batched_matmul_workload,
    count_covering_microtiles,
    cover_grid,
    coverage_waste,
    covered_sparsity,
    dense_matmul_workload,
    derive_microtile,
    gcd_microtile_shape,
    matmul_microtiled_op,
    matmul_workload,
)
from repro.hw import V100, TileConfig
from repro.tensor import Layout


def granular_mask(shape, granularity, sparsity, seed=0):
    """Random mask whose non-zeros come in `granularity`-shaped blocks."""
    gh, gw = granularity
    rng = np.random.default_rng(seed)
    grid = rng.random((shape[0] // gh, shape[1] // gw)) >= sparsity
    return np.kron(grid, np.ones(granularity, dtype=bool))


class TestMicroTile:
    def test_str(self):
        assert str(MicroTile((1, 32))) == "1x32"

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            MicroTile((0, 4))
        with pytest.raises(ValueError):
            MicroTile((1, 2, 3))

    def test_contig_bytes_by_layout(self):
        m = MicroTile((1, 32))
        assert m.contig_bytes("float32", Layout.ROW_MAJOR) == 128
        assert m.contig_bytes("float32", Layout.COL_MAJOR) == 4

    def test_saturates_transaction(self):
        assert MicroTile((1, 8)).saturates_transaction(
            "float32", Layout.ROW_MAJOR, V100
        )
        assert not MicroTile((8, 1)).saturates_transaction(
            "float32", Layout.ROW_MAJOR, V100
        )


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

    def test_microtiled_op_record(self):
        op = matmul_microtiled_op(TileConfig(4, 4, 4), "m")
        assert op.input_microtile_sizes[0].shape == (1, 4)
        assert op.input_microtile_sizes[1] is None  # B read densely
        assert op.output_microtile_size.shape == (1, 4)
        assert op.tile_output_format == (4, 4)

    def test_microtiled_op_bad_axis(self):
        with pytest.raises(ValueError):
            matmul_microtiled_op(TileConfig(4, 4, 4), "q")


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
        assert count_covering_microtiles(mask, MicroTile((4, 4))) == 4


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
            cache = CoverCache(mask)
            shapes = [
                (int(rng.integers(1, 50)), int(rng.integers(1, 50)))
                for _ in range(8)
            ]
            for shape in shapes:
                np.testing.assert_array_equal(
                    cache.grid(shape), cover_grid(mask, shape),
                    err_msg=f"trial {trial} shape {shape} mask {mask.shape}",
                )
                np.testing.assert_array_equal(
                    cache.grid(shape, transposed=True),
                    cover_grid(mask.T, shape),
                    err_msg=f"trial {trial} shape {shape} transposed",
                )

    def test_chained_derivation_through_intermediate_levels(self):
        """(1, 8) then (1, 16) then (1, 48): the coarser grids derive from
        the finer ones (including across a non-power-of-two jump) and must
        still match the from-scratch scan."""
        rng = np.random.default_rng(3)
        mask = rng.random((100, 200)) < 0.1
        cache = CoverCache(mask)
        for shape in [(1, 8), (1, 16), (1, 48), (4, 16), (8, 48)]:
            np.testing.assert_array_equal(
                cache.grid(shape), cover_grid(mask, shape)
            )

    def test_transposed_grid_is_a_view_not_a_copy(self):
        """The transposition identity serves the other orientation as a
        numpy view of the canonical grid — never a second materialization."""
        mask = np.random.default_rng(5).random((64, 96)) < 0.2
        cache = CoverCache(mask)
        canonical = cache.grid((16, 8))
        flipped = cache.grid((8, 16), transposed=True)
        assert np.shares_memory(canonical, flipped)

    def test_counts_match_grid_marginals(self):
        mask = np.random.default_rng(6).random((70, 90)) < 0.15
        cache = CoverCache(mask)
        for shape in [(1, 8), (16, 1), (5, 7)]:
            grid = cover_grid(mask, shape)
            np.testing.assert_array_equal(
                cache.col_counts(shape), grid.sum(axis=0)
            )
            np.testing.assert_array_equal(
                cache.row_counts(shape), grid.sum(axis=1)
            )
            assert cache.live_rows(shape) == int(grid.any(axis=1).sum())
            assert cache.num_microtiles(shape) == int(grid.sum())

    def test_pyramid_disabled_matches_naive(self):
        """The pyramid agrees with the pre-pyramid naive scan (one padded
        :func:`cover_grid` pass per shape) on a non-divisible mask."""
        mask = np.random.default_rng(7).random((33, 61)) < 0.2
        fast = CoverCache(mask)
        for shape in [(1, 4), (4, 1), (3, 3)]:
            np.testing.assert_array_equal(
                cover_grid(mask, shape), fast.grid(shape)
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

    def test_batched_workload_equals_scalar(self):
        """The [S, G] vectorized pass must reproduce the per-sample
        matmul_workload results exactly, in both orientations."""
        from repro.hw import TileConfig as TC

        rng = np.random.default_rng(13)
        samples = [rng.random((96, 130)) < p for p in (0.05, 0.2, 0.6)]
        stack = SampleStack(samples)
        cases = [
            (TC(32, 16, 32), "m", "A"),
            (TC(16, 32, 8), "k", "A"),
            (TC(32, 16, 32), "n", "B"),
            (TC(8, 16, 32), "k", "B"),
        ]
        for tile, axis, operand in cases:
            batched = batched_matmul_workload(
                stack, tile, axis, 64, sparse_operand=operand
            )
            for s, sample in enumerate(samples):
                scalar = matmul_workload(
                    sample, tile, axis, 64, sparse_operand=operand
                )
                assert batched[s] == scalar, (tile, axis, operand, s)

    def test_nnz_per_sample(self):
        samples = [np.eye(8, dtype=bool), np.ones((8, 8), dtype=bool)]
        stack = SampleStack(samples)
        assert stack.nnz.tolist() == [8, 64]
        assert stack.num_samples == 2
        assert stack.sample_shape == (8, 8)


class TestMatmulWorkload:
    def test_dense_workload(self):
        wl = dense_matmul_workload(128, 256, 64, TileConfig(32, 32, 32))
        assert wl.num_output_tiles == 4 * 2
        assert wl.total_k_steps == 8 * 8

    def test_row_sparse_m_axis(self):
        """Half the rows zero -> half the K-steps of dense."""
        tile = TileConfig(32, 32, 32)
        mask = np.zeros((256, 256), dtype=bool)
        mask[:128, :] = True
        wl = matmul_workload(mask, tile, "m", 256)
        dense = dense_matmul_workload(256, 256, 256, tile)
        assert wl.total_k_steps == dense.total_k_steps // 2
        assert wl.num_output_tiles == dense.num_output_tiles // 2
        assert wl.wasted_fraction == pytest.approx(0.0)

    def test_unaligned_rows_merge_across_tiles(self):
        """PIT's point: 32 scattered non-zero rows still fill one 32-row tile."""
        tile = TileConfig(32, 32, 32)
        mask = np.zeros((1024, 32), dtype=bool)
        mask[::32, :] = True  # 32 rows, one per 32-row band
        wl = matmul_workload(mask, tile, "m", 32)
        assert wl.total_k_steps == 1  # merged into a single tile
        assert wl.num_output_tiles == 1

    def test_k_axis_skips_zero_columns(self):
        tile = TileConfig(32, 32, 32)
        mask = np.zeros((256, 256), dtype=bool)
        mask[:, :64] = True  # only 64 of 256 k-columns alive
        wl = matmul_workload(mask, tile, "k", 128)
        dense = dense_matmul_workload(256, 256, 128, tile)
        assert wl.total_k_steps == dense.total_k_steps // 4

    def test_sparse_b_n_axis(self):
        tile = TileConfig(32, 32, 32)
        mask = np.zeros((256, 256), dtype=bool)  # B[k, n]
        mask[:, :128] = True  # half the output columns alive
        wl = matmul_workload(mask, tile, "n", 256, sparse_operand="B")
        dense = dense_matmul_workload(256, 256, 256, tile)
        assert wl.total_k_steps == dense.total_k_steps // 2

    def test_empty_mask(self):
        wl = matmul_workload(
            np.zeros((64, 64), dtype=bool), TileConfig(32, 32, 32), "m", 64
        )
        assert wl.is_empty
        assert wl.num_output_tiles == 0

    def test_bad_axis_operand_combo(self):
        with pytest.raises(ValueError):
            matmul_workload(
                np.zeros((8, 8), dtype=bool), TileConfig(8, 8, 8), "n", 8
            )

    def test_cover_cache_consistent(self):
        mask = granular_mask((512, 512), (2, 1), 0.9, seed=5)
        tile = TileConfig(32, 32, 32)
        direct = matmul_workload(mask, tile, "k", 512)
        cached = matmul_workload(CoverCache(mask), tile, "k", 512)
        assert direct == cached
