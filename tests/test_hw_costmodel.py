"""Tests for the tile/kernel cost model.

These pin down the *qualitative* properties every figure depends on: bigger
tiles are more efficient per FLOP, wave quantization, the sparse-kernel cost
being Algorithm 1's num_tiles x tile_cost, and the SRead gather surcharge
vanishing once micro-tiles saturate a transaction.
"""

import pytest

from repro.hw import (
    A100,
    V100,
    TileConfig,
    compute_efficiency,
    dense_matmul_time_us,
    elementwise_time_us,
    kernel_time_us,
    layernorm_time_us,
    matmul_step_time_us,
    matmul_tile_fixed_time_us,
    matmul_tile_time_us,
    predicted_finish_us,
    softmax_time_us,
    sparse_matmul_time_us,
)


class TestTileConfig:
    def test_describe(self):
        assert TileConfig(32, 64, 16).describe() == "[32, 64] x [64, 16]"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TileConfig(0, 32, 32)

    def test_output_elems(self):
        assert TileConfig(8, 16, 4).output_elems == 32


class TestComputeEfficiency:
    def test_large_square_tile_is_fully_efficient(self):
        assert compute_efficiency(TileConfig(32, 32, 32)) == pytest.approx(1.0)

    def test_small_tiles_less_efficient(self):
        small = compute_efficiency(TileConfig(8, 8, 8))
        large = compute_efficiency(TileConfig(32, 32, 32))
        assert small < large

    def test_monotone_in_output_elems(self):
        effs = [compute_efficiency(TileConfig(s, 32, s)) for s in (8, 16, 32, 64)]
        assert effs == sorted(effs)

    def test_skewed_tiles_penalized(self):
        square = compute_efficiency(TileConfig(32, 32, 32))
        skewed = compute_efficiency(TileConfig(1024, 32, 1))
        assert skewed < square


class TestTileTime:
    def test_per_flop_cost_decreases_with_tile_size(self):
        """The root of Figure 3a: 8x8 tiles cost more per useful FLOP."""
        def per_flop(t):
            flops = 2 * t.tm * 4096 * t.tn
            return matmul_tile_time_us(t, 4096, "float32", V100) / flops

        assert per_flop(TileConfig(8, 32, 8)) > per_flop(TileConfig(16, 32, 16))
        assert per_flop(TileConfig(16, 32, 16)) > per_flop(TileConfig(32, 32, 32))

    def test_affine_in_k_steps(self):
        t = TileConfig(32, 32, 32)
        t1 = matmul_tile_time_us(t, 32, "float32", V100)
        t2 = matmul_tile_time_us(t, 64, "float32", V100)
        t3 = matmul_tile_time_us(t, 96, "float32", V100)
        assert t2 - t1 == pytest.approx(t3 - t2)
        step = matmul_step_time_us(t, "float32", V100)
        assert t2 - t1 == pytest.approx(step)

    def test_fixed_cost_positive(self):
        assert matmul_tile_fixed_time_us(TileConfig(32, 32, 32), "float32", V100) > 0

    def test_load_efficiency_slows_memory_bound_tiles(self):
        t = TileConfig(8, 32, 8)  # memory bound
        fast = matmul_step_time_us(t, "float32", V100, load_efficiency=1.0)
        slow = matmul_step_time_us(t, "float32", V100, load_efficiency=0.25)
        assert slow > fast

    def test_tensor_core_speeds_up_fp16(self):
        t = TileConfig(64, 32, 64)
        cuda = matmul_tile_time_us(t, 4096, "float16", A100, tensor_core=False)
        tc = matmul_tile_time_us(t, 4096, "float16", A100, tensor_core=True)
        # tensor_core=False uses peak fp16 (already tensor-core rate on A100),
        # so compare against an explicitly compute-bound fp32 instead.
        fp32 = matmul_tile_time_us(t, 4096, "float32", A100)
        assert tc <= fp32

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            matmul_tile_time_us(TileConfig(32, 32, 32), 0, "float32", V100)

    def test_rejects_bad_load_efficiency(self):
        with pytest.raises(ValueError):
            matmul_step_time_us(TileConfig(32, 32, 32), "float32", V100, load_efficiency=0.0)


class TestKernelTime:
    def test_wave_quantization(self):
        """81 tiles on 80 SMs take two waves, 80 take one."""
        one = kernel_time_us(V100.num_sms, 10.0, V100)
        two = kernel_time_us(V100.num_sms + 1, 10.0, V100)
        assert two - one == pytest.approx(10.0)

    def test_zero_tiles_costs_launch_only(self):
        assert kernel_time_us(0, 10.0, V100) == pytest.approx(V100.kernel_launch_us)

    def test_negative_tiles_rejected(self):
        with pytest.raises(ValueError):
            kernel_time_us(-1, 10.0, V100)


class TestSparseMatmulTime:
    def test_matches_dense_when_workload_equal(self):
        """A sparse kernel covering everything costs about the dense kernel."""
        t = TileConfig(32, 32, 32)
        m = k = n = 2048
        tiles = (m // 32) * (n // 32)
        steps = tiles * (k // 32)
        dense = dense_matmul_time_us(m, k, n, t, "float32", V100)
        sparse = sparse_matmul_time_us(steps, tiles, t, "float32", V100)
        assert sparse == pytest.approx(dense, rel=0.05)

    def test_scales_down_with_covered_tiles(self):
        t = TileConfig(32, 32, 32)
        full = sparse_matmul_time_us(64000, 1000, t, "float32", V100)
        tenth = sparse_matmul_time_us(6400, 100, t, "float32", V100)
        assert tenth < full / 5

    def test_narrow_microtile_gather_surcharge(self):
        """Micro-tiles narrower than one transaction pay a bandwidth penalty."""
        t = TileConfig(8, 32, 8)  # memory-bound tile shape
        wide = sparse_matmul_time_us(
            1000, 100, t, "float32", V100, sread_contig_bytes=128
        )
        narrow = sparse_matmul_time_us(
            1000, 100, t, "float32", V100, sread_contig_bytes=4
        )
        assert narrow > wide

    def test_detector_cost_added(self):
        t = TileConfig(32, 32, 32)
        base = sparse_matmul_time_us(100, 10, t, "float32", V100)
        with_det = sparse_matmul_time_us(100, 10, t, "float32", V100, detector_us=50.0)
        assert with_det == pytest.approx(base + 50.0)

    def test_rejects_negative_workload(self):
        with pytest.raises(ValueError):
            sparse_matmul_time_us(-1, 0, TileConfig(32, 32, 32), "float32", V100)


class TestBandwidthBoundOps:
    def test_elementwise_scales_with_elements(self):
        small = elementwise_time_us(1 << 20, "float32", V100)
        large = elementwise_time_us(1 << 24, "float32", V100)
        assert large > 10 * small

    def test_softmax_more_passes_than_layernorm(self):
        sm = softmax_time_us(4096, 4096, "float32", V100)
        ln = layernorm_time_us(4096, 4096, "float32", V100)
        assert sm > ln

    def test_fp16_halves_traffic(self):
        fp32 = elementwise_time_us(1 << 24, "float32", V100)
        fp16 = elementwise_time_us(1 << 24, "float16", V100)
        assert fp16 < fp32


class TestPredictedFinish:
    def test_busy_replica_waits_then_runs(self):
        assert predicted_finish_us(100.0, 250.0, 40.0, 0.0) == 290.0

    def test_idle_replica_starts_at_close(self):
        assert predicted_finish_us(100.0, 0.0, 40.0, 0.0) == 140.0

    def test_health_penalty_adds_last(self):
        """The penalty is added after the finish time, left to right, so a
        zero penalty leaves the finish time bit-identical."""
        assert predicted_finish_us(100.0, 0.0, 40.0, 1000.0) == 1140.0
        assert predicted_finish_us(0.0, 0.1, 0.2, 0.3) == (0.1 + 0.2) + 0.3
        assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)

    def test_unservable_batch_or_excluded_replica_prices_infinite(self):
        inf = float("inf")
        assert predicted_finish_us(100.0, 0.0, inf, 0.0) == inf
        assert predicted_finish_us(100.0, 0.0, 40.0, inf) == inf

    @pytest.mark.parametrize("est,penalty", [(-1.0, 0.0), (0.0, -1.0)])
    def test_negative_inputs_rejected(self, est, penalty):
        with pytest.raises(ValueError):
            predicted_finish_us(0.0, 0.0, est, penalty)
