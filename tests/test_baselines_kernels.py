"""Tests for the kernel-level SpMM baselines (Figures 3b, 16, 18 machinery)."""

import numpy as np
import pytest

from repro.baselines import (
    CuSparseKernel,
    DenseKernelBaseline,
    PITSpmmKernel,
    SparTAKernel,
    SputnikKernel,
    TritonBlockSparseKernel,
    mean_run_length,
    triton_convert_passes,
)
from repro.hw import A100, V100
from repro.sparsity import granular_mask


@pytest.fixture(scope="module")
def fine_mask():
    """32x1-granular mask at 95% sparsity (Figure 16's hardest panel)."""
    return granular_mask((2048, 2048), (32, 1), 0.95, seed=0)


@pytest.fixture(scope="module")
def coarse_mask():
    """32x64-granular mask at 95% (the block-friendly panel)."""
    return granular_mask((2048, 2048), (32, 64), 0.95, seed=0)


class TestCuSparse:
    def test_conversion_is_significant_at_high_sparsity(self):
        """Figure 3b: the dense->CSR build is a visible fraction of the
        total even when only 1% of values survive."""
        mask = granular_mask((2048, 2048), (1, 1), 0.99, seed=1)
        r = CuSparseKernel(V100).spmm(mask, 2048)
        assert r.convert_us > 0.05 * r.compute_us
        # ... and it scales with the dense area, not with nnz.
        big = CuSparseKernel(V100).spmm(
            granular_mask((4096, 4096), (1, 1), 0.99, seed=1), 2048
        )
        assert big.convert_us > 3 * r.convert_us

    def test_compute_scales_with_nnz(self):
        k = CuSparseKernel(V100)
        lo = k.spmm(granular_mask((1024, 1024), (1, 1), 0.99, seed=0), 1024)
        hi = k.spmm(granular_mask((1024, 1024), (1, 1), 0.90, seed=0), 1024)
        assert hi.compute_us > 5 * lo.compute_us

    def test_slower_than_dense_at_low_sparsity(self):
        """Figure 3b: at 70% sparsity cuSPARSE loses to dense cuBLAS."""
        mask = granular_mask((2048, 2048), (1, 1), 0.70, seed=2)
        cs = CuSparseKernel(V100).spmm(mask, 2048)
        dense = DenseKernelBaseline(V100).spmm(mask, 2048)
        assert cs.total_us > dense.total_us


class TestSputnik:
    def test_run_length_detector(self):
        assert mean_run_length(np.array([[1, 1, 1, 0, 1]], dtype=bool)) == 2.0
        assert mean_run_length(np.zeros((2, 2), dtype=bool)) == 0.0

    def test_faster_than_cusparse(self, fine_mask):
        sp = SputnikKernel(V100).spmm(fine_mask, 2048)
        cs = CuSparseKernel(V100).spmm(fine_mask, 2048)
        assert sp.compute_us < cs.compute_us

    def test_horizontal_runs_help(self):
        k = SputnikKernel(V100)
        vert = granular_mask((1024, 1024), (32, 1), 0.95, seed=0)
        horz = granular_mask((1024, 1024), (1, 64), 0.95, seed=0)
        assert k.efficiency(horz) > k.efficiency(vert)


class TestTritonBlock:
    def test_block_cover_waste(self, fine_mask):
        r = TritonBlockSparseKernel(V100, block=32).spmm(fine_mask, 2048)
        assert r.detail["coverage_waste"] > 0.5

    def test_no_waste_on_aligned_blocks(self):
        mask = granular_mask((1024, 1024), (32, 32), 0.9, seed=0)
        r = TritonBlockSparseKernel(V100, block=32).spmm(mask, 1024)
        assert r.detail["coverage_waste"] == pytest.approx(0.0)

    def test_convert_passes_grow_with_block(self):
        assert triton_convert_passes(32) > triton_convert_passes(16)

    def test_rejects_tiny_blocks(self):
        with pytest.raises(ValueError):
            TritonBlockSparseKernel(V100, block=4)


class TestSparTA:
    def test_spmm_charges_no_compile_cost(self, coarse_mask):
        r = SparTAKernel(V100).spmm(coarse_mask, 2048)
        assert r.convert_us == 0.0

    def test_beats_triton_on_fine_granularity(self, fine_mask):
        """Figure 16: granularity alignment beats 32x32 blocks at 32x1."""
        sparta = SparTAKernel(V100).spmm(fine_mask, 2048)
        triton = TritonBlockSparseKernel(V100, block=32).spmm(fine_mask, 2048)
        assert sparta.compute_us < triton.compute_us


class TestPITKernelLevel:
    def test_beats_all_baselines_on_fine_granularity(self, fine_mask):
        """The Figure 16 headline at 32x1."""
        n = 2048
        pit = PITSpmmKernel(V100).spmm(fine_mask, n)
        for k in (
            CuSparseKernel(V100),
            SputnikKernel(V100),
            TritonBlockSparseKernel(V100, block=32),
            SparTAKernel(V100),
        ):
            assert pit.compute_us < k.spmm(fine_mask, n).compute_us, k.name

    def test_close_to_triton_on_coarse_blocks(self, coarse_mask):
        """Figure 16 at 32x64: PIT ~ OpenAI block sparse (same dense tiles)."""
        pit = PITSpmmKernel(V100).spmm(coarse_mask, 2048)
        triton = TritonBlockSparseKernel(V100, block=32).spmm(coarse_mask, 2048)
        assert pit.compute_us < 1.3 * triton.compute_us

    def test_convert_far_below_triton(self, fine_mask):
        """Figure 18: PIT's index build is an order of magnitude cheaper."""
        pit = PITSpmmKernel(V100)
        triton = TritonBlockSparseKernel(V100, block=32)
        pit_convert = pit.convert_us(fine_mask, (32, 32))
        assert triton.convert_us(fine_mask) > 10 * pit_convert

    def test_dense_fallback_at_low_sparsity(self):
        mask = granular_mask((1024, 1024), (1, 1), 0.10, seed=0)
        r = PITSpmmKernel(V100).spmm(mask, 1024)
        assert r.detail.get("fallback")
        assert r.convert_us == 0.0

    def test_tensor_core_variant(self):
        mask = granular_mask((1024, 1024), (32, 1), 0.95, seed=0)
        fp16 = PITSpmmKernel(V100, "float16", tensor_core=True).spmm(mask, 1024)
        fp32 = PITSpmmKernel(V100, "float32").spmm(mask, 1024)
        assert fp16.compute_us < fp32.compute_us


#: The libraries that convert the dense input before computing, by name.
CONVERTING_KERNELS = {
    "cuSPARSE": lambda spec: CuSparseKernel(spec),
    "Sputnik": lambda spec: SputnikKernel(spec),
    "Triton-16": lambda spec: TritonBlockSparseKernel(spec, block=16),
    "Triton-32": lambda spec: TritonBlockSparseKernel(spec, block=32),
}


class TestConversionCost:
    """The format conversion each library runs before it can compute
    (Figures 3b and 18), against PIT's single-pass index construction."""

    @pytest.mark.parametrize("name", ["Sputnik", "Triton-16", "Triton-32", "PIT"])
    def test_grows_with_the_dense_area(self, name):
        """4x the dense area costs more than 2x: at these sizes the passes
        over the dense input, not the fixed launches, dominate (cuSPARSE's
        case is in ``TestCuSparse``)."""
        small = granular_mask((1024, 1024), (1, 1), 0.95, seed=3)
        large = granular_mask((2048, 2048), (1, 1), 0.95, seed=3)
        if name == "PIT":
            pit = PITSpmmKernel(V100)
            costs = [pit.convert_us(mask, (1, 1)) for mask in (small, large)]
        else:
            kernel = CONVERTING_KERNELS[name](V100)
            costs = [kernel.convert_us(mask) for mask in (small, large)]
        assert costs[1] > 2 * costs[0]

    @pytest.mark.parametrize("name", list(CONVERTING_KERNELS))
    def test_spmm_charges_the_standalone_conversion(self, name, fine_mask):
        """Figure 3b's Convert bar and Figure 18's conversion are one number."""
        kernel = CONVERTING_KERNELS[name](V100)
        assert kernel.spmm(fine_mask, 256).convert_us == kernel.convert_us(fine_mask)

    @pytest.mark.parametrize("spec", [V100, A100], ids=["V100", "A100"])
    def test_figure18_order(self, spec):
        """Block layouts cost more to build than CSR, wider blocks more than
        narrow ones, Sputnik's row sort more than plain CSR, and PIT's
        detector least of all."""
        mask = granular_mask((2048, 2048), (1, 1), 0.95, seed=3)
        costs = [
            CONVERTING_KERNELS[name](spec).convert_us(mask)
            for name in ("Triton-32", "Triton-16", "Sputnik", "cuSPARSE")
        ]
        costs.append(PITSpmmKernel(spec).convert_us(mask, (1, 1)))
        assert costs == sorted(costs, reverse=True)
        assert len(set(costs)) == len(costs)
