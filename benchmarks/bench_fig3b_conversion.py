"""Figure 3b: sparse-format conversion overheads vs. dense cuBLAS.

cuSPARSE / Sputnik pay a format conversion that rivals their computation;
SparTA pays a 400-600 *second* specialization per pattern.  Paper shape:
at moderate sparsity, conversion+compute of the sparse libraries is worse
than just running dense cuBLAS.
"""

import pytest

from repro.baselines import (
    CuSparseKernel,
    DenseKernelBaseline,
    SPARTA_COMPILE_US,
    SputnikKernel,
)
from repro.hw import V100
from repro.sparsity import granular_mask

from .conftest import paper_note

SPARSITIES = (0.70, 0.90, 0.99)
SIZE = 4096


def conversion_rows():
    rows = []
    dense = DenseKernelBaseline(V100)
    for sparsity in SPARSITIES:
        mask = granular_mask((SIZE, SIZE), (1, 1), sparsity, seed=3)
        cublas = dense.spmm(mask, SIZE)
        rows.append(
            [
                f"{sparsity * 100:.0f}%",
                f"{cublas.total_us / 1e3:.2f}ms",
                _fmt(CuSparseKernel(V100).spmm(mask, SIZE)),
                _fmt(SputnikKernel(V100).spmm(mask, SIZE)),
                f"compile {SPARTA_COMPILE_US / 1e6:.0f}s",
            ]
        )
    return rows


def _fmt(result):
    return (
        f"{result.compute_us / 1e3:.2f}ms + {result.convert_us / 1e3:.2f}ms conv"
    )


@pytest.mark.benchmark(group="fig3b")
def test_fig3b_conversion_overheads(benchmark, print_table):
    rows = benchmark.pedantic(conversion_rows, rounds=1, iterations=1)
    print(
        paper_note(
            "Figure 3b — conversion overheads (4096^3 SpMM, V100)",
            "cuSPARSE/Sputnik conversion makes them worse than dense cuBLAS "
            "at 70-90% sparsity; SparTA compiles for 400-600 seconds",
        )
    )
    print_table(
        ["sparsity", "cuBLAS", "cuSPARSE", "Sputnik", "SparTA"], rows
    )

    # Shape assertions.
    mask70 = granular_mask((SIZE, SIZE), (1, 1), 0.70, seed=3)
    cublas = DenseKernelBaseline(V100).spmm(mask70, SIZE)
    for kern in (CuSparseKernel(V100), SputnikKernel(V100)):
        assert kern.spmm(mask70, SIZE).total_us > cublas.total_us, kern.name
    # SparTA's AOT compile is ~8 orders of magnitude above kernel time.
    assert SPARTA_COMPILE_US > 1e6 * cublas.total_us / 1e3
