"""cuSPARSE-style CSR SpMM baseline.

cuSPARSE computes on individual non-zeros in CSR format.  Two properties
drive its curves in Figures 3b and 16:

* **conversion**: the dense->CSR build is a multi-pass, synchronizing
  operation whose cost rivals or exceeds the SpMM itself at high sparsity;
* **compute**: per-non-zero processing gathers B rows element-wise with very
  poor data reuse, so the achieved throughput is a tiny fraction of peak —
  the paper measures PIT up to 88.7x faster.

The efficiency constant below (~1.2% of peak FLOPs) reflects published SpMM
throughput for unstructured CSR on V100-class parts at the evaluated
sparsities.
"""

from __future__ import annotations

import numpy as np

from ..hw.memory import stream_time_us
from ..hw.spec import dtype_bytes
from ..tensor.sparse import CUSPARSE_CONVERT_PASSES
from .base import SpmmKernel, SpmmResult

#: Fraction of device peak FLOPs unstructured CSR SpMM achieves.
CUSPARSE_COMPUTE_EFFICIENCY = 0.012


class CuSparseKernel(SpmmKernel):
    """cuSPARSE CSR SpMM with explicit conversion accounting."""

    name = "cuSPARSE"

    def convert_us(self, mask: np.ndarray) -> float:
        """Dense->CSR conversion latency (the Figure 3b 'Convert' bars)."""
        m, k = mask.shape
        nnz = int(np.count_nonzero(mask))
        dense_bytes = m * k * dtype_bytes(self.dtype)
        index_bytes = (m + 1) * 4 + nnz * (4 + dtype_bytes(self.dtype))
        return (
            stream_time_us(int(dense_bytes * CUSPARSE_CONVERT_PASSES), self.spec)
            + stream_time_us(index_bytes, self.spec)
            + 3 * self.spec.kernel_launch_us
        )

    def compute_us(self, nnz: int, n: int) -> float:
        """CSR SpMM latency: nnz * N MACs at CSR efficiency."""
        flops = 2.0 * nnz * n
        peak = self.spec.peak_flops(self.dtype) / 1e6  # FLOPs per us
        compute = flops / (peak * CUSPARSE_COMPUTE_EFFICIENCY)
        # Index traffic: row pointers + column indices + values once.
        index_bytes = nnz * (4 + dtype_bytes(self.dtype))
        return compute + stream_time_us(index_bytes, self.spec) + self.spec.kernel_launch_us

    def spmm(self, mask: np.ndarray, n: int) -> SpmmResult:
        nnz = int(np.count_nonzero(mask))
        return SpmmResult(
            compute_us=self.compute_us(nnz, n),
            convert_us=self.convert_us(mask),
            detail={"nnz": nnz},
        )
