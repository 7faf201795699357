"""Shared baseline machinery.

Two baseline families mirror the paper's comparisons:

* **kernel-level** (Figures 3b, 16, 17, 18): sparse matrix-multiplication
  libraries exposing ``spmm(mask, n) -> SpmmResult`` with separate compute
  and format-conversion costs;
* **model-level** (Figures 8-15, 19): end-to-end inference/training systems
  exposing transformer-op primitives with each system's padding, conversion
  and fusion semantics.  Those live in :mod:`repro.baselines.backends`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.tiledb import TileDB
from ..hw.costmodel import dense_matmul_time_us
from ..hw.spec import GPUSpec


@dataclass(frozen=True)
class SpmmResult:
    """One sparse-matmul invocation: compute + conversion latency (us)."""

    compute_us: float
    convert_us: float = 0.0
    detail: dict = field(default_factory=dict)

    @property
    def total_us(self) -> float:
        return self.compute_us + self.convert_us


class SpmmKernel:
    """Base class for kernel-level SpMM baselines.

    Subclasses implement :meth:`spmm` for ``C[M,N] = A_sparse[M,K] @ B[K,N]``
    where ``mask`` is A's non-zero mask.
    """

    name = "abstract"

    def __init__(self, spec: GPUSpec, dtype: str = "float32"):
        self.spec = spec
        self.dtype = dtype

    def spmm(self, mask: np.ndarray, n: int) -> SpmmResult:
        raise NotImplementedError

    def dense_reference_us(self, m: int, k: int, n: int) -> float:
        """cuBLAS-style dense latency for the same problem."""
        db = TileDB.shared(self.spec, self.dtype)
        entry = db.best_dense_tile(m, k, n)
        return dense_matmul_time_us(m, k, n, entry.tile, self.dtype, self.spec)


class DenseKernelBaseline(SpmmKernel):
    """cuBLAS: ignore sparsity, run the dense kernel (Figure 3b's yardstick)."""

    name = "cuBLAS"

    def spmm(self, mask: np.ndarray, n: int) -> SpmmResult:
        m, k = mask.shape
        return SpmmResult(compute_us=self.dense_reference_us(m, k, n))
