"""PIT compiler front-end (Figure 5's architecture, end to end).

``PITCompiler`` ties the pieces together the way the runtime in Section 3
does: given a :class:`~repro.core.plan.PlanSpec` (or sparsity samples to
derive one from) it resolves the kernel plan through the shared
:class:`~repro.core.plan.Planner` — Algorithm 1 over the TileDB, memoized on
the spec — JIT-"generates" the sparse kernel for the winning rule, and
returns a :class:`CompiledMatmul` whose ``run`` detects sparsity online and
executes with SRead/SWrite.

Compiled kernels are cached per *spec* — shape, operand **and** quantized
sparsity signature — so two sparsity regimes of one shape each keep their
own kernel (the old shape-only cache silently served whichever compiled
first).  The kernel is still reused across invocations even though every
invocation sees a different exact pattern; only the cheap online index is
rebuilt (Figure 20 shows why caching per *pattern* would be useless).
Fresh samples that quantize to a new signature name a new spec, which
compiles its own kernel — the "Sparse Tensor Samples / Periodically" arrow
of Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..hw.spec import GPUSpec
from .kernels import (
    DenseMatmulKernel,
    KernelResult,
    kernel_from_choice,
)
from .plan import Planner, PlanSpec
from .selection import KernelChoice
from .tiledb import TileDB


@dataclass
class CompiledMatmul:
    """A JIT-compiled (possibly sparse) matmul bound to one problem shape."""

    m: int
    k: int
    n: int
    choice: KernelChoice
    kernel: object  # SparseMatmulKernel | DenseMatmulKernel
    sparse_operand: str
    #: The spec this kernel was compiled for (None for hand-built instances).
    spec: Optional[PlanSpec] = None

    def run(self, a: np.ndarray, b: np.ndarray, *, mask=None, seed: int = 0) -> KernelResult:
        """Execute with online sparsity detection on the current input."""
        if isinstance(self.kernel, DenseMatmulKernel):
            return self.kernel.run(a, b)
        return self.kernel.run(a, b, mask=mask, seed=seed)

class PITCompiler:
    """JIT compiler for dynamically sparse operators on one device."""

    def __init__(self, spec: GPUSpec, dtype: str = "float32"):
        self.spec = spec
        self.dtype = dtype
        self.tiledb = TileDB.shared(spec, dtype)
        #: The single Algorithm 1 entry point; its private cache lets
        #: statistically alike sample sets skip the search.
        self.planner = Planner(self.tiledb)
        self._cache: dict = {}  # PlanSpec -> CompiledMatmul

    def plan_spec(self, sparsity_samples, m: int, k: int, n: int) -> PlanSpec:
        """The ``proj`` :class:`PlanSpec` these samples of a sparse-A
        ``[m,k,n]`` matmul name."""
        return self.planner.make_spec("proj", sparsity_samples, m, k, n)

    def compile(self, spec: PlanSpec, sparsity_samples=None) -> CompiledMatmul:
        """Resolve ``spec`` through the planner and instantiate its kernel.

        ``sparsity_samples`` are only consulted when the plan is not cached
        (Algorithm 1 needs masks to search over); a warm spec compiles
        without touching a mask.
        """
        hit = self._cache.get(spec)
        if hit is not None:
            return hit
        make_samples = (
            (lambda: sparsity_samples) if sparsity_samples is not None else None
        )
        resolved = self.planner.resolve(spec, make_samples)
        kernel = kernel_from_choice(
            resolved.choice,
            self.spec,
            self.dtype,
            sparse_operand=spec.sparse_operand,
        )
        compiled = CompiledMatmul(
            m=spec.m,
            k=spec.k,
            n=spec.n,
            choice=resolved.choice,
            kernel=kernel,
            sparse_operand=spec.sparse_operand,
            spec=spec,
        )
        self._cache[spec] = compiled
        return compiled
