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
from .selection import KernelChoice, PlanCache
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

    def __init__(
        self,
        spec: GPUSpec,
        dtype: str = "float32",
        *,
        tensor_core: bool = False,
        max_tiles: int = 24,
        plan_cache: Optional[PlanCache] = None,
    ):
        self.spec = spec
        self.dtype = dtype
        self.tensor_core = tensor_core
        self.tiledb = TileDB.shared(
            spec, dtype, tensor_core=tensor_core, max_tiles=max_tiles
        )
        #: The single Algorithm 1 entry point.  When a shared
        #: :class:`PlanCache` is supplied (the serving engine threads one
        #: through compiler, backend and scheduler) selection outcomes are
        #: shared across all of them; otherwise the planner owns a private
        #: cache so statistically alike sample sets still skip the search.
        self.planner = Planner(self.tiledb, plan_cache)
        self.plan_cache = self.planner.cache
        self._cache: dict = {}  # PlanSpec -> CompiledMatmul

    def plan_spec(
        self,
        sparsity_samples,
        m: int,
        k: int,
        n: int,
        *,
        sparse_operand: str = "A",
        kind: str = "proj",
    ) -> PlanSpec:
        """The :class:`PlanSpec` these samples of an ``[m,k,n]`` matmul name."""
        return self.planner.make_spec(
            kind, sparsity_samples, m, k, n, sparse_operand=sparse_operand
        )

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
            tensor_core=self.tensor_core,
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
