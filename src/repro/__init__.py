"""repro: a full Python reproduction of PIT (SOSP 2023).

PIT optimizes dynamic sparse deep-learning models by merging sparsely located
micro-tiles into GPU-efficient dense computation tiles via Permutation
Invariant Transformation.  ``docs/`` describes the planning, serving and
training layers; ``examples/`` runs each end to end.

Package map:

* :mod:`repro.core` — the paper's contribution: PIT-axis inference,
  micro-tiles, CoverAlgo, Algorithm 1, the online detector, SRead/SWrite,
  generated kernels and the JIT compiler.
* :mod:`repro.hw` — analytical GPU model (A100/V100): tile costs, memory
  transactions, footprint tracking, Tensor Core constraints.
* :mod:`repro.tensor` — dense numpy operators for the functional models and
  the sparse libraries' format-conversion pass counts.
* :mod:`repro.sparsity` — dynamic-sparsity workload generators.
* :mod:`repro.baselines` — cuSPARSE/Sputnik/Triton/SparTA and the
  end-to-end systems (PyTorch, Tutel, DeepSpeed, MegaBlocks, ...).
* :mod:`repro.models` — the Table 2 model zoo and functional references.
* :mod:`repro.runtime` — the engine, sessions, training, reporting.
"""

__version__ = "1.0.0"

from . import baselines, core, hw, models, runtime, sparsity, tensor  # noqa: E402,F401

__all__ = [
    "baselines",
    "core",
    "hw",
    "models",
    "runtime",
    "sparsity",
    "tensor",
    "__version__",
]
