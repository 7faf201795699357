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

Every package resolves its public names on first use, so a process loads
only the modules it touches: a serving process never loads the linter,
asyncio or the baselines it does not run (``docs/performance.md``,
*Cold start*).
"""

from importlib import import_module as _import_module

__version__ = "1.0.0"

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


def _lazy_exports(namespace: dict, exports: dict):
    """PEP 562 ``__getattr__`` and ``__dir__`` for the package whose
    globals are ``namespace``.

    ``exports`` maps each submodule to the public names it defines; a name
    that is its own submodule (this package's subpackages) resolves to the
    module.  The first lookup of a name imports its submodule and caches
    the object in the package's globals, where later lookups find it.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = _import_module(f"{package}.{module}")
        if name != module:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(
    globals(), {name: (name,) for name in __all__ if name != "__version__"}
)
