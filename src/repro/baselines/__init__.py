"""Baseline systems the paper compares against.

Kernel level (Figures 3b, 16-18): cuSPARSE, Sputnik, OpenAI/Triton block
sparse, SparTA, cuBLAS dense, plus a PIT adapter.

Model level (Figures 8-15, 19): PyTorch, PyTorch-S, Tutel, DeepSpeed,
MegaBlocks, TurboTransformers, Longformer-S, TVM, and the PIT backend.
"""

from .. import _lazy_exports

__all__ = [
    "CuSparseKernel",
    "DeepSpeedBackend",
    "DenseKernelBaseline",
    "LongformerSBackend",
    "MegaBlocksBackend",
    "ModelBackend",
    "PITBackend",
    "PITSpmmKernel",
    "PyTorchBackend",
    "PyTorchSBackend",
    "SPARTA_COMPILE_US",
    "SparTAKernel",
    "SpmmKernel",
    "SpmmResult",
    "SputnikKernel",
    "TURBO_MAX_SEQ",
    "TVMBackend",
    "TritonBlockSparseKernel",
    "TurboTransformerBackend",
    "TutelBackend",
    "UnsupportedModelError",
    "length_buckets",
    "mean_run_length",
    "triton_convert_passes",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "backends": (
        "ModelBackend", "PyTorchBackend", "TVMBackend", "UnsupportedModelError",
    ),
    "base": ("DenseKernelBaseline", "SpmmKernel", "SpmmResult"),
    "cusparse": ("CuSparseKernel",),
    "longformer_s": ("LongformerSBackend",),
    "moe_systems": ("DeepSpeedBackend", "MegaBlocksBackend", "TutelBackend"),
    "pit_adapter": ("PITSpmmKernel",),
    "pit_backend": ("PITBackend",),
    "pytorch_s": ("PyTorchSBackend",),
    "sparta": ("SPARTA_COMPILE_US", "SparTAKernel"),
    "sputnik": ("SputnikKernel", "mean_run_length"),
    "triton_block": ("TritonBlockSparseKernel", "triton_convert_passes"),
    "turbo": ("TURBO_MAX_SEQ", "TurboTransformerBackend", "length_buckets"),
})
