"""Baseline systems the paper compares against.

Kernel level (Figures 3b, 16-18): cuSPARSE, Sputnik, OpenAI/Triton block
sparse, SparTA, cuBLAS dense, plus a PIT adapter.

Model level (Figures 8-15, 19): PyTorch, PyTorch-S, Tutel, DeepSpeed,
MegaBlocks, TurboTransformers, Longformer-S, TVM, and the PIT backend.
"""

from .backends import ModelBackend, TVMBackend, UnsupportedModelError
from .base import DenseKernelBaseline, SpmmKernel, SpmmResult
from .cusparse import CuSparseKernel
from .longformer_s import LongformerSBackend
from .moe_systems import DeepSpeedBackend, MegaBlocksBackend, TutelBackend
from .pit_adapter import PITSpmmKernel
from .pit_backend import PITBackend
from .pytorch_s import PyTorchSBackend
from .sparta import SPARTA_COMPILE_US, SparTAKernel
from .sputnik import SputnikKernel, mean_run_length
from .triton_block import TritonBlockSparseKernel, triton_convert_passes
from .turbo import TURBO_MAX_SEQ, TurboTransformerBackend, length_buckets

#: PyTorch semantics == the dense base backend.
PyTorchBackend = ModelBackend

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
