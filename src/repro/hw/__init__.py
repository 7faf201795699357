"""Analytical GPU hardware model: the performance substrate.

Public surface:

* :mod:`repro.hw.spec` — device specifications (:data:`A100`, :data:`V100`).
* :mod:`repro.hw.costmodel` — tile/kernel latency model.
* :mod:`repro.hw.memory` — transaction-granular memory access costs.
* :mod:`repro.hw.memtracker` — footprint accounting and simulated OOM.
* :mod:`repro.hw.profiler` — offline tile profiling feeding the TileDB.
* :mod:`repro.hw.wmma` — Tensor Core instruction constraints.
* :mod:`repro.hw.timeline` — per-op execution reports.
"""

from .. import _lazy_exports

__all__ = [
    "A100",
    "V100",
    "V100_16GB",
    "ExecReport",
    "GPUSpec",
    "MemoryTracker",
    "OutOfMemoryError",
    "SparseTensorCore",
    "TileConfig",
    "TileProfile",
    "Timeline",
    "WMMA_FP16_SHAPES",
    "compute_efficiency",
    "dense_matmul_time_us",
    "dtype_bytes",
    "elementwise_time_us",
    "gather_efficiency",
    "get_gpu",
    "is_two_four_eligible",
    "kernel_time_us",
    "layernorm_time_us",
    "matmul_step_time_us",
    "matmul_tile_fixed_time_us",
    "matmul_tile_time_us",
    "parse_lineup",
    "predicted_finish_us",
    "profile_matmul_tiles",
    "reduction_time_us",
    "softmax_time_us",
    "sparse_matmul_time_us",
    "stream_time_us",
    "tensor_bytes",
    "wmma_supports",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "costmodel": (
        "TileConfig", "compute_efficiency", "dense_matmul_time_us",
        "elementwise_time_us", "kernel_time_us", "layernorm_time_us",
        "matmul_step_time_us", "matmul_tile_fixed_time_us",
        "matmul_tile_time_us", "predicted_finish_us", "reduction_time_us",
        "softmax_time_us", "sparse_matmul_time_us",
    ),
    "memory": ("gather_efficiency", "stream_time_us", "tensor_bytes"),
    "memtracker": ("MemoryTracker", "OutOfMemoryError"),
    "profiler": ("TileProfile", "profile_matmul_tiles"),
    "spec": (
        "A100", "V100", "V100_16GB", "GPUSpec", "dtype_bytes", "get_gpu",
        "parse_lineup",
    ),
    "timeline": ("ExecReport", "Timeline"),
    "wmma": (
        "WMMA_FP16_SHAPES", "SparseTensorCore", "is_two_four_eligible",
        "wmma_supports",
    ),
})
