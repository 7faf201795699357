"""Analytical kernel cost model: tiles, waves, and kernel latency.

This is the performance substrate every benchmark rests on.  It models GPU
kernels the way the paper reasons about them (Sections 2.2 and 3.2):

* a kernel is a grid of *tiles* (thread blocks), each producing one output
  tile while streaming its operand slices through shared memory;
* one tile's latency is the max of its compute time and its memory time,
  plus a fixed per-tile scheduling overhead — small tiles therefore have a
  worse latency per useful FLOP, which is the GPU-efficiency side of the
  tile-shape dilemma in Figure 3a;
* kernel latency is wave-quantized: ``ceil(num_tiles / num_sms)`` rounds of
  the per-tile latency, plus one kernel-launch overhead;
* Algorithm 1 estimates a sparse kernel's cost as
  ``num_covered_tiles * tile_cost`` — :func:`sparse_matmul_time_us` implements
  exactly that, with the detector and SRead/SWrite surcharges added on top.

All times are microseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .memory import gather_efficiency, stream_time_us
from .spec import GPUSpec, dtype_bytes

#: Number of output elements per thread block that saturates one SM's
#: arithmetic pipelines.  A 32x32 tile (1024 outputs) reaches full efficiency;
#: an 8x8 tile (64 outputs) reaches 1/16 of it.  This single constant
#: reproduces the "GPU-efficient tiles vs. sparsity-aligned tiles" tension.
FULL_EFFICIENCY_OUTPUTS = 1024

#: Efficiency floor: even tiny blocks retire some work per cycle.
MIN_COMPUTE_EFFICIENCY = 1.0 / 64.0


@dataclass(frozen=True)
class TileConfig:
    """A dense matmul computation tile ``[tm, tk] x [tk, tn] -> [tm, tn]``.

    ``tm``/``tn`` are the output tile extents; ``tk`` is the shared-memory
    K-step.  The paper's tile database stores such shapes together with their
    profiled per-tile cost (Section 3.2, "offline profiling").
    """

    tm: int
    tk: int
    tn: int

    def __post_init__(self) -> None:
        if self.tm < 1 or self.tk < 1 or self.tn < 1:
            raise ValueError(f"tile extents must be >= 1, got {self}")

    @property
    def output_elems(self) -> int:
        return self.tm * self.tn

    def describe(self) -> str:
        """Paper-style rendering, e.g. ``[32, 64] x [64, 32]``."""
        return f"[{self.tm}, {self.tk}] x [{self.tk}, {self.tn}]"


def compute_efficiency(tile: TileConfig) -> float:
    """Fraction of one SM's peak FLOPs a tile of this shape can use.

    Efficiency grows with the number of output elements per block (more
    threads, more ILP, better latency hiding) and saturates at 1.0.  Very
    skewed tiles (tm or tn of 1-2) lose a little extra to poor register
    blocking.
    """
    parallelism = min(1.0, tile.output_elems / FULL_EFFICIENCY_OUTPUTS)
    skew = min(tile.tm, tile.tn) / max(tile.tm, tile.tn)
    skew_factor = 0.5 + 0.5 * min(1.0, skew * 8.0)
    return max(MIN_COMPUTE_EFFICIENCY, parallelism * skew_factor)


def matmul_step_time_us(
    tile: TileConfig,
    dtype: str,
    spec: GPUSpec,
    *,
    tensor_core: bool = False,
    load_efficiency: float = 1.0,
) -> float:
    """Latency of one K-step of a matmul tile.

    A K-step loads ``tm*tk + tk*tn`` elements into shared memory and performs
    ``2*tm*tk*tn`` FLOPs; its time is ``max(compute, memory)`` because the
    two pipelines overlap.  ``load_efficiency`` scales the effective load
    bandwidth (SRead uses it to model transaction-granular gathers).
    """
    if not 0.0 < load_efficiency <= 1.0:
        raise ValueError("load_efficiency must be in (0, 1]")
    dsize = dtype_bytes(dtype)
    eff = compute_efficiency(tile)
    flops_per_step = 2.0 * tile.tm * tile.tk * tile.tn
    dtype_for_peak = dtype if not tensor_core else "float16"
    compute_us = flops_per_step / (spec.flops_per_sm_us(dtype_for_peak) * eff)
    bytes_per_step = (tile.tm * tile.tk + tile.tk * tile.tn) * dsize
    mem_us = bytes_per_step / (spec.bandwidth_per_sm_us() * load_efficiency)
    return max(compute_us, mem_us)


def matmul_tile_fixed_time_us(tile: TileConfig, dtype: str, spec: GPUSpec) -> float:
    """Per-tile cost independent of K: output write plus block scheduling."""
    dsize = dtype_bytes(dtype)
    out_us = (tile.output_elems * dsize) / spec.bandwidth_per_sm_us()
    return out_us + spec.tile_overhead_us


def matmul_tile_time_us(
    tile: TileConfig,
    k_extent: int,
    dtype: str,
    spec: GPUSpec,
    *,
    tensor_core: bool = False,
) -> float:
    """Latency of one output tile accumulating over ``k_extent``.

    ``ceil(k_extent / tk)`` K-steps at :func:`matmul_step_time_us` each, plus
    the per-tile fixed cost (:func:`matmul_tile_fixed_time_us`).
    """
    if k_extent < 1:
        raise ValueError("k_extent must be >= 1")
    steps = math.ceil(k_extent / tile.tk)
    step = matmul_step_time_us(tile, dtype, spec, tensor_core=tensor_core)
    return steps * step + matmul_tile_fixed_time_us(tile, dtype, spec)


def kernel_time_us(num_tiles: int, tile_time_us: float, spec: GPUSpec) -> float:
    """Wave-quantized kernel latency for ``num_tiles`` blocks.

    Blocks are scheduled in waves of ``num_sms`` (one resident block per SM is
    enough for this model because per-tile times already include latency
    hiding via the max(compute, memory) overlap).
    """
    if num_tiles < 0:
        raise ValueError("num_tiles must be >= 0")
    if num_tiles == 0:
        return spec.kernel_launch_us
    waves = math.ceil(num_tiles / spec.num_sms)
    return waves * tile_time_us + spec.kernel_launch_us


def dense_matmul_time_us(
    m: int,
    k: int,
    n: int,
    tile: TileConfig,
    dtype: str,
    spec: GPUSpec,
    *,
    tensor_core: bool = False,
) -> float:
    """Latency of a dense matmul with the given tile."""
    tiles_m = math.ceil(m / tile.tm)
    tiles_n = math.ceil(n / tile.tn)
    num_tiles = tiles_m * tiles_n
    t_tile = matmul_tile_time_us(tile, k, dtype, spec, tensor_core=tensor_core)
    return kernel_time_us(num_tiles, t_tile, spec)


def sparse_matmul_time_us(
    total_k_steps: int,
    num_output_tiles: int,
    tile: TileConfig,
    dtype: str,
    spec: GPUSpec,
    *,
    tensor_core: bool = False,
    sread_contig_bytes: int | None = None,
    detector_us: float = 0.0,
) -> float:
    """Latency of a PIT-style sparse matmul kernel (Algorithm 1's cost).

    ``total_k_steps`` is the total number of K-steps across all dense
    computation tiles after micro-tile merging (CoverAlgo's output), and
    ``num_output_tiles`` the number of distinct output tiles (each pays the
    fixed write/scheduling cost once).  ``sread_contig_bytes`` is the
    contiguous run length of one micro-tile; when provided, operand loads run
    at gather efficiency instead of streaming efficiency — the SRead
    surcharge, near zero once micro-tiles saturate a 32B transaction.
    """
    if total_k_steps < 0 or num_output_tiles < 0:
        raise ValueError("workload counts must be non-negative")
    load_eff = 1.0
    if sread_contig_bytes is not None:
        load_eff = gather_efficiency(sread_contig_bytes, spec)
    step = matmul_step_time_us(
        tile, dtype, spec, tensor_core=tensor_core, load_efficiency=load_eff
    )
    fixed = matmul_tile_fixed_time_us(tile, dtype, spec)
    step_waves = math.ceil(total_k_steps / spec.num_sms)
    tile_waves = math.ceil(num_output_tiles / spec.num_sms)
    return step_waves * step + tile_waves * fixed + spec.kernel_launch_us + detector_us


def predicted_finish_us(
    close_us: float, free_at_us: float, est_exec_us: float, penalty_us: float
) -> float:
    """Predicted completion time of a batch placed on one replica, plus
    the replica's health penalty.

    The cost-aware placement objective: a batch closed at ``close_us`` can
    start no earlier than the replica frees up, then runs for the device
    model's estimated execution time.  ``inf`` estimates (a batch the device
    cannot serve, e.g. predicted OOM) propagate, pushing placement toward
    replicas that can finish at all.  A suspect replica's finite
    ``penalty_us`` makes healthy peers win ties without excluding it, while
    a quarantined or dead replica's ``inf`` penalty excludes it whenever
    any alternative exists; a healthy replica's penalty is zero.
    """
    if est_exec_us < 0:
        raise ValueError("est_exec_us must be >= 0")
    if penalty_us < 0:
        raise ValueError("penalty_us must be >= 0")
    return max(close_us, free_at_us) + est_exec_us + penalty_us


def elementwise_time_us(
    num_elems: int,
    dtype: str,
    spec: GPUSpec,
    *,
    num_inputs: int = 1,
) -> float:
    """Latency of a bandwidth-bound elementwise kernel (ReLU, add, mask...)
    that reads ``num_inputs`` tensors and writes one."""
    total_bytes = num_elems * dtype_bytes(dtype) * (num_inputs + 1)
    return stream_time_us(total_bytes, spec) + spec.kernel_launch_us


def reduction_time_us(
    num_input_elems: int,
    dtype: str,
    spec: GPUSpec,
    *,
    passes: int = 1,
) -> float:
    """Latency of a bandwidth-bound reduction (softmax row-max/sum, layernorm).

    ``passes`` counts how many times the input is streamed; a numerically
    stable softmax streams three times (max, exp-sum, normalize), layernorm
    twice.
    """
    bytes_per_pass = num_input_elems * dtype_bytes(dtype)
    return passes * stream_time_us(bytes_per_pass, spec) + spec.kernel_launch_us


def softmax_time_us(rows: int, cols: int, dtype: str, spec: GPUSpec) -> float:
    """Latency of a row-wise numerically stable softmax."""
    return reduction_time_us(rows * cols, dtype, spec, passes=3)


def layernorm_time_us(rows: int, cols: int, dtype: str, spec: GPUSpec) -> float:
    """Latency of a row-wise layer normalization."""
    return reduction_time_us(rows * cols, dtype, spec, passes=2)
