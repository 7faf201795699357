"""GPU device specifications for the analytical hardware model.

The paper evaluates PIT on NVIDIA A100-80GB and V100-32GB GPUs.  This module
captures the first-order architectural parameters those figures depend on:

* number of streaming multiprocessors (SMs) — governs wave quantization,
* peak arithmetic throughput per precision — governs compute-bound tiles,
* DRAM bandwidth — governs memory-bound tiles and format conversions,
* the 32-byte global-memory transaction granularity — governs the minimum
  micro-tile size (PIT, Section 3.1: "the read/write transaction of global
  memory in CUDA GPUs is 32 bytes, the smallest micro-tile size on this type
  of accelerator is 1x8 float32"),
* shared-memory capacity — caps tile working sets,
* device memory capacity — governs the OOM events in Figures 8, 12 and 13.

All latency values produced by the model are in microseconds and all sizes in
bytes unless a name says otherwise.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass


#: Bytes per element for the precisions used in the paper's evaluation.
DTYPE_BYTES = {
    "float64": 8,
    "float32": 4,
    "float16": 2,
    "bfloat16": 2,
    "int32": 4,
    "int8": 1,
}


def dtype_bytes(dtype: str) -> int:
    """Return the storage size of one element of ``dtype``.

    Raises ``KeyError`` with a helpful message for unknown dtypes so that a
    typo in a benchmark configuration fails loudly rather than silently
    producing a nonsense cost.
    """
    try:
        return DTYPE_BYTES[dtype]
    except KeyError:
        known = ", ".join(sorted(DTYPE_BYTES))
        raise KeyError(f"unknown dtype {dtype!r}; known dtypes: {known}") from None


@dataclass(frozen=True)
class GPUSpec:
    """An analytical model of a CUDA GPU.

    The model is intentionally simple — it captures exactly the effects the
    paper's evaluation reasons about (tile efficiency, wave quantization,
    bandwidth-bound conversions, memory capacity) and nothing more.
    """

    name: str
    #: Number of streaming multiprocessors.
    num_sms: int
    #: Peak fp32 throughput in TFLOP/s (CUDA cores).
    fp32_tflops: float
    #: Peak fp16 throughput in TFLOP/s (Tensor Cores where available).
    fp16_tflops: float
    #: DRAM bandwidth in GB/s.
    mem_bandwidth_gbs: float
    #: Device memory capacity in GiB.
    mem_capacity_gib: float
    #: Shared memory per SM in KiB.
    shared_mem_per_sm_kib: int

    # Parameters every modeled GPU shares: class attributes, not fields.
    #: Global-memory read/write transaction granularity in bytes.
    transaction_bytes = 32
    #: Fixed cost of launching one kernel, in microseconds.
    kernel_launch_us = 5.0
    #: Per-thread-block scheduling overhead, in microseconds.  Small tiles pay
    #: this relatively more, which is the root of the tile-shape dilemma in
    #: Figure 3a.
    tile_overhead_us = 0.25
    #: Whether the device has Tensor Cores usable through wmma.
    has_tensor_cores = True
    #: Relative efficiency of scattered (transaction-granular) global memory
    #: access vs. fully coalesced streaming access.  SRead/SWrite at
    #: micro-tile granularity run at this fraction of peak bandwidth — near
    #: unity once each micro-tile fills a whole transaction (the paper's
    #: "negligible overhead" claim for SRead/SWrite, Section 5.3).
    gather_efficiency = 0.95

    def __post_init__(self) -> None:
        # A frozen spec keys every plan-cache lookup and prices every
        # bandwidth-bound op: hash it and derive its bandwidth once.
        object.__setattr__(self, "_hash", hash(astuple(self)))
        object.__setattr__(self, "_bytes_per_us", self.mem_bandwidth_gbs * 1e9 / 1e6)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle the fields alone: the cached hash covers ``name``, whose str
        # hash differs between interpreters, so the receiving side rebuilds
        # it through __init__.
        return (type(self), astuple(self))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def peak_flops(self, dtype: str) -> float:
        """Peak throughput in FLOP/s for ``dtype``."""
        if dtype in ("float16", "bfloat16") and self.has_tensor_cores:
            return self.fp16_tflops * 1e12
        if dtype == "float64":
            return self.fp32_tflops * 1e12 / 2.0
        return self.fp32_tflops * 1e12

    def flops_per_sm_us(self, dtype: str) -> float:
        """Peak FLOPs one SM can retire in one microsecond."""
        return self.peak_flops(dtype) / self.num_sms / 1e6

    def bandwidth_bytes_us(self) -> float:
        """DRAM bandwidth in bytes per microsecond (whole device)."""
        return self._bytes_per_us

    def bandwidth_per_sm_us(self) -> float:
        """Fair-share DRAM bandwidth of one SM, bytes per microsecond."""
        return self.bandwidth_bytes_us() / self.num_sms

    def mem_capacity_bytes(self) -> int:
        """Device memory capacity in bytes."""
        return int(self.mem_capacity_gib * (1 << 30))

#: NVIDIA A100-80GB (SXM).  108 SMs, 19.5 fp32 TFLOP/s, 312 fp16 TFLOP/s
#: (Tensor Core), 2039 GB/s HBM2e.
A100 = GPUSpec(
    name="A100-80GB",
    num_sms=108,
    fp32_tflops=19.5,
    fp16_tflops=312.0,
    mem_bandwidth_gbs=2039.0,
    mem_capacity_gib=80.0,
    shared_mem_per_sm_kib=164,
)

#: NVIDIA V100-32GB (SXM2).  80 SMs, 15.7 fp32 TFLOP/s, 125 fp16 TFLOP/s,
#: 900 GB/s HBM2.
V100 = GPUSpec(
    name="V100-32GB",
    num_sms=80,
    fp32_tflops=15.7,
    fp16_tflops=125.0,
    mem_bandwidth_gbs=900.0,
    mem_capacity_gib=32.0,
    shared_mem_per_sm_kib=96,
)

#: V100 with 16GB of memory — footnote 2 of the paper notes index-construction
#: behaviour differs slightly on the 16GB part; we expose it so that the
#: footnote can be explored.
V100_16GB = GPUSpec(
    name="V100-16GB",
    num_sms=80,
    fp32_tflops=15.7,
    fp16_tflops=125.0,
    mem_bandwidth_gbs=900.0,
    mem_capacity_gib=16.0,
    shared_mem_per_sm_kib=96,
)


_REGISTRY = {
    "a100": A100,
    "a100-80gb": A100,
    "v100": V100,
    "v100-32gb": V100,
    "v100-16gb": V100_16GB,
}


def get_gpu(name: str) -> GPUSpec:
    """Look up a device spec by (case-insensitive) name."""
    key = name.strip().lower()
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown GPU {name!r}; known GPUs: {known}") from None


def parse_lineup(text: str) -> list:
    """Parse a heterogeneous replica lineup like ``"2xa100+v100"``.

    The grammar is ``count x name`` terms joined by ``+`` (or ``,``), with
    the count optional: ``"a100+v100"`` is one of each,
    ``"2xa100+2xv100"`` a four-replica mixed fleet.  Order is preserved —
    replica ids follow lineup order — and every name resolves through
    :func:`get_gpu`, so a typo fails loudly with the known-device list.
    """
    specs = []
    for term in text.replace(",", "+").split("+"):
        term = term.strip().lower()  # names resolve case-insensitively
        if not term:
            raise ValueError(f"empty term in lineup {text!r}")
        count, name = 1, term
        head, sep, tail = term.partition("x")
        if sep and head.strip().isdigit():
            count, name = int(head), tail
        if count < 1:
            raise ValueError(f"replica count must be >= 1 in {term!r}")
        specs.extend([get_gpu(name)] * count)
    return specs
