"""Global-memory access model: streaming and gather/scatter bandwidth.

PIT's central performance argument for SRead/SWrite is that rearranging data
*at micro-tile granularity* is free as long as each micro-tile saturates one
global-memory transaction (32 bytes).  This module provides the byte/latency
accounting behind that argument:

* :func:`stream_time_us` — time for a fully coalesced streaming access,
* :func:`gather_efficiency` — the bandwidth fraction of a
  transaction-granular scattered access (SRead/SWrite), which degrades only
  when micro-tiles are narrower than one transaction.
"""

from __future__ import annotations

from .spec import GPUSpec, dtype_bytes


def stream_time_us(num_bytes: int, spec: GPUSpec) -> float:
    """Time to stream ``num_bytes`` through DRAM at full coalesced bandwidth."""
    if num_bytes <= 0:
        return 0.0
    return num_bytes / spec._bytes_per_us  # bandwidth_bytes_us(), cached


def gather_efficiency(contig_bytes: int, spec: GPUSpec) -> float:
    """Effective bandwidth fraction for a gather with ``contig_bytes``-wide runs.

    A gather whose contiguous runs cover at least one full transaction runs at
    ``spec.gather_efficiency`` of peak (the residual loss models address
    generation and the unordered index).  Narrower runs waste the remainder of
    each transaction: a 4-byte element fetched through a 32-byte transaction
    achieves at most 1/8 of peak.  This is exactly why PIT sizes micro-tiles
    to the transaction granularity (Section 3.1).
    """
    if contig_bytes <= 0:
        raise ValueError("contig_bytes must be positive")
    useful_fraction = min(1.0, contig_bytes / spec.transaction_bytes)
    return spec.gather_efficiency * useful_fraction


def tensor_bytes(shape: tuple, dtype: str) -> int:
    """Total bytes of a dense tensor of ``shape`` and ``dtype``."""
    n = 1
    for s in shape:
        n *= int(s)
    return n * dtype_bytes(dtype)
