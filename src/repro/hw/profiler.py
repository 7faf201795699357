"""Offline tile profiling (Section 3.2 / Section 4).

The paper: "PIT just records the execution time of different tile shapes
(e.g., 32x32 and 64x64) for dense computation. Therefore, the offline
profiling is conducted once per operator and per GPU type."

:func:`profile_matmul_tiles` enumerates a realistic set of dense matmul tile
shapes and records each one's per-tile latency on the analytical device model.
The result feeds the TileDB (``repro.core.tiledb``) exactly like the authors'
performance look-up table feeds their micro-tile selector.  Profiles are
cached per (device, dtype) so repeated benchmark runs do not re-enumerate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .costmodel import TileConfig, matmul_tile_time_us
from .spec import GPUSpec
from .wmma import wmma_supports

#: Candidate extents for the output-tile dimensions.
_TM_CANDIDATES = (8, 16, 32, 64, 128)
_TN_CANDIDATES = (8, 16, 32, 64, 128)
#: Candidate K-step extents.
_TK_CANDIDATES = (8, 16, 32, 64)

#: Reference K extent used to express profiled costs per-tile.  The tile cost
#: stored in the DB is normalized to "per K element" so selection can rescale
#: it to any problem's K extent.
_PROFILE_K = 4096


@dataclass(frozen=True)
class TileProfile:
    """One profiled dense computation tile."""

    tile: TileConfig
    #: Per-tile latency for a K-extent of 1 element (microseconds); multiply
    #: by the problem's K extent (plus the fixed overhead) to estimate cost.
    time_per_k_us: float
    #: Fixed per-tile cost independent of K (output write + scheduling).
    fixed_us: float
    #: Whether the tile is expressible with wmma fragments in fp16.
    tensor_core_ok: bool

_CACHE: dict = {}


def profile_matmul_tiles(
    spec: GPUSpec,
    dtype: str,
    *,
    tensor_core: bool = False,
) -> list:
    """Profile every candidate matmul tile shape on the device model.

    Returns a list of :class:`TileProfile`, sorted by per-FLOP efficiency
    (best first).  Shapes whose shared-memory working set exceeds the device's
    per-SM shared memory are skipped, mirroring real occupancy limits.
    """
    # The full frozen GPUSpec keys the cache: two same-named specs with
    # different parameters must not share profiles.
    key = (spec, dtype, tensor_core)
    if key in _CACHE:
        return _CACHE[key]

    from .spec import dtype_bytes

    dsize = dtype_bytes(dtype)
    shared_budget = spec.shared_mem_per_sm_kib * 1024

    profiles = []
    for tm, tk, tn in itertools.product(_TM_CANDIDATES, _TK_CANDIDATES, _TN_CANDIDATES):
        tile = TileConfig(tm=tm, tk=tk, tn=tn)
        working_set = (tm * tk + tk * tn + tm * tn) * dsize
        if working_set > shared_budget:
            continue
        if tensor_core and not wmma_supports(tm, tn, tk):
            continue
        total = matmul_tile_time_us(
            tile, _PROFILE_K, dtype, spec, tensor_core=tensor_core
        )
        fixed = matmul_tile_time_us(tile, 1, dtype, spec, tensor_core=tensor_core)
        # Solve total = per_k * K + fixed' using two K points; the model is
        # affine in ceil(K / tk) so this recovers it exactly for K >> tk.
        per_k = (total - fixed) / (_PROFILE_K - 1)
        profiles.append(
            TileProfile(
                tile=tile,
                time_per_k_us=per_k,
                fixed_us=fixed - per_k,
                tensor_core_ok=wmma_supports(tm, tn, tk),
            )
        )

    flops_per_k = lambda p: 2.0 * p.tile.tm * p.tile.tn  # noqa: E731
    profiles.sort(key=lambda p: p.time_per_k_us / flops_per_k(p))
    _CACHE[key] = profiles
    return profiles
