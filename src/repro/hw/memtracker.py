"""GPU memory footprint accounting with device-capacity OOM.

The paper's end-to-end figures report memory next to latency, and several
baselines *crash with out-of-memory* at the large configurations (Tutel and
DeepSpeed on Switch Transformer with many experts, PyTorch-S and DeepSpeed on
Longformer-4k and Museformer long sequences).  Reproducing those OOM events
requires explicit accounting: every backend allocates weights, activations,
padding buffers and format-conversion workspaces through a
:class:`MemoryTracker` bound to a device spec.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spec import GPUSpec


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation exceeds the device memory capacity."""

    def __init__(self, requested: int, in_use: int, capacity: int, label: str):
        self.requested = requested
        self.in_use = in_use
        self.capacity = capacity
        self.label = label
        super().__init__(
            f"CUDA out of memory (simulated): tried to allocate "
            f"{requested / (1 << 30):.2f} GiB for {label!r} with "
            f"{in_use / (1 << 30):.2f} GiB already in use of "
            f"{capacity / (1 << 30):.2f} GiB capacity"
        )


@dataclass
class Allocation:
    """One live allocation."""

    label: str
    num_bytes: int
    category: str


class MemoryTracker:
    """Tracks live allocations and the peak footprint against a device.

    Categories let reports split the footprint the way the paper discusses it
    (weights vs. activations vs. padding waste vs. conversion workspace).
    """

    def __init__(self, spec: GPUSpec, *, enforce_capacity: bool = True):
        self.spec = spec
        self.enforce_capacity = enforce_capacity
        self._capacity = spec.mem_capacity_bytes()
        self._live: dict[int, Allocation] = {}
        #: category -> {handle: allocation}, the same live allocations.
        self._by_category: dict[str, dict[int, Allocation]] = {}
        self._next_handle = 0
        self.current_bytes = 0
        self.peak_bytes = 0

    def alloc(self, num_bytes: int, label: str = "", category: str = "other") -> int:
        """Allocate ``num_bytes``; returns a handle for :meth:`free`.

        Raises :class:`OutOfMemoryError` if the device capacity would be
        exceeded and enforcement is on.
        """
        num_bytes = int(num_bytes)
        if num_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        capacity = self._capacity
        if self.enforce_capacity and self.current_bytes + num_bytes > capacity:
            raise OutOfMemoryError(num_bytes, self.current_bytes, capacity, label)
        handle = self._next_handle
        self._next_handle += 1
        alloc = self._live[handle] = Allocation(label, num_bytes, category)
        self._by_category.setdefault(category, {})[handle] = alloc
        self.current_bytes += num_bytes
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)
        return handle

    def free(self, handle: int) -> None:
        """Release a previous allocation."""
        alloc = self._live.pop(handle, None)
        if alloc is None:
            raise KeyError(f"unknown or already-freed allocation handle {handle}")
        del self._by_category[alloc.category][handle]
        self.current_bytes -= alloc.num_bytes

    def free_category(self, category: str) -> int:
        """Release every live allocation in ``category``; returns bytes freed."""
        freed = 0
        for handle, alloc in self._by_category.pop(category, {}).items():
            del self._live[handle]
            freed += alloc.num_bytes
        self.current_bytes -= freed
        return freed

    def by_category(self) -> dict[str, int]:
        """Live bytes per category."""
        out: dict[str, int] = {}
        for alloc in self._live.values():
            out[alloc.category] = out.get(alloc.category, 0) + alloc.num_bytes
        return out

    @property
    def peak_gib(self) -> float:
        return self.peak_bytes / (1 << 30)

    @property
    def current_gib(self) -> float:
        return self.current_bytes / (1 << 30)

    def reset_peak(self) -> None:
        """Reset the peak statistic to the current footprint."""
        self.peak_bytes = self.current_bytes
