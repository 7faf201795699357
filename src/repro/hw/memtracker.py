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


class MemoryTracker:
    """Tracks live bytes per category and the peak footprint against a device.

    Categories let reports split the footprint the way the paper discusses it
    (weights vs. activations vs. padding waste vs. conversion workspace).
    Memory is released a whole category at a time, so the tracker keeps one
    byte total per category and no per-allocation record.
    """

    def __init__(self, spec: GPUSpec, *, enforce_capacity: bool = True):
        self.spec = spec
        self.enforce_capacity = enforce_capacity
        self._capacity = spec.mem_capacity_bytes()
        #: category -> live bytes, in the order the categories were booked.
        self._bytes: dict[str, int] = {}
        self.current_bytes = 0
        self.peak_bytes = 0

    def alloc(self, num_bytes: int, label: str = "", category: str = "other") -> None:
        """Allocate ``num_bytes`` in ``category``; ``label`` names the
        allocation in the error.

        Raises :class:`OutOfMemoryError` if the device capacity would be
        exceeded and enforcement is on.
        """
        num_bytes = int(num_bytes)
        if num_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        current = self.current_bytes + num_bytes
        if current > self._capacity and self.enforce_capacity:
            raise OutOfMemoryError(num_bytes, self.current_bytes, self._capacity, label)
        self._bytes[category] = self._bytes.get(category, 0) + num_bytes
        self.current_bytes = current
        if current > self.peak_bytes:
            self.peak_bytes = current

    def free_category(self, category: str) -> int:
        """Release every live allocation in ``category``; returns bytes freed."""
        freed = self._bytes.pop(category, 0)
        self.current_bytes -= freed
        return freed

    @property
    def peak_gib(self) -> float:
        return self.peak_bytes / (1 << 30)
