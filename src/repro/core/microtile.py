"""Micro-tile abstraction (Section 3.1, Figure 6).

A *micro-tile* is the smallest data unit PIT reads or writes sparsely: its
shape is 1 on the PIT-axis and matches the dense computation tile on every
other axis, so that each micro-tile still saturates a global-memory
transaction.  SRead gathers many sparsely located micro-tiles into one dense
computation tile; SWrite scatters output micro-tiles back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..hw.costmodel import TileConfig


@dataclass(frozen=True)
class MicroTile:
    """A micro-tile shape over a 2-D operand, e.g. ``(1, 32)`` or ``(16, 1)``."""

    shape: tuple

    def __post_init__(self) -> None:
        if len(self.shape) != 2:
            raise ValueError(f"micro-tiles are 2-D in this build, got {self.shape}")
        if any(s < 1 for s in self.shape):
            raise ValueError(f"micro-tile extents must be >= 1, got {self.shape}")

    def __str__(self) -> str:
        return f"{self.shape[0]}x{self.shape[1]}"


def derive_microtile(
    tile: TileConfig,
    pit_axis: str,
    *,
    operand: str,
) -> MicroTile:
    """Micro-tile for a matmul operand under a PIT rule (Section 3.2).

    "We set the shape of micro-tiles to 1 on the PIT-axis while keeping the
    shape of other axes the same as the tile shape of the dense kernel."

    ``operand`` is ``"A"`` (shape [m, k]), ``"B"`` ([k, n]) or ``"C"``
    ([m, n]).  Raises ``ValueError`` when the PIT-axis does not touch the
    operand (such an operand is read densely and has no micro-tile).
    """
    operand_axes = {"A": ("m", "k"), "B": ("k", "n"), "C": ("m", "n")}
    try:
        axes = operand_axes[operand]
    except KeyError:
        raise ValueError(f"operand must be A, B or C, got {operand!r}") from None
    if pit_axis not in axes:
        raise ValueError(
            f"PIT-axis {pit_axis!r} does not index operand {operand} {axes}"
        )
    tile_extent = {"m": tile.tm, "k": tile.tk, "n": tile.tn}
    shape = tuple(1 if axis == pit_axis else tile_extent[axis] for axis in axes)
    return MicroTile(shape=shape)


def gcd_microtile_shape(shapes) -> tuple:
    """Per-axis GCD of a set of 2-D micro-tile shapes.

    This is the finest granularity from which every shape's cover grid can
    be derived by pooled reductions (the base of the cover-grid pyramid);
    for the mixed row/column micro-tiles of a matmul search it is typically
    ``(1, 1)`` — the boolean mask itself.
    """
    shapes = [tuple(s) for s in shapes]
    if not shapes:
        raise ValueError("need at least one micro-tile shape")
    h = w = 0
    for a, b in shapes:
        if a < 1 or b < 1:
            raise ValueError(f"micro-tile extents must be >= 1, got {(a, b)}")
        h = math.gcd(h, a)
        w = math.gcd(w, b)
    return (h, w)
