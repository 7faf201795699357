"""Micro-tile abstraction (Section 3.1, Figure 6).

A *micro-tile* is the smallest data unit PIT reads or writes sparsely: its
shape is 1 on the PIT-axis and matches the dense computation tile on every
other axis, so that each micro-tile still saturates a global-memory
transaction.  SRead gathers many sparsely located micro-tiles into one dense
computation tile; SWrite scatters output micro-tiles back.

:class:`MicroTiledOp` is the record of Figure 6: the micro-tile sizes of a
sparse operator's inputs/output in global memory, the dense data formats the
computation tile expects in shared memory, and the dense tile implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

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


@dataclass(frozen=True)
class MicroTiledOp:
    """The Figure 6 record describing one generated sparse operator.

    Attribute names follow the paper's listing.
    """

    #: Micro-tile size per input operand in global memory (None = dense read).
    input_microtile_sizes: tuple
    #: Micro-tile size of the output in global memory (None = dense write).
    output_microtile_size: Optional[MicroTile]
    #: Dense data format (tile shapes) of the inputs in shared memory.
    tile_input_formats: tuple
    #: Dense data format of the output in shared memory.
    tile_output_format: tuple
    #: The dense computation tile.
    dense_tile: TileConfig
    #: The PIT-axis this operator's SRead/SWrite rearrange along.
    pit_axis: str
    #: Callable implementing the dense tile computation on gathered blocks
    #: (numpy in this build; the CUDA template of Figure 7 in the original).
    dense_tile_impl: Optional[Callable] = None

    def describe(self) -> str:
        ins = ", ".join(str(m) if m else "dense" for m in self.input_microtile_sizes)
        out = str(self.output_microtile_size) if self.output_microtile_size else "dense"
        return (
            f"MicroTiledOp(axis={self.pit_axis}, inputs=[{ins}], output={out}, "
            f"tile={self.dense_tile.describe()})"
        )


def matmul_microtiled_op(tile: TileConfig, pit_axis: str) -> MicroTiledOp:
    """Build the Figure 6 record for a sparse matmul under ``pit_axis``.

    * axis ``m``: A is read sparsely by (1, tk) micro-tiles, C written
      sparsely by (1, tn) micro-tiles, B read densely;
    * axis ``k``: A gathered by (tm, 1) and B by (1, tn) micro-tiles along k,
      C written densely;
    * axis ``n``: B read sparsely by (tk, 1), C written by (tm, 1).
    """
    if pit_axis == "m":
        inputs = (derive_microtile(tile, "m", operand="A"), None)
        output = derive_microtile(tile, "m", operand="C")
    elif pit_axis == "k":
        inputs = (
            derive_microtile(tile, "k", operand="A"),
            derive_microtile(tile, "k", operand="B"),
        )
        output = None
    elif pit_axis == "n":
        inputs = (None, derive_microtile(tile, "n", operand="B"))
        output = derive_microtile(tile, "n", operand="C")
    else:
        raise ValueError(f"matmul PIT-axis must be m, k or n, got {pit_axis!r}")
    return MicroTiledOp(
        input_microtile_sizes=inputs,
        output_microtile_size=output,
        tile_input_formats=((tile.tm, tile.tk), (tile.tk, tile.tn)),
        tile_output_format=(tile.tm, tile.tn),
        dense_tile=tile,
        pit_axis=pit_axis,
    )
