"""PIT rules: (PIT-axis, micro-tile, dense computation tile) triples.

Section 3.2: "a PIT rule contains the combination of a PIT-axis, a micro-tile
shape, and a dense computation tile.  Following a PIT rule, the system applies
SRead/SWrite on the PIT-axis, loading/writing multiple sparsely located
micro-tiles on this axis into/from the dense computation tile."

This module enumerates the feasible rules for an operator given the tile
database, which is the search space Algorithm 1 walks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.costmodel import TileConfig
from .microtile import MicroTile, derive_microtile
from .pit_axis import get_operator_expr, pit_axes


@dataclass(frozen=True)
class PITRule:
    """One feasible transformation: permute ``pit_axis``, gather
    ``microtile``-shaped pieces of the sparse operand into ``tile``."""

    operator: str
    pit_axis: str
    microtile: MicroTile
    tile: TileConfig
    #: Which operand the rule reads sparsely ("A" or "B" for matmul).
    sparse_operand: str


#: Matmul PIT-axes that touch each operand; an axis not indexing the sparse
#: operand cannot drive its rearrangement.
_MATMUL_OPERAND_AXES = {"A": ("m", "k"), "B": ("n", "k")}


def matmul_axes_for_operand(sparse_operand: str) -> tuple:
    """Feasible PIT-axes for a matmul with the given sparse operand.

    The axes are first *inferred* from the matmul tensor expression
    (Theorem 1) and then filtered to those indexing the sparse operand.
    """
    inferred = pit_axes(get_operator_expr("MatMul"))
    try:
        touching = _MATMUL_OPERAND_AXES[sparse_operand]
    except KeyError:
        raise ValueError(
            f"sparse_operand must be 'A' or 'B', got {sparse_operand!r}"
        ) from None
    return tuple(a for a in inferred if a in touching)


def matmul_rules(
    tiles,
    *,
    sparse_operand: str = "A",
) -> list:
    """Enumerate all (axis, micro-tile, tile) rules for a sparse matmul.

    ``tiles`` is an iterable of :class:`~repro.hw.costmodel.TileConfig` (or
    tile-DB entries exposing ``.tile``).
    """
    rules = []
    axes = matmul_axes_for_operand(sparse_operand)
    for tile_like in tiles:
        tile = getattr(tile_like, "tile", tile_like)
        for axis in axes:
            micro = derive_microtile(tile, axis, operand=sparse_operand)
            rules.append(
                PITRule(
                    operator="MatMul",
                    pit_axis=axis,
                    microtile=micro,
                    tile=tile,
                    sparse_operand=sparse_operand,
                )
            )
    return rules
