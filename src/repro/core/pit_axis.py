"""PIT-axis inference — Theorem 1 of the paper.

    "An axis is called PIT-axis, if and only if all computations on the axis
     are commutative and associative."

Operationally (Section 3.2):

1. axes that *derive new axes* (participate in index arithmetic like ``x+i``
   in convolution) are **not** PIT-axes — shuffling them changes which
   elements meet;
2. among the remaining axes, every **spatial** axis (present in the output)
   is a PIT-axis — permuting it merely relabels output coordinates, and the
   inverse permutation at SWrite restores them;
3. a **reduction** axis (absent from the output) is a PIT-axis iff its
   reduction combinator is commutative and associative (sum/max/min/prod are).

Table 1 of the paper is regenerated from this analysis — see
:data:`OPERATOR_EXPRESSIONS` and :func:`table1_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .expr import TensorExpr, parse_expr


class AxisKind(Enum):
    """Role of an axis in a tensor expression."""

    SPATIAL = "spatial"      # present in the output
    REDUCTION = "reduction"  # absent from the output, reduced over
    DERIVED = "derived"      # participates in index arithmetic


@dataclass(frozen=True)
class AxisInfo:
    """Classification of one axis plus the Theorem-1 verdict."""

    name: str
    kind: AxisKind
    is_pit: bool
    #: Human-readable justification (useful in error messages and docs).
    reason: str


def classify_axes(expr: TensorExpr) -> dict:
    """Classify every axis of ``expr`` and decide PIT-axis eligibility.

    Returns ``{axis_name: AxisInfo}`` in order of first appearance.
    """
    derived = expr.derived_axes()
    output_axes = expr.output_axes()
    result: dict = {}
    for axis in expr.all_axes():
        if axis in derived:
            info = AxisInfo(
                name=axis,
                kind=AxisKind.DERIVED,
                is_pit=False,
                reason=(
                    f"axis {axis!r} participates in index arithmetic; "
                    f"permuting it changes which elements are combined"
                ),
            )
        elif axis in output_axes:
            info = AxisInfo(
                name=axis,
                kind=AxisKind.SPATIAL,
                is_pit=True,
                reason=(
                    f"axis {axis!r} is spatial; permutation only relabels "
                    f"output coordinates and SWrite restores them"
                ),
            )
        else:
            ok = expr.reduce_op.commutative_associative
            info = AxisInfo(
                name=axis,
                kind=AxisKind.REDUCTION,
                is_pit=ok,
                reason=(
                    f"axis {axis!r} is reduced with {expr.reduce_op.value}, "
                    f"which is commutative and associative"
                    if ok
                    else f"axis {axis!r} uses a non-commutative reduction"
                ),
            )
        result[axis] = info
    return result


def pit_axes(expr: TensorExpr) -> tuple:
    """The PIT-axes of an expression, in order of first appearance."""
    return tuple(name for name, info in classify_axes(expr).items() if info.is_pit)


# ----------------------------------------------------------------------
# Table 1: widely-used operators, their expressions and PIT-axes.
# ----------------------------------------------------------------------

#: The operator expressions of Table 1, verbatim.
OPERATOR_EXPRESSIONS = {
    "ReduceSum": "C[p] += A[p, l]",
    "VectorAdd": "C[p] = A[p] + B[p]",
    "MatMul": "C[m, n] += A[m, k] * B[k, n]",
    "BatchMatMul": "C[b, m, n] += A[b, m, k] * B[b, k, n]",
    "Convolution": "C[n, f, x, y] += A[n, m, x+i, y+j] * B[f, m, i, j]",
}

#: The PIT-axes Table 1 reports for each operator (ground truth for tests).
TABLE1_PIT_AXES = {
    "ReduceSum": ("p", "l"),
    "VectorAdd": ("p",),
    "MatMul": ("m", "n", "k"),
    "BatchMatMul": ("b", "m", "n", "k"),
    "Convolution": ("n", "m", "f"),
}


def get_operator_expr(name: str) -> TensorExpr:
    """Parse one of the Table 1 operator expressions by name."""
    try:
        source = OPERATOR_EXPRESSIONS[name]
    except KeyError:
        known = ", ".join(sorted(OPERATOR_EXPRESSIONS))
        raise KeyError(f"unknown operator {name!r}; known: {known}") from None
    return parse_expr(source)


def table1_rows():
    """Regenerate Table 1: (operator, expression, inferred PIT-axes).

    The PIT-axes column is *computed* by :func:`pit_axes`, not copied — the
    unit tests assert it matches :data:`TABLE1_PIT_AXES`.
    """
    rows = []
    for name, source in OPERATOR_EXPRESSIONS.items():
        expr = parse_expr(source)
        inferred = pit_axes(expr)
        # Present in Table 1's order (the paper lists output-order for
        # spatial axes followed by reduction axes, except Convolution which
        # lists n, m, f).
        rows.append((name, source, inferred))
    return rows
