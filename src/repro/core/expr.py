"""Tensor-expression parsing (einsum notation).

Section 3.2 expresses operators in Einstein-summation notation, e.g.::

    C[m, n] += A[m, k] * B[k, n]          # MatMul
    C[p] = A[p] + B[p]                    # Vector addition
    C[n, f, x, y] += A[n, m, x+i, y+j] * B[f, m, i, j]   # Convolution

This module parses such strings into a :class:`TensorExpr`, the data model the
PIT-axis analysis (:mod:`repro.core.pit_axis`) operates on.  The grammar:

* the left-hand side names the output tensor and its indices;
* ``+=`` denotes a sum-reduction over axes absent from the output; ``max=`` /
  ``min=`` / ``*=`` denote other reductions; plain ``=`` means no reduction;
* the right-hand side is one tensor reference or several combined with ``*``
  (product) or ``+`` (elementwise sum);
* an index is either a plain axis name or an affine combination like
  ``x + i`` — axes appearing in such compound indices are *derived* axes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

_REF_RE = re.compile(r"\s*([A-Za-z_]\w*)\s*\[([^\]]*)\]\s*")
_ASSIGN_RE = re.compile(r"(\+=|max=|min=|\*=|=)")
_NAME_RE = re.compile(r"^[A-Za-z_]\w*$")


class ParseError(ValueError):
    """Raised for malformed tensor expressions."""


@dataclass(frozen=True)
class IndexTerm:
    """One index slot of a tensor reference.

    ``axes`` holds the axis names appearing in the slot; a slot with more
    than one axis (e.g. ``x+i``) is a *compound* index, and every axis in it
    is a derived axis for PIT purposes.
    """

    axes: tuple
    source: str

    @property
    def is_compound(self) -> bool:
        return len(self.axes) > 1

    def __str__(self) -> str:
        return self.source


@dataclass(frozen=True)
class TensorRef:
    """A tensor name plus its index terms, e.g. ``A[m, k]``."""

    name: str
    indices: tuple

    def axis_names(self) -> tuple:
        """All axis names used by this reference, in order of appearance."""
        out = []
        for term in self.indices:
            out.extend(term.axes)
        return tuple(out)

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.indices)
        return f"{self.name}[{inner}]"


class ReduceOp(Enum):
    """Reduction combinator applied over non-output axes."""

    NONE = "none"
    SUM = "sum"
    MAX = "max"
    MIN = "min"
    PROD = "prod"

    @property
    def commutative_associative(self) -> bool:
        """Whether the combinator is commutative and associative.

        Theorem 1's precondition.  All combinators expressible in this
        grammar happen to satisfy it; the property is still modeled explicitly
        so that the theorem's check is real (and so extensions adding e.g.
        an ordered scan are correctly rejected).
        """
        return self is not ReduceOp.NONE


_ASSIGN_TO_REDUCE = {
    "+=": ReduceOp.SUM,
    "max=": ReduceOp.MAX,
    "min=": ReduceOp.MIN,
    "*=": ReduceOp.PROD,
    "=": ReduceOp.NONE,
}


@dataclass(frozen=True)
class TensorExpr:
    """A parsed tensor expression: output, inputs, and combinators."""

    output: TensorRef
    inputs: tuple
    reduce_op: ReduceOp
    elementwise_op: str  # "*" | "+" | "" (single input)
    source: str

    def all_axes(self) -> tuple:
        """Every axis name, output first, in order of first appearance."""
        seen = []
        for ref in (self.output, *self.inputs):
            for axis in ref.axis_names():
                if axis not in seen:
                    seen.append(axis)
        return tuple(seen)

    def output_axes(self) -> frozenset:
        return frozenset(self.output.axis_names())

    def derived_axes(self) -> frozenset:
        """Axes that participate in any compound index slot."""
        derived = set()
        for ref in (self.output, *self.inputs):
            for term in ref.indices:
                if term.is_compound:
                    derived.update(term.axes)
        return frozenset(derived)

    def __str__(self) -> str:
        return self.source


def _parse_index_term(text: str) -> IndexTerm:
    source = text.strip()
    if not source:
        raise ParseError("empty index slot")
    parts = [p.strip() for p in source.split("+")]
    axes = []
    for part in parts:
        if not _NAME_RE.match(part):
            raise ParseError(
                f"index term {source!r}: expected axis names joined by '+', "
                f"got component {part!r}"
            )
        axes.append(part)
    if len(set(axes)) != len(axes):
        raise ParseError(f"index term {source!r} repeats an axis")
    return IndexTerm(axes=tuple(axes), source=source)


def _parse_ref(text: str) -> TensorRef:
    match = _REF_RE.fullmatch(text)
    if not match:
        raise ParseError(f"malformed tensor reference: {text!r}")
    name, inner = match.group(1), match.group(2)
    if not inner.strip():
        raise ParseError(f"tensor {name!r} has no indices")
    terms = tuple(_parse_index_term(t) for t in inner.split(","))
    return TensorRef(name=name, indices=terms)


def _split_rhs(rhs: str):
    """Split the right-hand side into refs and the elementwise combinator.

    Only splits on operators *outside* brackets, so ``A[x+i]`` stays intact.
    """
    refs, ops = [], []
    depth = 0
    current = []
    for ch in rhs:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced brackets in {rhs!r}")
        if depth == 0 and ch in "*+":
            refs.append("".join(current))
            ops.append(ch)
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced brackets in {rhs!r}")
    refs.append("".join(current))
    if len(set(ops)) > 1:
        raise ParseError(f"mixed elementwise operators in {rhs!r}")
    return [_parse_ref(r) for r in refs], (ops[0] if ops else "")


def parse_expr(source: str) -> TensorExpr:
    """Parse a tensor-expression string into a :class:`TensorExpr`.

    >>> e = parse_expr("C[m, n] += A[m, k] * B[k, n]")
    >>> e.reduce_op
    <ReduceOp.SUM: 'sum'>
    >>> e.all_axes()
    ('m', 'n', 'k')
    """
    parts = _ASSIGN_RE.split(source, maxsplit=1)
    if len(parts) != 3:
        raise ParseError(f"expected an assignment operator in {source!r}")
    lhs, assign, rhs = parts
    output = _parse_ref(lhs)
    inputs, elementwise = _split_rhs(rhs)
    reduce_op = _ASSIGN_TO_REDUCE[assign]

    expr = TensorExpr(
        output=output,
        inputs=tuple(inputs),
        reduce_op=reduce_op,
        elementwise_op=elementwise,
        source=source.strip(),
    )
    _validate(expr)
    return expr


def _validate(expr: TensorExpr) -> None:
    names = [expr.output.name] + [r.name for r in expr.inputs]
    if len(set(names)) != len(names):
        raise ParseError(f"tensor names must be unique in {expr.source!r}")
    input_axes = set()
    for ref in expr.inputs:
        input_axes.update(ref.axis_names())
    # Every output axis must come from somewhere.
    for axis in expr.output.axis_names():
        if axis not in input_axes:
            raise ParseError(
                f"output axis {axis!r} never appears on the right-hand side "
                f"of {expr.source!r}"
            )
    reduction_axes = input_axes - set(expr.output.axis_names())
    if reduction_axes and expr.reduce_op is ReduceOp.NONE:
        raise ParseError(
            f"axes {sorted(reduction_axes)} are reduced but {expr.source!r} "
            f"uses '=' (no reduction combinator)"
        )
