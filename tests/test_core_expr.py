"""Tests for tensor-expression parsing and PIT-axis inference (Theorem 1)."""

import functools
import itertools
import operator

import numpy as np
import pytest

from repro.core import (
    OPERATOR_EXPRESSIONS,
    TABLE1_PIT_AXES,
    AxisKind,
    ParseError,
    ReduceOp,
    classify_axes,
    get_operator_expr,
    parse_expr,
    pit_axes,
    table1_rows,
)


class TestParser:
    def test_matmul(self):
        e = parse_expr("C[m, n] += A[m, k] * B[k, n]")
        assert e.output.name == "C"
        assert tuple(ref.name for ref in e.inputs) == ("A", "B")
        assert e.reduce_op is ReduceOp.SUM
        assert e.elementwise_op == "*"
        assert e.all_axes() == ("m", "n", "k")

    def test_vector_add(self):
        e = parse_expr("C[p] = A[p] + B[p]")
        assert e.reduce_op is ReduceOp.NONE
        assert e.elementwise_op == "+"

    def test_compound_indices(self):
        e = parse_expr("C[n, f, x, y] += A[n, m, x+i, y+j] * B[f, m, i, j]")
        assert e.derived_axes() == frozenset({"x", "i", "y", "j"})
        a = e.inputs[0]
        assert a.indices[2].is_compound
        assert a.indices[2].axes == ("x", "i")

    def test_max_reduction(self):
        e = parse_expr("C[p] max= A[p, l]")
        assert e.reduce_op is ReduceOp.MAX

    def test_str_roundtrip_info(self):
        e = parse_expr("C[m, n] += A[m, k] * B[k, n]")
        assert str(e.inputs[0]) == "A[m, k]"

    @pytest.mark.parametrize(
        "bad",
        [
            "C[m, n] A[m, k]",            # no assignment
            "C[] += A[m]",                # empty indices
            "C[m] += A[m] * A[m]",        # duplicate names
            "C[m, q] += A[m, k] * B[k, n]",  # output axis from nowhere
            "C[m] = A[m, k]",             # reduction without combinator
            "C[m] += A[m, k+k]",          # repeated axis in a slot
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_expr(bad)

    def test_unbalanced_brackets(self):
        with pytest.raises(ParseError):
            parse_expr("C[m] += A[m * B[m]")


class TestTheorem1:
    def test_table1_reproduced(self):
        """The headline check: inferred PIT-axes match Table 1 exactly."""
        for name, _, inferred in table1_rows():
            assert frozenset(inferred) == frozenset(TABLE1_PIT_AXES[name]), name

    def test_spatial_axes_are_pit(self):
        e = parse_expr("C[m, n] += A[m, k] * B[k, n]")
        axes = classify_axes(e)
        assert axes["m"].kind is AxisKind.SPATIAL and axes["m"].is_pit
        assert axes["n"].kind is AxisKind.SPATIAL and axes["n"].is_pit

    def test_sum_reduction_axis_is_pit(self):
        e = parse_expr("C[m, n] += A[m, k] * B[k, n]")
        info = classify_axes(e)["k"]
        assert info.kind is AxisKind.REDUCTION and info.is_pit

    def test_derived_axes_are_not_pit(self):
        e = get_operator_expr("Convolution")
        axes = classify_axes(e)
        for name in ("x", "y", "i", "j"):
            assert axes[name].kind is AxisKind.DERIVED
            assert not axes[name].is_pit

    def test_conv_pit_axes(self):
        assert frozenset(pit_axes(get_operator_expr("Convolution"))) == {
            "n",
            "m",
            "f",
        }

    def test_every_registered_operator_parses(self):
        for name in OPERATOR_EXPRESSIONS:
            expr = get_operator_expr(name)
            assert expr.all_axes()

    def test_unknown_operator(self):
        with pytest.raises(KeyError, match="MatMul"):
            get_operator_expr("FlashAttention")

    def test_reasons_are_informative(self):
        axes = classify_axes(get_operator_expr("Convolution"))
        assert "index arithmetic" in axes["x"].reason
        assert "commutative" in axes["m"].reason


#: Starting value of an output cell under each reduction combinator.
_IDENTITY = {
    ReduceOp.NONE: 0.0,
    ReduceOp.SUM: 0.0,
    ReduceOp.PROD: 1.0,
    ReduceOp.MAX: -np.inf,
    ReduceOp.MIN: np.inf,
}
_COMBINE = {
    ReduceOp.NONE: lambda _, value: value,
    ReduceOp.SUM: operator.add,
    ReduceOp.PROD: operator.mul,
    ReduceOp.MAX: max,
    ReduceOp.MIN: min,
}
_ELEMENTWISE = {"*": operator.mul, "+": operator.add}


def slot_extent(term, extents):
    """Extent of one index slot: ``x+i`` spans ``X + I - 1`` positions."""
    return sum(extents[a] for a in term.axes) - (len(term.axes) - 1)


def evaluate(expr, operands, extents):
    """Evaluate ``expr`` by brute force over every binding of its axes —
    the semantics its source states, independent of any kernel."""
    out_axes = expr.output.axis_names()
    out = np.full(tuple(extents[a] for a in out_axes), _IDENTITY[expr.reduce_op])
    combine = _COMBINE[expr.reduce_op]
    elementwise = _ELEMENTWISE.get(expr.elementwise_op)
    axes = expr.all_axes()
    for values in itertools.product(*(range(extents[a]) for a in axes)):
        bound = dict(zip(axes, values))
        terms = [
            operand[tuple(sum(bound[a] for a in t.axes) for t in ref.indices)]
            for ref, operand in zip(expr.inputs, operands)
        ]
        value = functools.reduce(elementwise, terms) if elementwise else terms[0]
        cell = tuple(bound[a] for a in out_axes)
        out[cell] = combine(out[cell], value)
    return out


def random_problem(expr, seed):
    """Axis extents of 3 or 4 and random operands of matching shapes."""
    extents = {a: 3 + i % 2 for i, a in enumerate(expr.all_axes())}
    rng = np.random.default_rng(seed)
    operands = [
        rng.uniform(0.5, 1.5, size=tuple(slot_extent(t, extents) for t in ref.indices))
        for ref in expr.inputs
    ]
    return extents, operands, rng


def shuffled(size, rng):
    perm = rng.permutation(size)
    return perm[::-1] if (perm == np.arange(size)).all() else perm


def shuffle_axis(expr, operands, axis, perm):
    """SRead along ``axis``: reorder every operand slot indexed by it."""
    out = []
    for ref, operand in zip(expr.inputs, operands):
        for slot, term in enumerate(ref.indices):
            if term.axes == (axis,):
                operand = np.take(operand, perm, axis=slot)
        out.append(operand)
    return out


class TestTheorem1Numerically:
    """Theorem 1 checked on values: computing a Table 1 operator over a
    shuffled PIT-axis, then writing each output back to its original
    coordinate (SWrite), reproduces the in-order result."""

    @pytest.mark.parametrize(
        "name,axis",
        [(name, axis) for name, axes in TABLE1_PIT_AXES.items() for axis in axes],
    )
    def test_shuffled_pit_axis_is_undone_by_swrite(self, name, axis):
        expr = get_operator_expr(name)
        extents, operands, rng = random_problem(expr, seed=len(name))
        reference = evaluate(expr, operands, extents)
        perm = shuffled(extents[axis], rng)
        result = evaluate(expr, shuffle_axis(expr, operands, axis, perm), extents)
        if axis in expr.output_axes():
            restored = np.empty_like(result)
            index = [slice(None)] * result.ndim
            index[expr.output.axis_names().index(axis)] = perm
            restored[tuple(index)] = result
        else:
            restored = result
        np.testing.assert_allclose(restored, reference, rtol=1e-12)

    @pytest.mark.parametrize("assign", ["+=", "max=", "min=", "*="])
    def test_every_combinator_tolerates_a_shuffled_reduction_axis(self, assign):
        expr = parse_expr(f"C[p] {assign} A[p, l]")
        assert classify_axes(expr)["l"].is_pit
        extents, operands, rng = random_problem(expr, seed=7)
        perm = shuffled(extents["l"], rng)
        np.testing.assert_allclose(
            evaluate(expr, shuffle_axis(expr, operands, "l", perm), extents),
            evaluate(expr, operands, extents),
            rtol=1e-12,
        )

    @pytest.mark.parametrize(
        "slot", [pytest.param(2, id="x+i"), pytest.param(3, id="y+j")]
    )
    def test_shuffled_derived_slot_is_no_relabeling(self, slot):
        """Why derived axes are excluded: shuffle A's ``x+i`` (or ``y+j``)
        slot and the convolution's output values change, so no write-back
        order can restore them."""
        expr = get_operator_expr("Convolution")
        extents, (a, b), rng = random_problem(expr, seed=3)
        reference = evaluate(expr, [a, b], extents)
        perm = shuffled(a.shape[slot], rng)
        result = evaluate(expr, [np.take(a, perm, axis=slot), b], extents)
        assert not np.allclose(np.sort(result, axis=None), np.sort(reference, axis=None))
