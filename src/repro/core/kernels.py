"""Generated sparse kernels (the Figure 7 template, realized).

A generated kernel binds a PIT rule to a device and exposes two faces:

* ``run(...)`` — the functional face: build the online sparse index, SRead
  the micro-tiles, execute the dense-tile computation (numpy), SWrite the
  results back.  Produces real values, tested against the dense reference.
* ``estimate_us(...)`` — the cost face: CoverAlgo workload x profiled tile
  cost, wave-quantized, plus detector and SRead surcharges.  This is the
  quantity Algorithm 1 minimizes and the benchmarks report.

Both faces derive from the same rule/tile, so a kernel cannot be fast in the
benchmarks yet wrong in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..hw.costmodel import (
    TileConfig,
    dense_matmul_time_us,
    matmul_step_time_us,
    matmul_tile_fixed_time_us,
    sparse_matmul_time_us,
)
from ..hw.memory import gather_efficiency, stream_time_us, tensor_bytes
from ..hw.spec import GPUSpec, dtype_bytes
from ..hw.timeline import ExecReport
from .cover import SampleStack
from .detector import index_construction_time_us
from .microtile import derive_microtile
from .sread_swrite import sread_cols, sread_rows, swrite_cols, swrite_rows


@dataclass
class KernelResult:
    """Functional output plus the simulated execution report."""

    output: np.ndarray
    report: ExecReport


def _operand_mask(tensor: np.ndarray, mask) -> np.ndarray:
    if mask is not None:
        return np.asarray(mask, dtype=bool)
    return tensor != 0


def _workload_shape(tile: TileConfig, pit_axis: str, transposed: bool) -> tuple:
    """``(outer, shape, divisor)``: whether the PIT-axis is spatial, the
    rule's micro-tile on the grid whose rows are the PIT-axis side (a
    sparse B is transposed), and its merge factor (spatial) or K-step.

    Micro-tiles merge into one dense computation tile when they share their
    block position on every non-PIT axis (the permutation-invariance
    property lets them trade places along the PIT-axis only), so the work
    is ``sum_over_positions(ceil(count_position / divisor))``:

    * a spatial PIT-axis (m for a sparse A, n for a sparse B) merges the
      ``(1, tk)`` micro-tiles of each K-block column into tiles of
      ``rows`` (``tm``, or ``tn`` for B);
    * the reduction axis k gathers each row-block's ``(rows, 1)``
      micro-tiles into K-steps of ``tk``.
    """
    rows = tile.tn if transposed else tile.tm
    if pit_axis == "k":
        return False, (rows, 1), tile.tk
    return True, (1, tile.tk), rows


def _pooled_workload(stack: SampleStack, shape: tuple, transposed: bool,
                    outer: bool, divisors) -> tuple:
    """``(steps, tiles)``: ``[len(divisors), S]`` K-steps and output tiles
    (``[1, S]`` on axis k) per output column tile of the rules sharing one
    workload ``shape`` (:func:`_workload_shape`), reduced from its pooled
    counts once for all of them.  ``-(-x // d)`` is the exact ``ceil``.
    """
    div = np.asarray(divisors, dtype=np.int64)[:, np.newaxis]
    if outer:
        counts = stack.col_counts(shape, transposed=transposed)  # [S, Gc]
        tiles = -(-stack.live_rows(shape, transposed=transposed) // div)
    else:
        counts = stack.row_counts(shape, transposed=transposed)  # [S, Gr]
        tiles = (counts > 0).sum(axis=1)[np.newaxis]
    steps = (-(-counts[np.newaxis] // div[:, :, np.newaxis])).sum(axis=2)
    return steps, tiles


class _RuleTable:
    """Algorithm 1's one evaluator: R rules priced on S samples as ``[R, S]``.

    An entry is :func:`sparse_matmul_time_us` plus, unless
    ``include_detector`` is off, :func:`index_construction_time_us`,
    evaluated elementwise in their operation order, so it equals the scalar
    formula bit for bit.  The per-rule terms (SRead-adjusted step cost,
    fixed tile cost, output-column-tile divisor) are built once, and rules
    sharing a workload shape share one pooled count.  Algorithm 1 scores a
    TileDB's :class:`~repro.core.rules.PITRule` list and a
    :class:`SparseMatmulKernel` prices itself, so a plan prices the same in
    the search and in the kernel it names.
    """

    def __init__(self, rules, sparse_operand: str, spec: GPUSpec, dtype: str,
                 tensor_core: bool):
        self.spec, self.dtype = spec, dtype
        self.transposed = t = sparse_operand == "B"
        self.num_rules = len(rules)
        dsize = dtype_bytes(dtype)
        self.step_us = np.array([matmul_step_time_us(
            r.tile, dtype, spec, tensor_core=tensor_core,
            load_efficiency=gather_efficiency(max(r.microtile.shape) * dsize, spec),
        ) for r in rules]).reshape(-1, 1)
        self.fixed_us = np.array([
            matmul_tile_fixed_time_us(r.tile, dtype, spec) for r in rules
        ]).reshape(-1, 1)
        self.col_div = np.array(
            [r.tile.tm if t else r.tile.tn for r in rules], dtype=np.int64
        ).reshape(-1, 1)
        #: ``(outer, shape) -> ([rule index], [divisor])``.
        self.groups: dict = {}
        for i, r in enumerate(rules):
            outer, shape, divisor = _workload_shape(r.tile, r.pit_axis, t)
            idx, divisors = self.groups.setdefault((outer, shape), ([], []))
            idx.append(i)
            divisors.append(divisor)

    def count(self, stack: SampleStack) -> tuple:
        """``(steps, tiles, micro, cells)``: ``[R, S]`` K-steps and output
        tiles per output column tile, ``[R, S]`` covering micro-tiles and
        the ``[R]`` cells of each micro-tile grid (so a rule's covered
        sparsity is ``1 - micro / cells``)."""
        t = self.transposed
        stack.prime([shape for _, shape in self.groups], transposed=t)
        size = (3, self.num_rules, stack.num_samples)
        steps, tiles, micro = np.empty(size, dtype=np.int64)
        cells = np.empty(self.num_rules, dtype=np.int64)
        for (outer, shape), (idx, divisors) in self.groups.items():
            steps[idx], tiles[idx] = _pooled_workload(
                stack, shape, t, outer, divisors
            )
            micro[idx] = stack.num_microtiles(shape, transposed=t)
            cells[idx] = stack.grid_cells(shape, transposed=t)
        return steps, tiles, micro, cells

    def price(self, counts: tuple, sample_shape: tuple, dense_extent: int, *,
              include_detector: bool = True) -> np.ndarray:
        """``[R, S]`` estimated costs (µs) from :meth:`count`'s counts."""
        steps, tiles, micro, _ = counts
        spec = self.spec
        col_tiles = -(-dense_extent // self.col_div)
        cost = (
            np.ceil(steps * col_tiles / spec.num_sms) * self.step_us
            + np.ceil(tiles * col_tiles / spec.num_sms) * self.fixed_us
            + spec.kernel_launch_us
        )
        if include_detector:
            scan = stream_time_us(tensor_bytes(sample_shape, self.dtype), spec)
            writes = micro * 8 / spec.bandwidth_bytes_us() / spec.gather_efficiency
            cost += scan + writes + spec.kernel_launch_us
        return cost


class DenseMatmulKernel:
    """The dense fallback: no rearrangement, every tile executes."""

    def __init__(self, tile: TileConfig, spec: GPUSpec, dtype: str = "float32",
                 *, tensor_core: bool = False):
        self.tile = tile
        self.spec = spec
        self.dtype = dtype
        self.tensor_core = tensor_core

    def estimate_us(self, m: int, k: int, n: int) -> float:
        return dense_matmul_time_us(
            m, k, n, self.tile, self.dtype, self.spec, tensor_core=self.tensor_core
        )

    def run(self, a: np.ndarray, b: np.ndarray) -> KernelResult:
        out = a @ b
        latency = self.estimate_us(a.shape[0], a.shape[1], b.shape[1])
        report = ExecReport(op="dense_matmul", latency_us=latency)
        return KernelResult(output=out, report=report)


def kernel_from_choice(
    choice,
    spec: GPUSpec,
    dtype: str = "float32",
    *,
    sparse_operand: str = "A",
    tensor_core: bool = False,
):
    """Instantiate the kernel a :class:`~repro.core.selection.KernelChoice`
    names: the dense fallback or the sparse kernel for the winning rule.

    This is the bridge between cached plans and executable kernels — the
    compiler and the serving engine both realize memoized Algorithm 1
    outcomes through it.
    """
    if choice.is_dense_fallback:
        return DenseMatmulKernel(
            choice.tile, spec, dtype, tensor_core=tensor_core
        )
    return SparseMatmulKernel(
        choice.tile,
        choice.pit_axis,
        spec,
        dtype,
        sparse_operand=sparse_operand,
        tensor_core=tensor_core,
    )


class SparseMatmulKernel:
    """A PIT sparse matmul kernel for one (PIT-axis, tile) rule.

    ``C[m, n] += A[m, k] * B[k, n]`` with one sparse operand:

    * ``pit_axis='m'`` (A sparse): SRead gathers non-empty A rows, the dense
      tile computes on the packed rows, SWrite scatters C rows back — the
      first example of Figure 4.
    * ``pit_axis='k'`` (A sparse): SRead gathers non-empty k-columns of A
      *and the matching rows of B*; no SWrite needed (C is dense) — the
      second example of Figure 4.
    * ``pit_axis='n'`` (B sparse): symmetric to 'm' on B's columns.
    """

    def __init__(
        self,
        tile: TileConfig,
        pit_axis: str,
        spec: GPUSpec,
        dtype: str = "float32",
        *,
        sparse_operand: str = "A",
        tensor_core: bool = False,
    ):
        if sparse_operand == "A" and pit_axis not in ("m", "k"):
            raise ValueError(f"sparse A supports axis m or k, got {pit_axis!r}")
        if sparse_operand == "B" and pit_axis not in ("n", "k"):
            raise ValueError(f"sparse B supports axis n or k, got {pit_axis!r}")
        self.tile = tile
        self.pit_axis = pit_axis
        self.spec = spec
        self.dtype = dtype
        self.sparse_operand = sparse_operand
        self.tensor_core = tensor_core
        self.microtile = derive_microtile(tile, pit_axis, operand=sparse_operand)
        # The kernel prices its one rule through Algorithm 1's evaluator.
        self._table = _RuleTable([self], sparse_operand, spec, dtype, tensor_core)

    # ------------------------------------------------------------------
    # Cost face
    # ------------------------------------------------------------------
    def estimate_us(self, mask, dense_extent: int, *,
                    include_detector: bool = True) -> float:
        """Cost of one call on ``mask``: the sparse operand's mask, or a
        one-sample :class:`SampleStack` of it to reuse its cover pyramid."""
        stack = mask if isinstance(mask, SampleStack) else SampleStack([mask])
        cost = self._table.price(
            self._table.count(stack), stack.sample_shape, dense_extent,
            include_detector=include_detector,
        )
        return float(cost[0, 0])

    # ------------------------------------------------------------------
    # Functional face
    # ------------------------------------------------------------------
    def run(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        mask=None,
        seed: int = 0,
    ) -> KernelResult:
        """Execute functionally; ``mask`` overrides value-derived sparsity."""
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"bad matmul shapes {a.shape} x {b.shape}")
        if self.sparse_operand == "A":
            op_mask = _operand_mask(a, mask)
            if op_mask.shape != a.shape:
                raise ValueError("mask shape must match A")
            dense_extent = b.shape[1]
        else:
            op_mask = _operand_mask(b, mask)
            if op_mask.shape != b.shape:
                raise ValueError("mask shape must match B")
            dense_extent = a.shape[0]

        rng = np.random.default_rng(seed)
        if self.sparse_operand == "A" and self.pit_axis == "m":
            rows = np.flatnonzero(op_mask.any(axis=1))
            rows = rows[rng.permutation(rows.size)]  # unordered index
            packed = sread_rows(np.where(op_mask, a, 0.0), rows) @ b
            out = swrite_rows((a.shape[0], b.shape[1]), rows, packed)
        elif self.sparse_operand == "A" and self.pit_axis == "k":
            cols = np.flatnonzero(op_mask.any(axis=0))
            cols = cols[rng.permutation(cols.size)]
            a_packed = sread_cols(np.where(op_mask, a, 0.0), cols)
            b_packed = sread_rows(b, cols)
            out = a_packed @ b_packed
        elif self.sparse_operand == "B" and self.pit_axis == "n":
            cols = np.flatnonzero(op_mask.any(axis=0))
            cols = cols[rng.permutation(cols.size)]
            packed = a @ sread_cols(np.where(op_mask, b, 0.0), cols)
            out = swrite_cols((a.shape[0], b.shape[1]), cols, packed)
        else:  # sparse B, axis k
            rows = np.flatnonzero(op_mask.any(axis=1))
            rows = rows[rng.permutation(rows.size)]
            a_packed = sread_cols(a, rows)
            b_packed = sread_rows(np.where(op_mask, b, 0.0), rows)
            out = a_packed @ b_packed

        # The report reads the same counts the price is made of.
        stack = SampleStack([op_mask])
        counts = self._table.count(stack)
        latency = float(
            self._table.price(counts, stack.sample_shape, dense_extent)[0, 0]
        )
        steps, tiles, micro = (int(c[0, 0]) for c in counts[:3])
        tile, t = self.tile, self._table.transposed
        col_tiles = -(-dense_extent // (tile.tm if t else tile.tn))
        # Every step of one output column tile computes rows x tk operand cells.
        elems = steps * (tile.tn if t else tile.tm) * tile.tk
        nnz = int(stack.nnz[0])
        waste = 0.0 if elems == 0 else max(0.0, 1.0 - nnz / elems)
        detector_us = index_construction_time_us(
            op_mask.shape, self.dtype, self.spec, micro
        )
        report = ExecReport(
            op=f"pit_matmul[{self.pit_axis}]",
            latency_us=latency,
            convert_us=detector_us,
            wasted_fraction=waste,
            detail={
                "tile": self.tile.describe(),
                "microtile": str(self.microtile),
                "k_steps": steps * col_tiles,
                "output_tiles": tiles * col_tiles,
            },
        )
        return KernelResult(output=out, report=report)


class GroupedMatmulKernel:
    """PIT's MoE expert kernel: one sparse matmul per expert, fused.

    Implements the (b, m) multi-axis extension in the form the Switch
    Transformer evaluation uses: SRead gathers each expert's tokens (rows
    scattered across the batch) straight into dense tiles, each expert
    multiplies by its own weight, and SWrite scatters the outputs back to
    token order.  No padding (Tutel/DeepSpeed) and no input reorganization
    pass (MegaBlocks).
    """

    def __init__(self, tile: TileConfig, spec: GPUSpec, dtype: str = "float32"):
        self.tile = tile
        self.spec = spec
        self.dtype = dtype

    def estimate_us(
        self,
        tokens_per_expert,
        k: int,
        n: int,
        *,
        total_tokens: int,
        include_detector: bool = True,
    ) -> float:
        """Cost of all experts' matmuls executed as one sparse kernel."""
        total_steps = 0
        total_tiles = 0
        k_steps = math.ceil(k / self.tile.tk)
        n_tiles = math.ceil(n / self.tile.tn)
        for count in tokens_per_expert:
            if count == 0:
                continue
            m_tiles = math.ceil(count / self.tile.tm)
            total_steps += m_tiles * n_tiles * k_steps
            total_tiles += m_tiles * n_tiles
        detector = 0.0
        if include_detector:
            # Routing decisions, not tensor values, feed the index: one pass
            # over the token->expert map (4 bytes per token).
            detector = index_construction_time_us(
                (total_tokens, 1), "int32", self.spec, total_tokens
            )
        return sparse_matmul_time_us(
            total_steps,
            total_tiles,
            self.tile,
            self.dtype,
            self.spec,
            sread_contig_bytes=self.tile.tk * dtype_bytes(self.dtype),
            detector_us=detector,
        )

    def run(
        self,
        tokens: np.ndarray,
        expert_weights: np.ndarray,
        assignment: np.ndarray,
        *,
        seed: int = 0,
    ) -> KernelResult:
        """``tokens``: [T, k]; ``expert_weights``: [E, k, n]; ``assignment``:
        [T] expert id per token.  Returns [T, n] in original token order."""
        num_experts = expert_weights.shape[0]
        if assignment.shape[0] != tokens.shape[0]:
            raise ValueError("assignment length must match token count")
        if assignment.size and (assignment.min() < 0 or assignment.max() >= num_experts):
            raise ValueError("assignment contains out-of-range expert ids")
        rng = np.random.default_rng(seed)
        out = np.zeros((tokens.shape[0], expert_weights.shape[2]), dtype=tokens.dtype)
        # One stable sort buckets every token by expert (the stable kind
        # keeps each bucket in ascending token order, matching a per-expert
        # flatnonzero scan) — O(T log T) instead of an O(T*E) mask sweep.
        order = np.argsort(assignment, kind="stable")
        bucket_sizes = np.bincount(
            assignment.astype(np.intp, copy=False), minlength=num_experts
        )
        starts = np.zeros(num_experts + 1, dtype=np.int64)
        np.cumsum(bucket_sizes, out=starts[1:])
        counts = [int(c) for c in bucket_sizes]
        for e in range(num_experts):
            if counts[e] == 0:
                continue
            idx = order[starts[e]:starts[e + 1]]
            idx = idx[rng.permutation(idx.size)]  # unordered gather
            packed = sread_rows(tokens, idx) @ expert_weights[e]
            out[idx] = packed
        latency = self.estimate_us(
            counts,
            tokens.shape[1],
            expert_weights.shape[2],
            total_tokens=tokens.shape[0],
        )
        detector_us = index_construction_time_us(
            (tokens.shape[0], 1), "int32", self.spec, tokens.shape[0]
        )
        report = ExecReport(
            op="pit_grouped_matmul",
            latency_us=latency,
            convert_us=detector_us,
            detail={"tokens_per_expert": counts, "tile": self.tile.describe()},
        )
        return KernelResult(output=out, report=report)
