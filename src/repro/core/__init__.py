"""PIT core: the paper's contribution.

Expression analysis (Theorem 1), micro-tiles, CoverAlgo, the tile database,
Algorithm 1 kernel selection, the online sparsity detector, SRead/SWrite and
the generated sparse kernels, tied together by :class:`PITCompiler`.
"""

from .compiler import CompiledMatmul, PITCompiler
from .cover import (
    MatmulWorkload,
    SampleStack,
    batched_matmul_workload,
    cover_grid,
    coverage_waste,
    covered_sparsity,
    dense_matmul_workload,
)
from .detector import (
    SparseIndex,
    build_index,
    index_construction_time_us,
)
from .expr import ParseError, ReduceOp, TensorExpr, TensorRef, parse_expr
from .kernels import (
    DenseMatmulKernel,
    GroupedMatmulKernel,
    KernelResult,
    SparseMatmulKernel,
    kernel_from_choice,
)
from .microtile import (
    MicroTile,
    derive_microtile,
    gcd_microtile_shape,
)
from .pit_axis import (
    OPERATOR_EXPRESSIONS,
    TABLE1_PIT_AXES,
    AxisInfo,
    AxisKind,
    classify_axes,
    get_operator_expr,
    pit_axes,
    table1_rows,
)
from .plan import (
    PLAN_KINDS,
    Planner,
    PlanSpec,
    ResolvedPlan,
)
from .policy import (
    PagedAttentionPolicy,
    PolicyDecision,
)
from .rules import (
    PITRule,
    matmul_axes_for_operand,
    matmul_rules,
)
from .selection import (
    SIGNATURE_QUANTUM,
    KernelChoice,
    PermutedChoice,
    PlanCache,
    PlanCacheLoadError,
    kernel_selection,
    nm_kernel_selection,
    nm_permutation_candidates,
    sparsity_signature,
)
from .sread_swrite import (
    sread_cols,
    sread_rows,
    swrite_cols,
    swrite_rows,
)
from .tiledb import TileDB, TileEntry

__all__ = [
    "AxisInfo",
    "AxisKind",
    "CompiledMatmul",
    "DenseMatmulKernel",
    "GroupedMatmulKernel",
    "KernelChoice",
    "KernelResult",
    "MatmulWorkload",
    "MicroTile",
    "OPERATOR_EXPRESSIONS",
    "PITCompiler",
    "PITRule",
    "PLAN_KINDS",
    "PermutedChoice",
    "PlanSpec",
    "Planner",
    "ResolvedPlan",
    "PagedAttentionPolicy",
    "ParseError",
    "PlanCache",
    "PlanCacheLoadError",
    "PolicyDecision",
    "ReduceOp",
    "SIGNATURE_QUANTUM",
    "SampleStack",
    "SparseIndex",
    "SparseMatmulKernel",
    "TABLE1_PIT_AXES",
    "TensorExpr",
    "TensorRef",
    "TileDB",
    "TileEntry",
    "batched_matmul_workload",
    "build_index",
    "classify_axes",
    "cover_grid",
    "coverage_waste",
    "covered_sparsity",
    "dense_matmul_workload",
    "derive_microtile",
    "gcd_microtile_shape",
    "get_operator_expr",
    "index_construction_time_us",
    "kernel_from_choice",
    "kernel_selection",
    "matmul_axes_for_operand",
    "matmul_rules",
    "nm_kernel_selection",
    "nm_permutation_candidates",
    "parse_expr",
    "pit_axes",
    "sparsity_signature",
    "sread_cols",
    "sread_rows",
    "swrite_cols",
    "swrite_rows",
    "table1_rows",
]
