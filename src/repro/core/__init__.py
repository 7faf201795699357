"""PIT core: the paper's contribution.

Expression analysis (Theorem 1), micro-tiles, CoverAlgo, the tile database,
Algorithm 1 kernel selection, the online sparsity detector, SRead/SWrite and
the generated sparse kernels, tied together by :class:`PITCompiler`.
"""

from .. import _lazy_exports

__all__ = [
    "AxisInfo",
    "AxisKind",
    "CompiledMatmul",
    "DenseMatmulKernel",
    "GroupedMatmulKernel",
    "KernelChoice",
    "KernelResult",
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
    "SampleStack",
    "SparseIndex",
    "SparseMatmulKernel",
    "TABLE1_PIT_AXES",
    "TensorExpr",
    "TensorRef",
    "TileDB",
    "TileEntry",
    "build_index",
    "classify_axes",
    "cover_grid",
    "coverage_waste",
    "covered_sparsity",
    "derive_microtile",
    "gcd_microtile_shape",
    "get_operator_expr",
    "index_construction_time_us",
    "kernel_from_choice",
    "kernel_selection",
    "matmul_axes_for_operand",
    "matmul_rules",
    "nm_kernel_selection",
    "parse_expr",
    "pit_axes",
    "sparsity_signature",
    "sread_cols",
    "sread_rows",
    "swrite_cols",
    "swrite_rows",
    "table1_rows",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "compiler": ("CompiledMatmul", "PITCompiler"),
    "cover": (
        "SampleStack", "cover_grid", "coverage_waste", "covered_sparsity",
    ),
    "detector": ("SparseIndex", "build_index", "index_construction_time_us"),
    "expr": (
        "ParseError", "ReduceOp", "TensorExpr", "TensorRef", "parse_expr",
    ),
    "kernels": (
        "DenseMatmulKernel", "GroupedMatmulKernel", "KernelResult",
        "SparseMatmulKernel", "kernel_from_choice",
    ),
    "microtile": ("MicroTile", "derive_microtile", "gcd_microtile_shape"),
    "pit_axis": (
        "OPERATOR_EXPRESSIONS", "TABLE1_PIT_AXES", "AxisInfo", "AxisKind",
        "classify_axes", "get_operator_expr", "pit_axes", "table1_rows",
    ),
    "plan": ("PLAN_KINDS", "Planner", "PlanSpec", "ResolvedPlan"),
    "policy": ("PagedAttentionPolicy", "PolicyDecision"),
    "rules": ("PITRule", "matmul_axes_for_operand", "matmul_rules"),
    "selection": (
        "KernelChoice", "PermutedChoice", "PlanCache",
        "PlanCacheLoadError", "kernel_selection", "nm_kernel_selection",
        "sparsity_signature",
    ),
    "sread_swrite": ("sread_cols", "sread_rows", "swrite_cols", "swrite_rows"),
    "tiledb": ("TileDB", "TileEntry"),
})
