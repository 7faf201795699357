"""Dynamic-sparsity workload generators: the paper's four sparsity families
(dynamic attention, MoE routing, varying sequence lengths, sparse training)
plus activation sparsity and the pattern-repetition study."""

from .. import _lazy_exports

__all__ = [
    "BERT_DATASETS",
    "DATASETS",
    "GLUE_TASKS",
    "LengthDistribution",
    "MagnitudePruner",
    "MaskStats",
    "PatternHitCounter",
    "PruningSchedule",
    "Router",
    "RoutingTable",
    "SIGNATURE_QUANTUM",
    "as_mask_stats",
    "capacity_tokens",
    "get_dataset",
    "global_token_positions",
    "granular_mask",
    "longformer_mask",
    "longformer_mask_rows",
    "longformer_mask_stats",
    "mask_sparsity",
    "museformer_mask_rows",
    "museformer_mask_stats",
    "museformer_summary_positions",
    "nm_prune_mask",
    "pattern_fingerprint",
    "relu_activation_mask",
    "relu_pattern_stream",
    "seqlen_pattern_stream",
    "two_four_mask",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "activation": ("relu_activation_mask",),
    "attention": (
        "MaskStats", "SIGNATURE_QUANTUM", "as_mask_stats", "global_token_positions",
        "longformer_mask", "longformer_mask_rows", "longformer_mask_stats",
        "museformer_mask_rows", "museformer_mask_stats",
        "museformer_summary_positions",
    ),
    "generators": (
        "PatternHitCounter", "pattern_fingerprint", "relu_pattern_stream",
        "seqlen_pattern_stream",
    ),
    "masks": (
        "MagnitudePruner", "PruningSchedule", "granular_mask", "mask_sparsity",
        "nm_prune_mask", "two_four_mask",
    ),
    "moe": ("Router", "RoutingTable", "capacity_tokens"),
    "seqlen": (
        "BERT_DATASETS", "DATASETS", "GLUE_TASKS", "LengthDistribution",
        "get_dataset",
    ),
})
