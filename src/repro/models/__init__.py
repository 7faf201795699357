"""The evaluated models (Table 2): configurations, functional reference
blocks, and per-figure workload builders."""

from .. import _lazy_exports

__all__ = [
    "AttentionSpec",
    "LayerWeights",
    "ModelConfig",
    "MoESpec",
    "TABLE2",
    "Workload",
    "attention_block",
    "bert_base",
    "bert_workload",
    "encoder_layer",
    "ffn_block",
    "longformer",
    "longformer_workload",
    "moe_layer_grouped",
    "moe_layer_reference",
    "museformer",
    "museformer_workload",
    "opt",
    "opt_inference_workload",
    "opt_training_workload",
    "swin_moe",
    "swin_moe_workload",
    "switch_transformer",
    "switch_workload",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "config": (
        "TABLE2", "AttentionSpec", "ModelConfig", "MoESpec", "bert_base",
        "longformer", "museformer", "opt", "swin_moe", "switch_transformer",
    ),
    "functional": (
        "LayerWeights", "attention_block", "encoder_layer", "ffn_block",
        "moe_layer_grouped", "moe_layer_reference",
    ),
    "workloads": (
        "Workload", "bert_workload", "longformer_workload",
        "museformer_workload", "opt_inference_workload",
        "opt_training_workload", "swin_moe_workload", "switch_workload",
    ),
})
