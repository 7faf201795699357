"""Mixture-of-Experts inference with PIT (the Figure 8 scenario, in small).

A Switch-Transformer-style MoE layer routes each token to one expert; the
resulting per-expert computation is dynamically sparse.  This example:

1. routes a batch of tokens with a skewed router (real routers are uneven),
2. runs the expert FFNs three ways — per-token reference, PIT's grouped
   SRead/SWrite kernel, and checks they agree numerically,
3. compares end-to-end Switch Transformer latency across PyTorch, Tutel,
   DeepSpeed, MegaBlocks and PIT on the simulated A100.

Run:  python examples/moe_inference.py
"""

import numpy as np

from repro.core import GroupedMatmulKernel
from repro.hw import A100, TileConfig
from repro.models import moe_layer_grouped, moe_layer_reference, switch_workload
from repro.runtime import format_table, run_lineup
from repro.sparsity import Router


def expert_layer_demo():
    print("== one MoE layer: grouped PIT kernel vs per-token reference ==")
    rng = np.random.default_rng(0)
    num_tokens, d_model, d_ff, num_experts = 256, 64, 128, 8
    tokens = rng.standard_normal((num_tokens, d_model))
    w1 = rng.standard_normal((num_experts, d_model, d_ff)) * 0.1
    w2 = rng.standard_normal((num_experts, d_ff, d_model)) * 0.1

    # The numeric path needs each token's expert; the pricing paths read
    # only the per-expert loads of the same draw.
    router = Router(num_experts, concentration=0.4, seed=3)
    assignment = router.assign(num_tokens, seed=7)
    counts = np.bincount(assignment, minlength=num_experts)
    print(f"tokens per expert: {counts.tolist()}")
    print(f"load imbalance (max/mean): {counts.max() / counts.mean():.1f}x")

    reference = moe_layer_reference(tokens, w1, w2, assignment)
    grouped = moe_layer_grouped(tokens, w1, w2, assignment, seed=11)
    err = np.abs(reference - grouped).max()
    print(f"max |grouped - reference| = {err:.2e}")
    assert err < 1e-8

    # The grouped kernel's cost follows the *total* token count, not the
    # busiest expert — the padding-free property.
    kern = GroupedMatmulKernel(TileConfig(32, 32, 32), A100, "float16")
    result = kern.run(tokens, w1, assignment)
    print(f"grouped kernel simulated latency: "
          f"{result.report.latency_us:.1f} us "
          f"(detector {result.report.convert_us:.1f} us)")


def end_to_end_demo():
    print("\n== Switch Transformer end to end (fp16, batch 32, A100) ==")
    lineup = ("PyTorch", "PyTorch-S", "Tutel", "DeepSpeed", "MegaBlocks", "PIT")
    rows = []
    for experts in (64, 128):
        wl = switch_workload(experts, 32, seed=0)
        reports = run_lineup(wl, lineup, A100, "float16")
        by_name = {r.backend: r for r in reports}
        pit = by_name["PIT"]
        rows.append(
            [f"{experts} experts"]
            + [
                "OOM" if by_name[n].oom else f"{by_name[n].latency_ms:.1f}ms"
                for n in lineup
            ]
            + [f"{by_name['PyTorch'].latency_ms / pit.latency_ms:.1f}x"]
        )
    print(format_table(["config"] + list(lineup) + ["PIT vs PyTorch"], rows))


if __name__ == "__main__":
    expert_layer_demo()
    end_to_end_demo()
