"""Figure 9: Swin-MoE end-to-end latency and memory (A100, fp16).

Batch sizes {8, 32} x expert counts {8, 16, 32}.  Paper claims: PIT
1.5-6.3x over PyTorch, 1.5-2.9x over PyTorch-S, 1.1-1.8x over Tutel,
1.2-1.6x over DeepSpeed, 1.1-1.4x over MegaBlocks; the gains are smaller
than Switch Transformer because MoE layers are only 23.6-61.2% of the
end-to-end latency at 8-32 experts.
"""

import pytest

from repro.hw import A100
from repro.models import swin_moe_workload
from repro.runtime import run_transformer
from repro.baselines import MegaBlocksBackend

from .conftest import paper_note
from .e2e_common import lineup_rows, speedup_summary

EXPERTS = (8, 16, 32)
LINEUP = ("PyTorch", "PyTorch-S", "Tutel", "DeepSpeed", "MegaBlocks", "PIT")


@pytest.mark.benchmark(group="fig9")
@pytest.mark.parametrize("batch", [32, 8])
def test_fig9_swin_moe(benchmark, print_table, batch):
    configs = [
        (f"{e} experts", swin_moe_workload(e, batch, seed=0)) for e in EXPERTS
    ]
    rows, speedups = benchmark.pedantic(
        lambda: lineup_rows(configs, LINEUP, A100, "float16"),
        rounds=1, iterations=1,
    )
    print(
        paper_note(
            f"Figure 9 — Swin-MoE, fp16, batch={batch} (A100)",
            "smaller gains than Switch (fewer experts, MoE is 24-61% of "
            "latency); MegaBlocks the best baseline; PIT still fastest",
        )
    )
    print_table(["config"] + list(LINEUP), rows)
    print(speedup_summary(speedups))

    for table in speedups.values():
        for name, value in table.items():
            assert value > 1.0, (name, value)
        # The MoE-focused baselines sit much closer to PIT than on Switch.
        assert table["DeepSpeed"] < 2.0
        assert table["MegaBlocks"] < 2.0


@pytest.mark.benchmark(group="fig9")
def test_fig9_moe_layer_share(benchmark):
    """MoE layers contribute a minority-to-majority share (the paper's
    23.6-61.2% explanation for the smaller gains)."""
    wl = swin_moe_workload(32, 32, seed=0)
    rep = benchmark.pedantic(
        lambda: run_transformer(wl, MegaBlocksBackend(A100, "float16")),
        rounds=1, iterations=1,
    )
    moe_us = sum(
        v for k, v in rep.timeline.by_op().items() if k.startswith("moe.")
    )
    share = moe_us / rep.timeline.total_us
    print(f"\nMoE share of MegaBlocks latency at 32 experts: {share * 100:.1f}%")
    assert 0.1 < share < 0.75
