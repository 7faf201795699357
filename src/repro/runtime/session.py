"""High-level sessions: run one model across the paper's backend lineup.

These are the entry points the benchmarks and examples call: build the
workload, instantiate the backends that apply (respecting dtype support and
model-family restrictions), run them all, and return comparable reports.
"""

from __future__ import annotations

import inspect

from ..baselines import (
    DeepSpeedBackend,
    LongformerSBackend,
    MegaBlocksBackend,
    PITBackend,
    PyTorchBackend,
    PyTorchSBackend,
    TurboTransformerBackend,
    TutelBackend,
    TVMBackend,
    UnsupportedModelError,
)
from ..hw.spec import GPUSpec
from ..models.workloads import Workload
from .engine import RunReport, run_transformer

#: The standard lineup per figure (paper order).
BACKENDS_BY_NAME = {
    "PyTorch": PyTorchBackend,
    "PyTorch-S": PyTorchSBackend,
    "Tutel": TutelBackend,
    "DeepSpeed": DeepSpeedBackend,
    "MegaBlocks": MegaBlocksBackend,
    "TurboTransformer": TurboTransformerBackend,
    "Longformer-S": LongformerSBackend,
    "TVM": TVMBackend,
    "PIT": PITBackend,
}


def _resolve_backend(name: str):
    try:
        return BACKENDS_BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS_BY_NAME))
        raise KeyError(f"unknown backend {name!r}; known: {known}") from None


def run_lineup(
    workload: Workload,
    backend_names,
    spec: GPUSpec,
    dtype: str = "float32",
    *,
    mode: str = "inference",
    devices: int = 1,
    plan_cache=None,
) -> list:
    """Run one workload across several backends; failures become reports.

    Backends that do not ship kernels for the requested dtype (MegaBlocks in
    fp32) are reported as unsupported rather than raised, matching how the
    paper's figures simply omit them; so is an unknown backend name.

    ``plan_cache`` (a :class:`~repro.core.selection.PlanCache`) is threaded
    to every backend whose constructor accepts one, so repeated lineups —
    and the serving engines handed the same cache — reuse each other's
    Algorithm 1 outcomes; without it, each PIT backend plans over a private
    cache.
    """
    reports = []
    for name in backend_names:
        def _failure(msg: str) -> RunReport:
            return RunReport(
                model=workload.config.name,
                backend=name,
                mode=mode,
                unsupported=True,
                error=msg,
            )

        try:
            cls = _resolve_backend(name)
        except KeyError as exc:
            reports.append(_failure(str(exc)))
            continue
        kwargs = {}
        if (
            plan_cache is not None
            and "plan_cache" in inspect.signature(cls).parameters
        ):
            kwargs["plan_cache"] = plan_cache
        try:
            backend = cls(spec, dtype, **kwargs)
        except UnsupportedModelError as exc:
            reports.append(_failure(str(exc)))
            continue
        reports.append(
            run_transformer(workload, backend, mode=mode, devices=devices)
        )
    return reports
