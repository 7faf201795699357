"""High-level sessions: run one model across the paper's backend lineup.

These are the entry points the benchmarks and examples call: build the
workload, instantiate the backends that apply (respecting dtype support and
model-family restrictions), run them all, and return comparable reports.
"""

from __future__ import annotations

import inspect
from typing import Optional

from ..baselines import (
    DeepSpeedBackend,
    LongformerSBackend,
    MegaBlocksBackend,
    ModelBackend,
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


def make_backend(
    name: str, spec: GPUSpec, dtype: str = "float32", **kwargs
) -> ModelBackend:
    return _resolve_backend(name)(spec, dtype, **kwargs)


def make_replica_backends(
    name: str, specs, dtype: str = "float32", **kwargs
) -> dict:
    """One backend per *distinct* device spec of a replica lineup.

    A heterogeneous fleet (mixed A100/V100 replicas) needs one backend —
    and therefore one TileDB — per device class, not per replica: two A100
    replicas share profiles, plans and kernels.  Returns an insertion-ordered
    ``{GPUSpec: ModelBackend}`` dict keyed by the frozen spec, in first-seen
    lineup order.
    """
    backends: dict = {}
    for spec in specs:
        if spec not in backends:
            backends[spec] = make_backend(name, spec, dtype, **kwargs)
    return backends


def make_live_frontend(
    spec: GPUSpec,
    *,
    max_queue_depth: Optional[int] = None,
    overload: str = "shed",
    **engine_kwargs,
):
    """Build a :class:`~repro.runtime.serving.ServingEngine` plus the
    asyncio front end serving it — the live analogue of constructing an
    engine and calling ``run(policy="continuous")``.

    ``engine_kwargs`` forward to the engine constructor (``replicas``,
    ``replica_specs``, ``batch_window_us``, ``plan_cache``, ...);
    ``max_queue_depth``/``overload`` configure the front end's
    backpressure (see
    :class:`~repro.runtime.frontend.AsyncServingFrontend`).  Returns
    ``(engine, frontend)`` so callers keep the engine handle for plan-cache
    persistence and replay.
    """
    from .frontend import AsyncServingFrontend
    from .serving import ServingEngine

    engine = ServingEngine(spec, **engine_kwargs)
    frontend = AsyncServingFrontend(
        engine, max_queue_depth=max_queue_depth, overload=overload
    )
    return engine, frontend


def validate_backend_kwargs(name: str, kwargs: dict) -> Optional[str]:
    """Check that ``kwargs`` bind to the backend's constructor signature.

    Returns an error string (or None) instead of raising, so a lineup can
    report one backend's stale kwargs without aborting the others.
    """
    try:
        cls = _resolve_backend(name)
    except KeyError as exc:
        return str(exc)
    try:
        inspect.signature(cls).bind(None, "float32", **kwargs)
    except TypeError as exc:
        return f"bad backend_kwargs for {name}: {exc}"
    return None


def run_lineup(
    workload: Workload,
    backend_names,
    spec: GPUSpec,
    dtype: str = "float32",
    *,
    mode: str = "inference",
    enforce_memory: bool = True,
    backend_kwargs: Optional[dict] = None,
    devices: int = 1,
    plan_cache=None,
) -> list:
    """Run one workload across several backends; failures become reports.

    Backends that do not ship kernels for the requested dtype (MegaBlocks in
    fp32) are reported as unsupported rather than raised, matching how the
    paper's figures simply omit them.

    ``plan_cache`` (a :class:`~repro.core.selection.PlanCache`) is threaded
    to every backend whose constructor accepts one, so repeated lineups —
    and the serving engines handed the same cache — reuse each other's
    Algorithm 1 outcomes; without it, each PIT backend plans over a private
    cache.  An explicit ``backend_kwargs`` entry wins over the threaded
    cache.
    """
    backend_kwargs = backend_kwargs or {}
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

        kwargs = dict(backend_kwargs.get(name, {}))
        if plan_cache is not None and "plan_cache" not in kwargs:
            try:
                cls = _resolve_backend(name)
            except KeyError:
                cls = None
            if cls is not None and "plan_cache" in inspect.signature(cls).parameters:
                kwargs["plan_cache"] = plan_cache
        # Validate kwargs up front: stale kwargs (a renamed or removed
        # constructor argument) must cost one report, not the whole lineup.
        kwargs_error = validate_backend_kwargs(name, kwargs)
        if kwargs_error is not None:
            reports.append(_failure(kwargs_error))
            continue
        # Kwargs were validated above, so a TypeError here would be a real
        # constructor bug — let it propagate rather than masking it as an
        # unsupported-backend report.
        try:
            backend = make_backend(name, spec, dtype, **kwargs)
        except UnsupportedModelError as exc:
            reports.append(_failure(str(exc)))
            continue
        reports.append(
            run_transformer(
                workload,
                backend,
                mode=mode,
                enforce_memory=enforce_memory,
                devices=devices,
            )
        )
    return reports
