"""Runtime: the execution engine, sessions, serving, training, reporting."""

from .cluster import (
    ClusterFrontend,
    WorkerConfig,
    WorkerLostError,
    WorkerProcess,
    cluster_replay_trace,
)
from .engine import (
    TRAINING_STATE_MULTIPLIER,
    RunReport,
    run_transformer,
    speedup_table,
)
from .frontend import (
    AsyncServingFrontend,
    RealClock,
    VirtualClock,
    decision_trace,
    replay_trace,
    serve_async,
    serve_workloads,
)
from .report import format_speedups, format_table
from .resilience import (
    FaultInjector,
    FaultSpec,
    HealthTracker,
    InjectedFault,
    ReplicaDownFault,
    ResilienceConfig,
    TransientExecFault,
    WorkerCrashFault,
)
from .scheduler import ContinuousScheduler, SchedulingPolicy
from .serving import (
    BatchReport,
    DeviceClass,
    InferenceRequest,
    ReplicaStats,
    RequestReport,
    ServingEngine,
    ServingReport,
    SpeculativeSelection,
    merge_workloads,
)
from .session import (
    BACKENDS_BY_NAME,
    make_backend,
    run_lineup,
    validate_backend_kwargs,
)
from .training import (
    SparseTrainingReport,
    sparse_training_run,
    sparse_training_step,
)

__all__ = [
    "BACKENDS_BY_NAME",
    "AsyncServingFrontend",
    "BatchReport",
    "ClusterFrontend",
    "ContinuousScheduler",
    "DeviceClass",
    "FaultInjector",
    "FaultSpec",
    "HealthTracker",
    "InferenceRequest",
    "InjectedFault",
    "RealClock",
    "ReplicaDownFault",
    "ReplicaStats",
    "RequestReport",
    "ResilienceConfig",
    "RunReport",
    "SchedulingPolicy",
    "ServingEngine",
    "ServingReport",
    "SparseTrainingReport",
    "SpeculativeSelection",
    "TransientExecFault",
    "WorkerConfig",
    "WorkerCrashFault",
    "WorkerLostError",
    "WorkerProcess",
    "TRAINING_STATE_MULTIPLIER",
    "VirtualClock",
    "cluster_replay_trace",
    "decision_trace",
    "format_speedups",
    "format_table",
    "make_backend",
    "merge_workloads",
    "replay_trace",
    "run_lineup",
    "run_transformer",
    "serve_async",
    "serve_workloads",
    "sparse_training_run",
    "sparse_training_step",
    "speedup_table",
    "validate_backend_kwargs",
]
