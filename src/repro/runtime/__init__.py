"""Runtime: the execution engine, sessions, serving, training, reporting."""

from .. import _lazy_exports

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
    "format_table",
    "merge_workloads",
    "replay_trace",
    "run_lineup",
    "run_transformer",
    "serve_async",
    "serve_workloads",
    "sparse_training_run",
    "sparse_training_step",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "cluster": (
        "ClusterFrontend", "WorkerConfig", "WorkerLostError", "WorkerProcess",
        "cluster_replay_trace",
    ),
    "engine": ("TRAINING_STATE_MULTIPLIER", "RunReport", "run_transformer"),
    "frontend": (
        "AsyncServingFrontend", "RealClock", "VirtualClock", "decision_trace",
        "replay_trace", "serve_async", "serve_workloads",
    ),
    "report": ("format_table",),
    "resilience": (
        "FaultInjector", "FaultSpec", "HealthTracker", "InjectedFault",
        "ReplicaDownFault", "ResilienceConfig", "TransientExecFault",
        "WorkerCrashFault",
    ),
    "scheduler": ("ContinuousScheduler", "SchedulingPolicy"),
    "serving": (
        "BatchReport", "DeviceClass", "InferenceRequest", "ReplicaStats",
        "RequestReport", "ServingEngine", "ServingReport",
        "SpeculativeSelection", "merge_workloads",
    ),
    "session": ("BACKENDS_BY_NAME", "run_lineup"),
    "training": (
        "SparseTrainingReport", "sparse_training_run", "sparse_training_step",
    ),
})
