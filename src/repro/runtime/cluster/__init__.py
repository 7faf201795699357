"""Process-level worker pool behind the ``SchedulingPolicy`` seam.

The cluster subsystem replays a trace in virtual time with each serving
replica a real OS process with its own engine (backend, profiled TileDB,
planner), connected to the admission host by a length-prefixed socket
transport.  The host keeps the policy — admission, batching, placement,
retries — and ships only the execution across the boundary, so the
decision trace stays bit-identical to ``engine.run(policy="continuous")``'s.
Live concurrent serving goes through the threaded
:class:`~repro.runtime.frontend.AsyncServingFrontend` instead.

Layers:

* :mod:`.transport` — framed JSON channels over ``socketpair`` and
  :class:`WorkerLostError`;
* :mod:`.codec` — the wire codec over the plan codec: requests,
  workloads, reports, faults, cache deltas;
* :mod:`.worker` — the worker process (engine, message loop) and the
  host-side :class:`WorkerProcess` handle;
* :mod:`.frontend` — :class:`ClusterFrontend` (the virtual-clock frontend
  over the pool), plan-cache delta sync, and :func:`cluster_replay_trace`.
"""

from ... import _lazy_exports

__all__ = [
    "Channel",
    "ClusterFrontend",
    "WorkerConfig",
    "WorkerLostError",
    "WorkerProcess",
    "channel_pair",
    "cluster_replay_trace",
    "decode_wire",
    "encode_wire",
    "worker_main",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "codec": ("decode_wire", "encode_wire"),
    "frontend": ("ClusterFrontend", "cluster_replay_trace"),
    "transport": ("Channel", "WorkerLostError", "channel_pair"),
    "worker": ("WorkerConfig", "WorkerProcess", "worker_main"),
})
