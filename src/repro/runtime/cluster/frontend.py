"""The cluster frontend: virtual-time replay over worker processes.

:class:`ClusterFrontend` is an :class:`AsyncServingFrontend` on a
:class:`~repro.runtime.frontend.VirtualClock` that moves exactly one method
across the process boundary — ``_execute``.  Admission, batching,
placement, retry/failover and accounting all stay on the host in the
shared :class:`~repro.runtime.scheduler.SchedulingPolicy`; a dispatch
becomes one blocking request/reply round trip on the replica's transport
channel, and the reply carries the reports plus a plan-cache delta the
host applies and broadcasts, so N worker processes pay the cold-search
bill of one.

A dead worker process surfaces as :class:`WorkerLostError` from the
transport and routes through
:func:`~repro.runtime.resilience.resolve_failure` exactly like an injected
:class:`WorkerCrashFault`: the batch retries on a peer and the replica
walks the health tracker's quarantine ladder.  A lost worker is not
respawned.

:func:`cluster_replay_trace` runs this front end through the one
simulated driver, :func:`~repro.runtime.frontend.serve_virtual`: every
dispatch blocks, so plan deltas land before the next decision and the
decision trace — including timings under ``charge_selection=False`` —
equals ``engine.run(policy="continuous")``'s on the same trace.
"""

from __future__ import annotations

from ..frontend import AsyncServingFrontend, VirtualClock, serve_virtual
from ..resilience import InjectedFault
from ..serving import ServingReport
from .codec import (
    cache_delta_message,
    decode_delta_entries,
    decode_exception,
    decode_wire,
    dispatch_message,
    encode_delta_entries,
)
from .transport import WorkerLostError
from .worker import WorkerConfig, WorkerProcess

#: How long to wait for a worker's readiness ping (engine construction
#: profiles a tile database, which takes real time).
READY_TIMEOUT_S = 120.0


class ClusterFrontend(AsyncServingFrontend):
    """A virtual-clock :class:`AsyncServingFrontend` whose replicas are
    processes.

    The policy runs on the admission host; ``_execute`` runs in the
    replica's worker process via the transport.  Everything else — the
    4-tuple dispatch items, retry scheduling, accounting, the report —
    is inherited unchanged.
    """

    #: A lost worker process fails its dispatch like an injected crash.
    _inline_faults = (InjectedFault, WorkerLostError)

    def __init__(self, engine):
        if engine.overlap_selection:
            raise ValueError(
                "ClusterFrontend requires overlap_selection=False: "
                "speculative batch-open searches would run host-side and "
                "fork the plan traffic from the worker processes"
            )
        super().__init__(engine, clock=VirtualClock())
        #: replica_id -> WorkerProcess handle.
        self._procs: dict = {}

    # ------------------------------------------------------------------
    # Worker pool lifecycle
    # ------------------------------------------------------------------
    def start_workers(self) -> None:
        """Spawn one worker process per policy replica, seed each with the
        plans the host already knows, and wait for readiness."""
        engine = self.engine
        snapshot = encode_delta_entries(engine.plan_cache.entries())
        for replica in self.policy.replicas:
            proc = WorkerProcess(WorkerConfig(
                spec=replica.device.spec,
                dtype=engine.dtype,
                max_batch_tokens=engine.max_batch_tokens,
                max_batch_size=engine.max_batch_size,
                enforce_memory=engine.enforce_memory,
                charge_selection=engine.charge_selection,
                resilience=engine.resilience,
            ))
            proc.start()
            self._procs[replica.replica_id] = proc
            if snapshot:
                proc.data_channel.send(cache_delta_message(snapshot))
        for replica_id, proc in self._procs.items():
            if not proc.ping(timeout=READY_TIMEOUT_S):
                raise WorkerLostError(
                    f"worker {replica_id} failed its readiness ping"
                )

    def shutdown_workers(self) -> None:
        """Gracefully shut every worker down."""
        for proc in self._procs.values():
            proc.shutdown()
        self._procs.clear()

    # ------------------------------------------------------------------
    # Dispatch path
    # ------------------------------------------------------------------
    def _execute(self, item) -> tuple:
        """One dispatch round trip to the replica's worker process."""
        batch, placement, batch_id, attempt = item
        replica_id = placement.replica.replica_id
        message = dispatch_message(
            batch.requests,
            batch_id=batch_id,
            attempt=attempt,
            start_us=placement.start_us,
            replica_id=replica_id,
        )
        reply = self._procs[replica_id].request(message)
        if reply["type"] == "error":
            raise decode_exception(reply["kind"], reply["message"])
        entries = reply["delta"]
        for key, value in decode_delta_entries(entries):
            self.engine.plan_cache.put(key, value)
        self._broadcast_delta(entries, exclude=replica_id)
        batch_report = decode_wire(reply["batch_report"])
        request_reports = [decode_wire(r) for r in reply["request_reports"]]
        return batch_report, request_reports

    def _broadcast_delta(self, entries, *, exclude: int) -> None:
        """Send a dispatch's fresh plans to every other worker; a dead one
        is skipped (its replica fails its next dispatch instead)."""
        if not entries:
            return
        message = cache_delta_message(entries)
        for replica_id, proc in self._procs.items():
            if replica_id == exclude:
                continue
            try:
                proc.data_channel.send(message)
            except WorkerLostError:
                continue


def cluster_replay_trace(engine, requests=None) -> ServingReport:
    """Serve a trace through the cluster frontend in virtual time.

    The process-pool analogue of
    :func:`~repro.runtime.frontend.replay_trace`: same driver
    (:func:`~repro.runtime.frontend.serve_virtual`), same admission
    pipeline, but every execution is a real round trip into a worker
    process.  Dispatches are synchronous in virtual time, so each batch's
    plan delta reaches the whole fleet before the next decision — which is
    why the decision trace (timings included under
    ``charge_selection=False``) equals ``engine.run(policy="continuous")``'s
    on the same trace.  The workers are shut down on every exit, a failed
    start-up included.
    """
    frontend = ClusterFrontend(engine)
    try:
        frontend.start_workers()
        return serve_virtual(frontend, requests)
    finally:
        frontend.shutdown_workers()
